"""Evaluate sum/max convolution recurrences and bound their growth rate.

A recurrence here is a weighted list of terms.  Starting from s_0 = 1, each
term with arity l and weight k contributes either

    k * sum  of s_{x_1} * ... * s_{x_l}   over all ordered splits
    k * max  of s_{x_1} * ... * s_{x_l}   x_1 + ... + x_l = n - 1

and s_n is the sum of the per-term contributions.  The package computes such
sequences exactly (on Python ints, scaled by the lcm of the weight
denominators) or in a log-domain float representation, derives certified
lower/upper bounds on lim s_n^(1/n), and cross-checks the machinery against
an exhaustive tree enumeration oracle.
"""

from .recurrence import (
    GrowthConstants,
    Op,
    RecurrenceSpec,
    SpecError,
    SpecSyntaxError,
    SpecValidationError,
    Term,
    derive_constants,
    parse_spec,
    parse_spec_json,
)
from .scalars import ExactScalar, LogScalar, ln_fraction, ln_int
from .engine import (
    DEFAULT_MEMORY_LIMIT,
    MemoryBudgetError,
    SequenceTable,
    compute_sequence,
)
from .bounds import (
    BoundsEntry,
    BoundsReport,
    KnownRateResult,
    evaluate_bounds,
    known_rate_check,
    refine,
)
from .trees import (
    DEFAULT_SIZE_CAP,
    check_subtree_lemma,
    oracle_summary,
    subtree_size_interval,
    tree_values,
)

__version__ = "0.1.0"

_CACHE_NAMES = ("CacheCorruptError", "CacheError", "CacheMismatchError", "load_cache",
                "save_cache")


def __getattr__(name):
    # foldrate.cache is imported on first use, not at start-up
    if name in _CACHE_NAMES:
        from . import cache

        return getattr(cache, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BoundsEntry",
    "BoundsReport",
    "CacheCorruptError",
    "CacheError",
    "CacheMismatchError",
    "DEFAULT_MEMORY_LIMIT",
    "DEFAULT_SIZE_CAP",
    "ExactScalar",
    "GrowthConstants",
    "KnownRateResult",
    "LogScalar",
    "MemoryBudgetError",
    "Op",
    "RecurrenceSpec",
    "SequenceTable",
    "SpecError",
    "SpecSyntaxError",
    "SpecValidationError",
    "Term",
    "check_subtree_lemma",
    "compute_sequence",
    "derive_constants",
    "evaluate_bounds",
    "known_rate_check",
    "ln_fraction",
    "ln_int",
    "load_cache",
    "oracle_summary",
    "parse_spec",
    "parse_spec_json",
    "refine",
    "save_cache",
    "subtree_size_interval",
    "tree_values",
]
