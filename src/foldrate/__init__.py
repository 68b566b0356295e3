"""Evaluate sum/max convolution recurrences and bound their growth rate.

A recurrence here is a weighted list of terms.  Starting from s_0 = 1, each
term with arity l and weight k contributes either

    k * sum  of s_{x_1} * ... * s_{x_l}   over all ordered splits
    k * max  of s_{x_1} * ... * s_{x_l}   x_1 + ... + x_l = n - 1

and s_n is the sum of the per-term contributions.  The package computes such
sequences exactly (on Python ints, scaled by the lcm of the weight
denominators) or in a log-domain float representation, derives certified
lower/upper bounds on lim s_n^(1/n), and cross-checks the machinery against
an exhaustive tree enumeration oracle, which refuses any run of more than
trees.TREE_BUDGET trees before it builds one.

Importing the package loads neither numpy nor the bounds, tree, cache,
Lagrange, log-domain and recurrence-search modules, nor json, csv,
logging, hashlib or dataclasses: each loads when first used.
"""

import importlib

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
from .engine import MemoryBudgetError, SequenceTable, compute_sequence

__version__ = "0.1.0"

# The defaults of refine (bounds).  They live here so that the command
# line's parser reads them without loading that module.
DEFAULT_EPSILON = 0.25
DEFAULT_MAX_N = 1 << 14

# Names resolved on first use, with the module that defines them: each
# module is imported only when one of its names is asked for.
_LAZY = {name: module for module, names in (
    ("bounds", ("BoundsEntry", "BoundsReport", "evaluate_bounds", "rate_interval",
                "refine")),
    ("cache", ("CacheCorruptError", "CacheError", "CacheMismatchError", "load_cache",
               "save_cache")),
    ("trees", ("check_subtree_lemma", "oracle_summary", "subtree_size_interval",
               "tree_values")),
) for name in names}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY})


# the names imported above and those of _LAZY
__all__ = sorted(["ExactScalar", "GrowthConstants", "LogScalar", "MemoryBudgetError", "Op",
                  "RecurrenceSpec", "SequenceTable", "SpecError", "SpecSyntaxError",
                  "SpecValidationError", "Term", "compute_sequence", "derive_constants",
                  "ln_fraction", "ln_int", "parse_spec", "parse_spec_json", *_LAZY])
