"""Recurrence descriptions: parsing, validation, derived growth constants.

A description is a list of terms, each ``(op, arity, weight)`` with op one of
``sum``/``max``, an integer arity >= 1 and a positive rational weight.  The
text format has one term per line (``#`` starts a comment)::

    sum 2 1        # weight 1, twofold sum-convolution
    max 5 7/2      # weight 7/2, fivefold max-convolution

A JSON form carries the same content as ``{"terms": [{"op": ..., "arity":
..., "weight": ...}, ...]}``.  Decimal weights are converted exactly, so
``1.5`` means 3/2, never the nearest double.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .scalars import ln_fraction

__all__ = [
    "GrowthConstants",
    "Op",
    "RecurrenceSpec",
    "SpecError",
    "SpecSyntaxError",
    "SpecValidationError",
    "Term",
    "derive_constants",
    "parse_spec",
    "parse_spec_json",
]


class Op(enum.Enum):
    SUM = "sum"
    MAX = "max"


class SpecError(ValueError):
    """A recurrence description is malformed or meaningless."""


class SpecSyntaxError(SpecError):
    """Unreadable input; carries the line and column of the first offence."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class SpecValidationError(SpecError):
    """Readable input that does not describe a usable recurrence."""


@dataclass(frozen=True)
class Term:
    """One weighted convolution term of a recurrence."""

    op: Op
    arity: int
    weight: Fraction

    def __post_init__(self):
        if not isinstance(self.op, Op):
            raise SpecValidationError(f"op must be Op.SUM or Op.MAX, got {self.op!r}")
        if not isinstance(self.arity, int) or isinstance(self.arity, bool):
            raise SpecValidationError(f"arity must be an integer, got {self.arity!r}")
        if self.arity < 1:
            raise SpecValidationError(f"arity must be >= 1, got {self.arity}")
        object.__setattr__(self, "weight", Fraction(self.weight))
        if self.weight <= 0:
            raise SpecValidationError(f"weight must be positive, got {self.weight}")

    def render(self) -> str:
        return f"{self.op.value} {self.arity} {self.weight}"


@dataclass(frozen=True)
class RecurrenceSpec:
    """An ordered, validated collection of terms."""

    terms: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise SpecValidationError("a recurrence needs at least one term")
        if all(t.arity < 2 for t in self.terms):
            raise SpecValidationError(
                "no term with arity >= 2; the sequence would reduce to a "
                "geometric progression and the growth analysis does not apply"
            )

    @property
    def max_arity(self) -> int:
        """Largest arity over all terms (written L in the bound formulas)."""
        return max(t.arity for t in self.terms)

    @property
    def kstar(self) -> Fraction:
        """Largest weight among terms of arity >= 2."""
        return max(t.weight for t in self.terms if t.arity >= 2)

    @property
    def weight_sum(self) -> Fraction:
        """Sum of all weights; this always equals s_1."""
        return sum((t.weight for t in self.terms), Fraction(0))

    def merged_weights(self) -> tuple[dict[int, Fraction], int]:
        """Weight totals keyed by arity, each max term counting as arity 1
        (engine docstring), and the exact domain's scale D.

        D is the lcm of the denominators of the totals per family and
        arity, as when max weights were kept apart from the arity-1 sum
        weight, so a cached exact t_m = D^m s_m keeps its meaning.  It is
        a multiple of every merged total's denominator."""
        # a Fraction sum costs microseconds, so only a repeated key adds one
        # (lagrange.point_bytes asks at every refine step)
        totals: dict[tuple, Fraction] = {}
        for t in self.terms:
            k = t.op, t.arity
            totals[k] = totals[k] + t.weight if k in totals else t.weight
        weights: dict[int, Fraction] = {}
        for (op, arity), w in totals.items():
            a = arity if op is Op.SUM else 1
            weights[a] = weights[a] + w if a in weights else w
        return weights, math.lcm(*(w.denominator for w in totals.values()))

    def render(self) -> str:
        return "\n".join(t.render() for t in self.terms) + "\n"

    def canonical_text(self) -> str:
        """Order-independent rendering used for identity hashing."""
        keys = sorted((t.op.value, t.arity, t.weight) for t in self.terms)
        return "\n".join(f"{op} {arity} {w}" for op, arity, w in keys) + "\n"

    def digest(self) -> bytes:
        return hashlib.sha256(self.canonical_text().encode("ascii")).digest()


_OPS = {op.value: op for op in Op}


def _column_of(raw_line: str, token: str) -> int:
    pos = raw_line.find(token)
    return pos + 1 if pos >= 0 else 1


def _parse_weight_text(text: str) -> Fraction:
    # Fraction's string constructor accepts "p/q", integers and exact
    # decimals ("1.5" -> 3/2), which is precisely the accepted grammar.
    try:
        w = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad weight {text!r}: {exc}") from None
    return w


def _term(where: str, op: Op, arity, weight: Fraction) -> Term:
    """Term(op, arity, weight), its validation error prefixed with ``where``."""
    try:
        return Term(op, arity, weight)
    except SpecValidationError as exc:
        raise SpecValidationError(f"{where}: {exc}") from None


def parse_spec(text: str) -> RecurrenceSpec:
    """Parse the line-oriented text format."""
    terms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 3:
            raise SpecSyntaxError(
                f"expected 'op arity weight', got {len(fields)} field(s)",
                line=lineno,
                column=_column_of(raw, fields[0]) if fields else 1,
            )
        op_text, arity_text, weight_text = fields
        op = _OPS.get(op_text.lower())
        if op is None:
            raise SpecSyntaxError(
                f"unknown operator {op_text!r} (expected 'sum' or 'max')",
                line=lineno,
                column=_column_of(raw, op_text),
            )
        try:
            arity = int(arity_text, 10)
        except ValueError:
            raise SpecSyntaxError(
                f"arity must be a decimal integer, got {arity_text!r}",
                line=lineno,
                column=_column_of(raw, arity_text),
            ) from None
        try:
            weight = _parse_weight_text(weight_text)
        except ValueError as exc:
            raise SpecSyntaxError(
                str(exc), line=lineno, column=_column_of(raw, weight_text)
            ) from None
        terms.append(_term(f"line {lineno}", op, arity, weight))
    if not terms:
        raise SpecValidationError("no terms found")
    return RecurrenceSpec(tuple(terms))


def parse_spec_json(text: str) -> RecurrenceSpec:
    """Parse the JSON form; equivalent content gives an identical spec."""
    try:
        # Routing float literals through Fraction keeps decimals exact.
        doc = json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise SpecSyntaxError(exc.msg, line=exc.lineno, column=exc.colno) from None
    if not isinstance(doc, dict) or "terms" not in doc:
        raise SpecValidationError("top level must be an object with a 'terms' array")
    raw_terms = doc["terms"]
    if not isinstance(raw_terms, list):
        raise SpecValidationError("'terms' must be an array")
    terms = []
    for i, entry in enumerate(raw_terms):
        if not isinstance(entry, dict):
            raise SpecValidationError(f"terms[{i}] must be an object")
        try:
            op_text = entry["op"]
            arity = entry["arity"]
            weight = entry["weight"]
        except KeyError as exc:
            raise SpecValidationError(f"terms[{i}] is missing key {exc.args[0]!r}") from None
        op = _OPS.get(op_text.lower()) if isinstance(op_text, str) else None
        if op is None:
            raise SpecValidationError(f"terms[{i}]: unknown operator {op_text!r}")
        if isinstance(weight, str):
            try:
                weight = _parse_weight_text(weight)
            except ValueError as exc:
                raise SpecValidationError(f"terms[{i}]: {exc}") from None
        elif isinstance(weight, (int, Fraction)) and not isinstance(weight, bool):
            weight = Fraction(weight)
        else:
            raise SpecValidationError(f"terms[{i}]: weight must be a number or string, got {weight!r}")
        terms.append(_term(f"terms[{i}]", op, arity, weight))
    if not terms:
        raise SpecValidationError("no terms found")
    return RecurrenceSpec(tuple(terms))


@dataclass(frozen=True)
class GrowthConstants:
    """Constants the growth bounds need, derived once from a spec.

    They are the paper's constants for the reduced spec, in which each
    ``max j w`` is the ``sum 1 w`` it equals (engine docstring): s1 is the
    exact first sequence value (the weight sum, the same for both specs);
    max_arity is L, the largest arity of a sum term with arity >= 2, and
    kstar is k*, the largest weight among those terms.  log_base is
    (L+1)/L, alpha = 1/ln(log_base) converts natural logs into
    base-(L+1)/L logs, and beta_prime = alpha * ln(s1*L^2/k*), with the
    log rounded up, since it may lose digits to cancellation and the
    upper bound grows with beta_prime.
    """

    s1: Fraction
    kstar: Fraction
    max_arity: int
    log_base: float
    alpha: float
    beta_prime: float


def derive_constants(spec: RecurrenceSpec) -> GrowthConstants:
    """Compute the bound constants for a spec.  Pure and deterministic.

    A max term counts as arity 1, so L and k* range over the sum terms of
    arity >= 2.  The reduced spec describes the same sequence, so the
    paper's theorem applied to it is just as certified, and its L is
    smaller whenever a max term has the largest arity (6 -> 4 on
    ``sum 2 2 / sum 3 3 / sum 4 4 / max 5 5 / max 6 6``).  With no such
    sum term the reduced spec is geometric (``max 2 2`` gives s_n = 2^n)
    and the theorem does not apply to it, so L and k* are taken over the
    spec as written.
    """
    folds = [t for t in spec.terms if t.op is Op.SUM and t.arity >= 2]
    L = max((t.arity for t in folds), default=spec.max_arity)
    s1 = spec.weight_sum
    kstar = max((t.weight for t in folds), default=spec.kstar)
    # ln((L+1)/L) = log1p(1/L), which stays accurate for large L.
    alpha = 1.0 / math.log1p(1.0 / L)
    ratio = s1 * L * L / kstar  # exact rational, >= 4 since s1 >= k* and L >= 2
    beta_prime = alpha * ln_fraction(ratio, 1)
    return GrowthConstants(
        s1=s1,
        kstar=kstar,
        max_arity=L,
        log_base=(L + 1) / L,
        alpha=alpha,
        beta_prime=beta_prime,
    )
