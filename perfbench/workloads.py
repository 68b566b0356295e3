"""The benchmark's workloads: what one operation runs and how its output is checked.

Every check compares the program's output with reference data recorded
once, from a run of the unmodified program, and written down below.  No
check calls the engine under test: a correct change can only produce
outputs that pass them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from fractions import Fraction

MIX_TERMS = ("sum 2 2", "sum 3 3", "sum 4 4", "max 5 5", "max 6 6")
HIGHMAX_TERMS = ("sum 2 1", "max 48 1")

# Both ends of the refine interval are certified bounds on the same rate,
# so the interval of any correct version intersects this one.  Recorded as
# the ln of the best lower and upper bound that `refine --epsilon 0.5`
# printed for MIX (stop at n=8192, ratio 1.4148).
REFINE_MIX_REF = (4.62231387615, 4.96932325543)
REFINE_EPSILON = 0.5

# sha256 of the stdout of `eval --domain exact --n N` on MIX from a run
# without a cache.  Exact values never change, so a resumed run must print
# the same bytes as this cold run did.
EVAL_EXACT_N = (128, 256)
EVAL_EXACT_SHA256 = {
    128: "7fbcc1347e169d92aaf43d99ab7a19b3e17353db21c4670691460d58dcd46707",
    256: "733c73b518e8e096828286b7409880fbb9ba81be362ac78bd6a7d791ff6d5988",
}
ORACLE_MAX_N = 3

# Per-n certified intervals (ln lower, ln upper) that the library's
# evaluate_bounds gave for `sum 2 1 / max 48 1` at table length 4096.
HIGHMAX_N = 4096
HIGHMAX_REF = {
    2: (0.34657359027997264, 1375.4902845008519),
    4: (0.772760613339579, 922.5373573115464),
    8: (1.1318277246220951, 596.569102782042),
    16: (1.3808648755710455, 375.10976090855473),
    32: (1.538962577656181, 230.77613580593575),
    64: (1.634522211419077, 139.6236003857353),
    128: (1.6904902456177526, 83.46242641067555),
    256: (1.7225519095068194, 49.54331645321726),
    512: (1.7406174913908548, 29.391452598593236),
    1024: (1.7506666442136576, 17.58283933847787),
    2048: (1.75619914895371, 10.74392778429608),
    4096: (1.7592193024177631, 6.823037212384545),
}


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


def shuffled_spec(terms, rng: random.Random) -> str:
    """Spec text with the terms in a seed-chosen order; specs are canonical,
    so the order must not change any value the program computes."""
    order = list(terms)
    rng.shuffle(order)
    return "\n".join(order) + "\n"


def run_cli(main, argv) -> str:
    """Call foldrate.cli.main in-process and return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise CheckFailed(f"exit code {code}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


def intersects(lo: float, hi: float, ref) -> bool:
    return lo <= ref[1] and ref[0] <= hi


def check_entries(entries, where: str) -> None:
    """entries: (n, ln_lower, ln_upper) triples against HIGHMAX_REF."""
    seen = {n for n, _, _ in entries}
    if seen != set(HIGHMAX_REF):
        raise CheckFailed(f"{where}: evaluated at n={sorted(seen)}, expected {sorted(HIGHMAX_REF)}")
    for n, lo, hi in entries:
        if not intersects(lo, hi, HIGHMAX_REF[n]):
            raise CheckFailed(f"{where}: n={n} interval [{lo}, {hi}] misses {HIGHMAX_REF[n]}")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    name = ""
    terms: tuple = ()
    domain = "log"

    def __init__(self, fr, workdir: str):
        self.fr = fr  # namespace with the foldrate modules
        self.workdir = workdir

    def warm(self) -> None:
        """Untimed call that loads lazily imported code before timing."""

    def op(self, text: str):
        """One timed operation; returns what check() needs."""
        raise NotImplementedError

    def check(self, text: str, result) -> None:
        """Raise CheckFailed if the operation's output is wrong."""

    def untimed_check(self, text: str, result) -> None:
        """Once per run, on the last good output: slower checks."""


class RefineMixLog(Workload):
    """Time to a certified ratio <= 1.5 on the paper's mixed case; the
    log-domain sum kernel dominates."""

    name = "refine-mix-log"
    terms = MIX_TERMS

    def warm(self):
        run_cli(self.fr.cli.main, ["refine", "--spec-text", "sum 2 1", "--max-n", "64"])

    def op(self, text):
        return run_cli(self.fr.cli.main,
                       ["refine", "--spec-text", text, "--epsilon", str(REFINE_EPSILON)])

    def check(self, text, result):
        doc = json.loads(result)
        best = doc["best"]
        lo, hi = best["ln_lower"], best["ln_upper"]
        if doc["converged"] is not True:
            raise CheckFailed(f"not converged: {doc['reason']}")
        # the printed values carry 12 significant digits
        if math.exp(hi - lo) > (1.0 + REFINE_EPSILON) * (1.0 + 1e-9):
            raise CheckFailed(f"ratio {math.exp(hi - lo)} above {1.0 + REFINE_EPSILON}")
        if not intersects(lo, hi, REFINE_MIX_REF):
            raise CheckFailed(f"interval [{lo}, {hi}] misses reference {REFINE_MIX_REF}")


class EvalExactMix(Workload):
    """Time to exact Fraction values: a fresh cache written at n=128, then
    loaded, resumed and saved at n=256."""

    name = "eval-exact-mix"
    terms = MIX_TERMS
    domain = "exact"

    @property
    def cache_path(self) -> str:
        return os.path.join(self.workdir, "eval-exact-mix.cache")

    def remove_cache(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.cache_path)

    def warm(self):
        self.remove_cache()
        for n in (4, 8):
            run_cli(self.fr.cli.main, ["eval", "--spec-text", "sum 2 1", "--domain", "exact",
                                       "--n", str(n), "--cache", self.cache_path])
        self.remove_cache()

    def op(self, text):
        self.remove_cache()
        return [run_cli(self.fr.cli.main, ["eval", "--spec-text", text, "--domain", "exact",
                                           "--n", str(n), "--cache", self.cache_path])
                for n in EVAL_EXACT_N]

    def check(self, text, result):
        for n, out in zip(EVAL_EXACT_N, result):
            if sha256(out) != EVAL_EXACT_SHA256[n]:
                raise CheckFailed(f"n={n} output differs from the cold-run digest")

    def untimed_check(self, text, result):
        """Tree enumeration brackets the printed s_n, n <= 3."""
        values = [Fraction(v) for v in result[-1].split()[: ORACLE_MAX_N + 1]]
        spec = self.fr.recurrence.parse_spec(text)
        for n in range(1, ORACLE_MAX_N + 1):
            _, total, best = self.fr.trees.oracle_summary(spec, n)
            if not best <= values[n] <= total:
                raise CheckFailed(f"oracle: s_{n}={values[n]} outside [{best}, {total}]")


class BoundsHighmaxLog(Workload):
    """CLI bounds on an arity-48 max spec: 47 max-fold tables.

    Every call raised OverflowError when this benchmark was added.  It is not in
    BENCHMARK.json, whose workloads must not fail; the failed attempts
    are still timed, so norm_wall_s covers the extend and the envelope.
    """

    name = "bounds-highmax-log"
    terms = HIGHMAX_TERMS

    def warm(self):
        run_cli(self.fr.cli.main, ["bounds", "--spec-text", "sum 2 1", "--n", "16"])

    def op(self, text):
        return run_cli(self.fr.cli.main, ["bounds", "--spec-text", text, "--n", str(HIGHMAX_N)])

    def check(self, text, result):
        doc = json.loads(result)
        check_entries([(e["n"], e["ln_lower"], e["ln_upper"]) for e in doc["entries"]], "bounds")


WORKLOADS = {w.name: w for w in (RefineMixLog, EvalExactMix, BoundsHighmaxLog)}
