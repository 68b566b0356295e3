"""Acceptance gate: one test (and one printed verdict line) per criterion.

Hard requirements are asserted.  Quality targets documented as soft
(the sandwich ratio targets in c3 and the timing window in c7) emit
warnings instead of failing.
"""

import math
import random
import time
import warnings

import numpy as np

from foldrate import (
    SequenceTable,
    check_subtree_lemma,
    compute_sequence,
    derive_constants,
    evaluate_bounds,
    load_cache,
    oracle_summary,
    parse_spec,
    rate_interval,
    refine,
    save_cache,
)
from helpers import (
    MIXED_EXAMPLE,
    oracle_rate_interval,
    random_spec,
    spec_kind,
    tree_count_total,
    violations_decompose,
    violations_history,
    violations_submulti,
    violations_supermulti,
)

LOG_SLACK = 1e-9


def verdict(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_c1_oracle_equivalence():
    """25 random specs, n <= 8: engine values match the tree oracle."""
    start = time.perf_counter()
    rng = random.Random(0xC1)
    kinds = ["mixed"] * 9 + ["sum"] * 8 + ["max"] * 8
    budget = 80_000  # trees per spec across all sizes, to bound runtime
    specs = []
    tries = 0
    for kind in kinds:
        while True:
            tries += 1
            assert tries < 2000, "rejection sampling failed to find small specs"
            spec = random_spec(rng, max_terms=4, max_arity=5, max_weight=8, kind=kind)
            if tree_count_total(spec, 8) <= budget:
                specs.append(spec)
                break
    assert all(t.weight <= 8 and t.arity <= 5 for s in specs for t in s.terms)
    assert all(len(s.terms) <= 4 for s in specs)

    checked = {"sum": 0, "max": 0, "mixed": 0}
    trees = 0
    for spec in specs:
        table = compute_sequence(spec, 8, domain="exact")
        kind = spec_kind(spec)
        single_max = kind == "max" and len(spec.terms) == 1
        for n in range(1, 9):
            count, total, best = oracle_summary(spec, n)
            trees += count
            s_n = table.value(n).value
            if kind == "sum":
                assert total == s_n, f"{spec.render()!r} n={n}"
            elif single_max:
                assert best == s_n, f"{spec.render()!r} n={n}"
            else:
                assert best <= s_n <= total, f"{spec.render()!r} n={n}"
        checked[kind] += 1
    elapsed = time.perf_counter() - start
    assert checked["sum"] >= 1 and checked["max"] >= 1 and checked["mixed"] >= 1
    assert elapsed <= 60.0, f"oracle sweep took {elapsed:.1f}s"
    verdict(
        "C1 oracle-equivalence",
        f"25 specs [{checked['sum']} sum, {checked['max']} max, "
        f"{checked['mixed']} mixed], {trees} trees, {elapsed:.1f}s",
    )


C2_SPECS = [
    "sum 2 1",
    "sum 1 1\nsum 2 1",
    "sum 3 1",
    "max 2 2",
    MIXED_EXAMPLE,
    "sum 2 1/2\nmax 3 7/3",
]


def test_c2_inequality_suites():
    """Supermultiplicativity, history, decomposition and submultiplicative
    transform hold on every computed prefix."""
    total = 0
    for text in C2_SPECS:
        spec = parse_spec(text)
        exact = compute_sequence(spec, 64, domain="exact")
        logt = compute_sequence(spec, 2048, domain="log")
        for table, slack in ((exact, 0.0), (logt, LOG_SLACK)):
            total += violations_supermulti(table, slack)
            total += violations_history(table, slack)
            # the transform is compared in ln space in both domains
            total += violations_submulti(table, LOG_SLACK)
            if spec_kind(spec) == "sum":
                total += violations_decompose(table, slack)
    assert total == 0
    verdict(
        "C2 inequality-suites",
        f"0 violations over {len(C2_SPECS)} specs, exact N=64, log N=2048",
    )


C3_NAMED = (
    ("catalan", "sum 2 1", 1.5),
    ("schroeder", "sum 1 1\nsum 2 1", 1.6),
    ("sum 3 1", "sum 3 1", 1.8),
)


def test_c3_known_rate_sandwiches():
    """The certified sandwich contains the closed-form rate interval of
    helpers.oracle_rate_interval, and that of bounds.rate_interval: named
    specs at N=4096, with soft ratio targets, and 8 random mixed specs at
    N=1024."""
    rng = random.Random(0xC3)
    cases = [(name, parse_spec(text), 4096, target) for name, text, target in C3_NAMED]
    cases += [(f"random {i}", random_spec(rng, kind="mixed"), 1024, None) for i in range(8)]
    details = []
    for name, spec, max_n, target in cases:
        # a tiny epsilon runs refine through the whole length budget
        report = refine(spec, epsilon=1e-9, max_n=max_n)
        lo, hi = oracle_rate_interval(spec)
        assert report.best_ln_lower - 1e-12 <= math.log(lo), (name, spec.render())
        assert math.log(hi) <= report.best_ln_upper + 1e-12, (name, spec.render())
        ln_lo, ln_hi = rate_interval(spec)
        assert report.best_ln_lower <= ln_lo <= ln_hi <= report.best_ln_upper, name
        if target is None:
            continue
        if report.ratio > target:
            warnings.warn(
                f"{name}: sandwich ratio {report.ratio:.3f} above the soft target {target}"
            )
        details.append(f"{name} ratio {report.ratio:.3f}")
    details.append("8 random mixed specs contained at N=1024")
    verdict("C3 known-rate-sandwiches", "; ".join(details))


def test_c4_pure_max_exactness():
    """For "max 2 2": s_n = 2^n exactly, and the certified lower bound is
    ln 2 at every index."""
    spec = parse_spec("max 2 2")
    exact = compute_sequence(spec, 64, domain="exact")
    for n in range(65):
        assert exact.value(n).value == 2**n
    logt = compute_sequence(spec, 2048, domain="log")
    report = evaluate_bounds(logt, derive_constants(spec), ns=range(2, 2049))
    ln2 = math.log(2)
    lowers = [e.ln_lower for e in report.entries] + [report.best_ln_lower]
    worst = max(abs(lb - ln2) for lb in lowers)
    assert len(report.entries) == 2047
    assert worst <= 1e-12
    verdict("C4 pure-max-exactness", f"max |lb - ln 2| = {worst:.2e} over n<=2048")


def test_c5_backend_agreement():
    """Exact and log tables agree on ln s_n to 1e-9 relative for n <= 512."""
    rng = random.Random(0xC5)
    worst = 0.0
    for i in range(10):
        kind = ("sum", "max", "mixed")[i % 3]
        spec = random_spec(rng, max_terms=3, max_arity=3, max_weight=6, kind=kind)
        exact = compute_sequence(spec, 512, domain="exact")
        logt = compute_sequence(spec, 512, domain="log")
        le, ll = exact.ln_values(), logt.ln_values()
        for n in range(513):
            err = abs(le[n] - ll[n]) / max(1.0, abs(le[n]))
            worst = max(worst, err)
            assert err <= 1e-9, f"{spec.render()!r} n={n} err={err:.3e}"
    verdict("C5 backend-agreement", f"10 specs, worst relative error {worst:.2e}")


def test_c6_subtree_lemma():
    """Every tree shape has a subtree size in the certified interval."""
    rng = random.Random(0xC6)
    specs = [parse_spec(MIXED_EXAMPLE)] + [
        random_spec(rng, max_terms=4, max_arity=5, kind="mixed") for _ in range(9)
    ]
    for spec in specs:
        for n in range(2, 9):
            assert check_subtree_lemma(spec, n), f"{spec.render()!r} n={n}"
    verdict("C6 subtree-lemma", "10 specs, sizes 2..8")


def test_c7_quadratic_scaling():
    """Doubling the length should cost about 4x (soft window [3.2, 5.0])."""
    spec = parse_spec("sum 2 1")

    def timed(n):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            SequenceTable(spec, domain="log").extend(n)
            best = min(best, time.perf_counter() - t0)
        return best

    timed(256)  # warm-up
    t1 = timed(2048)
    t2 = timed(4096)
    ratio = t2 / t1
    if not 3.2 <= ratio <= 5.0:
        warnings.warn(
            f"extend scaling ratio {ratio:.2f} outside the soft window [3.2, 5.0] "
            f"(t(2048)={t1:.4f}s, t(4096)={t2:.4f}s)"
        )
    verdict(
        "C7 quadratic-scaling",
        f"t(2048)={t1:.4f}s, t(4096)={t2:.4f}s, ratio {ratio:.2f}",
    )


def test_c8_persistence_determinism(tmp_path):
    """save -> load -> extend reproduces a fresh run bit for bit."""
    spec = parse_spec("sum 1 1\nsum 2 1")
    path = str(tmp_path / "half.seq")
    save_cache(compute_sequence(spec, 100, domain="exact"), path)
    restored = load_cache(path, spec).extend(200)
    fresh = compute_sequence(spec, 200, domain="exact")
    for n in range(201):
        assert restored.value(n).value == fresh.value(n).value
    for m in range(200):
        assert restored.sum_fold(2, m).value == fresh.sum_fold(2, m).value
    # byte-identical serialisations prove full-state equality
    a, b = str(tmp_path / "a.seq"), str(tmp_path / "b.seq")
    save_cache(restored, a)
    save_cache(fresh, b)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()

    # the log domain round-trips bit for bit as well
    pathl = str(tmp_path / "half-log.seq")
    save_cache(compute_sequence(spec, 100, domain="log"), pathl)
    restored_ln = load_cache(pathl, spec).extend(200).ln_values()
    fresh_ln = compute_sequence(spec, 200, domain="log").ln_values()
    assert np.array_equal(restored_ln, fresh_ln)
    verdict("C8 persistence-determinism", "exact and log, 100 -> 200")
