"""Sequence tables: values, fold cells, budgets and cache round trips."""

import hashlib
import json
import math
import operator
import os
import random
import struct
import sys
import time
import tracemalloc
import zlib
from fractions import Fraction

import numpy as np
import pytest

from foldrate import (
    CacheCorruptError,
    CacheMismatchError,
    MemoryBudgetError,
    SequenceTable,
    Op,
    compute_sequence,
    load_cache,
    parse_spec,
    refine,
    save_cache,
)
from foldrate import engine
from foldrate.scalars import ln_fraction, log_sum_vec
from helpers import (MIXED_EXAMPLE, brute_force_values, cache_int, fresh_python, random_spec,
                     split_reduce)

CATALAN = parse_spec("sum 2 1")
SCHROEDER = parse_spec("sum 1 1\nsum 2 1")
MAX22 = parse_spec("max 2 2")
MIX = parse_spec(MIXED_EXAMPLE)


def catalan_closed(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def test_catalan_matches_closed_form():
    table = compute_sequence(CATALAN, 64, domain="exact")
    for n in range(65):
        assert table.value(n).value == catalan_closed(n)


def test_schroeder_matches_direct_recurrence():
    # independent evaluation without fold tables
    s = [Fraction(1)]
    for n in range(1, 25):
        s.append(s[n - 1] + sum(s[x] * s[n - 1 - x] for x in range(n)))
    table = compute_sequence(SCHROEDER, 24, domain="exact")
    assert [table.value(n).value for n in range(25)] == s
    assert s[:7] == [1, 2, 6, 22, 90, 394, 1806]


def test_arity_one_term_contributes_directly():
    # s_n = 2*s_{n-1} + 3*(sum conv); hand values 1, 5, 40, 395
    table = compute_sequence(parse_spec("sum 1 2\nsum 2 3"), 3, domain="exact")
    assert [table.value(n).value for n in range(4)] == [1, 5, 40, 395]


def test_mixed_example_hand_values():
    spec = parse_spec("sum 2 2\nsum 3 3\nsum 4 4\nmax 5 5\nmax 6 6")
    table = compute_sequence(spec, 2, domain="exact")
    assert table.value(1).value == 20
    # 2*(2*20) + 3*(3*20) + 4*(4*20) + 5*20 + 6*20
    assert table.value(2).value == 800


def test_pure_max_doubles_each_step():
    table = compute_sequence(MAX22, 64, domain="exact")
    for n in range(65):
        assert table.value(n).value == 2**n


def _reference_values(spec, n_max):
    """s_0..s_{n_max} on Fractions, each term keeping its own fold columns."""
    s = [Fraction(1)]
    folds = [[[] for _ in range(t.arity + 1)] for t in spec.terms]
    for n in range(1, n_max + 1):
        m = n - 1
        total = Fraction(0)
        for term, fold in zip(spec.terms, folds):
            reduce = sum if term.op is Op.SUM else max
            prev = s
            for j in range(2, term.arity + 1):
                fold[j].append(reduce(s[x] * prev[m - x] for x in range(m + 1)))
                prev = fold[j]
            total += term.weight * prev[m]
        s.append(total)
    return s


def test_random_fractional_specs_match_reference():
    rng = random.Random(20240917)
    specs = [random_spec(rng) for _ in range(20)]
    assert sum(any(t.weight.denominator > 1 for t in spec.terms) for spec in specs) >= 10
    for spec in specs:
        table = compute_sequence(spec, 40, domain="exact")
        assert [table.value(n).value for n in range(41)] == _reference_values(spec, 40), (
            spec.render()
        )


def test_max_fold_never_exceeds_sum_fold():
    # max_fold(j, m) is an alias for s_m, which the sum fold's split
    # (m, 0, ..., 0) already contributes
    spec = parse_spec("sum 3 1\nmax 3 1")
    table = compute_sequence(spec, 12, domain="exact")
    for j in (2, 3):
        for m in range(12):
            assert table.max_fold(j, m) == table.value(m)
            assert table.max_fold(j, m).value <= table.sum_fold(j, m).value
        # a single split: max and sum coincide
        assert table.max_fold(j, 0) == table.sum_fold(j, 0)


def test_fold_accessors_read_each_family_rank():
    # both families' ranks against folds recomputed from s alone; the max
    # ranks are the alias max_fold(j, m) == value(m), which the recomputed
    # max folds must meet
    text = "sum 3 1\nmax 4 1/2"
    table = compute_sequence(parse_spec(text), 12, domain="exact")
    s = [table.value(n).value for n in range(13)]
    for reduce, probe, top in ((sum, table.sum_fold, 3), (max, table.max_fold, 4)):
        prev = s
        for j in range(2, top + 1):
            prev = [reduce(s[x] * prev[m - x] for x in range(m + 1)) for m in range(12)]
            assert [probe(j, m).value for m in range(12)] == prev
        with pytest.raises(KeyError):
            probe(top + 1, 0)
        with pytest.raises(IndexError):
            probe(top, 12)
    for domain in ("exact", "log"):
        t = compute_sequence(parse_spec(text), 12, domain=domain)
        assert all(t.max_fold(j, m) == t.value(m) for j in range(1, 5) for m in range(12))


def test_exact_values_match_brute_force_up_to_arity_six():
    # the engine squares rank 2 into rank 4 and rank 3 into rank 6, and
    # folds s with ranks 2 and 4 into ranks 3 and 5; brute_force_values
    # reduces over every split, with no fold tables
    rng = random.Random(7106)
    specs = [random_spec(rng, max_arity=6) for _ in range(10)]
    assert {5, 6} <= {max(spec.merged_weights()[0]) for spec in specs}  # the top ranks
    for spec in specs:
        table = compute_sequence(spec, 14, domain="exact")
        assert [table.value(n).value for n in range(15)] == brute_force_values(spec, 14), (
            spec.render()
        )


def test_max_folds_are_the_sequence_by_brute_force():
    # the engine docstring's theorem on values built from the definition,
    # sharing no code with the engine: s_a * s_b <= s_{a+b}, and every
    # max over the splits of m into j parts of the product of s is s_m
    rng = random.Random(61)
    for _ in range(12):
        spec = random_spec(rng, max_arity=4)
        s = brute_force_values(spec, 20)
        table = compute_sequence(spec, 20, domain="exact")
        assert [table.value(n).value for n in range(21)] == s, spec.render()
        for j in range(2, 5):
            for m in range(20):
                assert split_reduce(max, s, m, j) == s[m], (spec.render(), j, m)
        for a in range(21):
            for b in range(21 - a):
                assert s[a] * s[b] <= s[a + b], (spec.render(), a, b)


@pytest.mark.parametrize("text, n, digest", [
    (MIXED_EXAMPLE, 2048, "54be4b52c606cdb6bc7a9a91f81c27e8b175cc9d950192471364b7069e2d483d"),
    ("sum 2 1\nmax 48 1", 1024,
     "9e5992459c35d453ef464c97ec52159b05e7b1722c787fc838f6ff75b6a79445"),
], ids=["MIX", "HIGHMAX"])
def test_log_values_are_pinned(text, n, digest):
    # digests of float64 bytes from the block solver's numpy convolutions
    # on x86-64 (blocks of up to 256 cells, tap pieces of 2048 entries,
    # even ranks as squares, (1 - A)^-1 by doubling), with max weights
    # merged into the arity-1 weight
    ln = compute_sequence(parse_spec(text), n, domain="log").ln_values()
    assert hashlib.sha256(ln.tobytes()).hexdigest() == digest


def test_log_sequence_is_the_log_add_of_its_weighted_cells():
    # the (weight, column) pairs: the max weights 5 and 6 merge into the
    # arity-1 weight, 11, then sum arities 2, 3, 4; the block solver finds
    # s_n with its fold cells, not from them, so the two agree to rounding
    table = compute_sequence(MIX, 300, domain="log")
    ln_s = table.ln_values()
    for n in range(1, 301):
        total = None
        for rank, w in ((1, 11), (2, 2), (3, 3), (4, 4)):
            term = ln_fraction(Fraction(w)) + table.sum_fold(rank, n - 1).ln_value
            total = term if total is None else float(np.logaddexp(total, term))
        assert abs(total - ln_s[n]) <= 4 * math.ulp(ln_s[n]), n


def test_fold_rank_one_is_the_sequence():
    table = compute_sequence(CATALAN, 6, domain="exact")
    assert table.sum_fold(1, 4) == table.value(4)


def test_stepwise_extension_matches_one_shot():
    stepped = SequenceTable(CATALAN, domain="exact")
    for n in (3, 7, 20, 33):
        stepped.extend(n)
    fresh = compute_sequence(CATALAN, 33, domain="exact")
    assert [stepped.value(i).value for i in range(34)] == [
        fresh.value(i).value for i in range(34)
    ]

    stepped = SequenceTable(CATALAN, domain="log")
    for n in (3, 7, 20, 33):
        stepped.extend(n)
    fresh = compute_sequence(CATALAN, 33, domain="log")
    assert np.array_equal(stepped.ln_values(), fresh.ln_values())


def test_extend_is_monotone():
    table = compute_sequence(CATALAN, 5, domain="log")
    with pytest.raises(ValueError):
        table.extend(3)
    assert table.extend(5) is table


def test_access_guards():
    table = compute_sequence(CATALAN, 3, domain="exact")
    with pytest.raises(IndexError):
        table.value(4)
    with pytest.raises(IndexError):
        table.value(-1)
    with pytest.raises(IndexError):
        table.sum_fold(2, 3)  # fold cells stop one short of the sequence
    with pytest.raises(KeyError):
        table.sum_fold(3, 0)  # no rank-3 table for an arity-2 spec
    with pytest.raises(ValueError):
        SequenceTable(CATALAN, domain="decimal")


def test_a_table_is_an_object_of_its_domain():
    from foldrate.logdomain import _LogTable

    exact, log = (SequenceTable(CATALAN, domain=d) for d in ("exact", "log"))
    assert type(exact) is engine._ExactTable and type(log) is _LogTable
    assert isinstance(exact, SequenceTable) and isinstance(log, SequenceTable)
    assert (exact.domain_name, log.domain_name) == ("exact", "log")
    with pytest.raises(ValueError, match="exact tables only"):
        log.scaled_values(0)


def test_exact_memory_budget_interrupts_and_resumes(monkeypatch):
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", 4096)
    table = SequenceTable(CATALAN, domain="exact")
    with pytest.raises(MemoryBudgetError):
        table.extend(100_000)
    reached = table.n
    assert reached >= 2
    assert table.value(reached).value == catalan_closed(reached)
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", 1 << 30)
    table.extend(reached + 5)
    assert table.value(reached + 5).value == catalan_closed(reached + 5)


def test_a_log_table_with_many_ranks_builds_in_linear_time():
    # the plan of sum 50000 1 holds 49,999 ranks, and is built in time
    # linear in them
    start = time.perf_counter()
    table = SequenceTable(parse_spec("sum 50000 1"), domain="log")
    assert time.perf_counter() - start < 2.0
    assert len(table.plan) == 49_999


def test_log_memory_budget_rejects_upfront(monkeypatch):
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", 1024)
    table = SequenceTable(CATALAN, domain="log")
    with pytest.raises(MemoryBudgetError):
        table.extend(4096)
    assert table.n == 0  # rejected before doing any work


@pytest.mark.parametrize("domain", ["exact", "log"])
def test_a_plan_over_the_budget_is_refused_before_it_is_built(domain, monkeypatch):
    # sum 1000 1 has 999 sum ranks, each holding at least 8 bytes before
    # any value; a budget below that refuses the table at construction
    spec = parse_spec("sum 1000 1")
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", 999 * 8 - 1)
    with pytest.raises(MemoryBudgetError, match="999 sum ranks"):
        SequenceTable(spec, domain=domain)
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", 999 * 8)
    table = SequenceTable(spec, domain=domain)
    assert table.n == 0 and table.table_count == 1000


def test_log_memory_budget_counts_the_sum_mirrors(monkeypatch):
    # Catalan keeps 2 ln columns plus s's mirror row and the offsets row,
    # which each have 256 entries of room past n, for a block's zeroed tail
    # and its last offsets; a budget that fits only the four rows through
    # n, or one byte less than all of it, must refuse
    n = 1000
    limit = (4 * (n + 1) + 2 * 256) * 8
    for short in (4 * (n + 1) * 8, limit - 1):
        monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", short)
        with pytest.raises(MemoryBudgetError):
            SequenceTable(CATALAN, domain="log").extend(n)
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", limit)
    table = SequenceTable(CATALAN, domain="log").extend(n)
    assert table.n == n


def test_log_extend_stays_near_its_projected_bytes():
    # the budget projects the ln, mirror and offsets rows; the transients
    # of an extend add to them, so a chunk start must not hold two chunks'
    # offsets, or an integer arange beside the float one
    n = 16384
    table = compute_sequence(MIX, 8, domain="log")
    projected = (len(table.data) * (n + 1) + (len(table.reads) + 1) * (n + 1 + 256)) * 8
    tracemalloc.start()
    try:
        table.extend(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * projected, (peak, projected)


def test_exact_memory_budget_holds_after_a_load(tmp_path, monkeypatch):
    # the byte count is restored with the values: a loaded table stops
    # where an uninterrupted one under the same budget stops
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", 4096)
    whole = SequenceTable(CATALAN, domain="exact")
    with pytest.raises(MemoryBudgetError):
        whole.extend(100_000)
    path = str(tmp_path / "cat.seq")
    save_cache(compute_sequence(CATALAN, whole.n // 2, domain="exact"), path)
    back = load_cache(path, CATALAN)
    with pytest.raises(MemoryBudgetError):
        back.extend(100_000)
    assert back.n == whole.n
    assert back.value(whole.n).value == catalan_closed(whole.n)


def test_log_memory_budget_holds_after_a_load(tmp_path, monkeypatch):
    # the budget fits the loaded n = 100 (2 ln rows, s's mirror row and the
    # offsets row, each with a 256-entry tail) and no more
    path = str(tmp_path / "cat.seq")
    fresh = compute_sequence(CATALAN, 100, domain="log")
    save_cache(fresh, path)
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", (4 * 101 + 2 * 256 - 1) * 8)
    with pytest.raises(MemoryBudgetError, match=r"n=100"):
        load_cache(path, CATALAN)
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", (4 * 101 + 2 * 256) * 8)
    back = load_cache(path, CATALAN)
    with pytest.raises(MemoryBudgetError, match=r"still valid at n=100$"):
        back.extend(101)
    assert back.n == 100
    assert np.array_equal(back.ln_values(), fresh.ln_values())


@pytest.mark.parametrize("domain", ["exact", "log"])
def test_load_refuses_a_table_beyond_its_memory_budget(tmp_path, domain, monkeypatch):
    path = str(tmp_path / "cat.seq")
    save_cache(compute_sequence(CATALAN, 1000, domain=domain), path)
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", 64)
    with pytest.raises(MemoryBudgetError, match=r"n=1000"):
        load_cache(path, CATALAN)
    monkeypatch.undo()
    assert load_cache(path, CATALAN).n == 1000


def test_exact_load_admits_exactly_what_extend_reaches(tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", 4096)
    whole = SequenceTable(CATALAN, domain="exact")
    with pytest.raises(MemoryBudgetError):
        whole.extend(100_000)
    path = str(tmp_path / "cat.seq")
    save_cache(whole, path)
    assert load_cache(path, CATALAN).n == whole.n
    monkeypatch.undo()
    save_cache(compute_sequence(CATALAN, whole.n + 1, domain="exact"), path)
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", 4096)
    with pytest.raises(MemoryBudgetError):
        load_cache(path, CATALAN)


def test_refine_reports_memory_budget(monkeypatch):
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", 20000)
    report = refine(MIX, max_n=4096)
    assert not report.converged
    assert report.reason == "memory budget exhausted"
    assert report.entries and report.max_n == report.entries[-1].n


@pytest.mark.parametrize("text", [MIXED_EXAMPLE, "sum 6 1"])
def test_log_sum_kernel_matches_exact(text):
    spec = parse_spec(text)
    exact = compute_sequence(spec, 300, domain="exact").ln_values()
    logt = compute_sequence(spec, 300, domain="log").ln_values()
    err = np.abs(exact - logt) / np.maximum(1.0, np.abs(exact))
    assert err.max() <= 1e-12


def _matches_exact_on_random_specs():
    rng = random.Random(20240)
    for _ in range(40):
        spec = random_spec(rng, kind=rng.choice(("sum", "mixed", "mixed")))
        exact = compute_sequence(spec, 200, domain="exact").ln_values()
        table = compute_sequence(spec, 200, domain="log")
        err = np.abs(table.ln_values() - exact) / np.maximum(1.0, np.abs(exact))
        assert err.max() <= 1e-12, spec.render()
        assert table.fallback_cells == 0, spec.render()


def test_log_matches_exact_on_random_specs():
    _matches_exact_on_random_specs()


def test_log_matches_exact_with_many_tap_pieces(monkeypatch):
    # from M = 32 on, every block's known x known part is a sum of
    # several tap pieces, some shorter than the block
    from foldrate import logdomain

    monkeypatch.setattr(logdomain, "_TAPS", 24)
    _matches_exact_on_random_specs()


@pytest.mark.parametrize("block", [256, 16])
def test_log_matches_exact_on_high_arity_specs(monkeypatch, block):
    # arities up to 7: squares of ranks 2 and 3, and s folded with ranks
    # 2, 4 and 6; at 16-cell blocks every square past M = 32 takes its
    # known x known part as the half sum and the middle square
    from foldrate import logdomain

    monkeypatch.setattr(logdomain, "_BLOCK", block)
    rng = random.Random(7007)
    specs = [random_spec(rng, max_arity=7, kind=rng.choice(("sum", "mixed"))) for _ in range(8)]
    assert {6, 7} <= {max(spec.merged_weights()[0]) for spec in specs}  # the top ranks
    for spec in specs:
        exact = compute_sequence(spec, 300, domain="exact").ln_values()
        table = compute_sequence(spec, 300, domain="log")
        err = np.abs(table.ln_values() - exact) / np.maximum(1.0, np.abs(exact))
        assert err.max() <= 1e-12, spec.render()
        assert table.fallback_cells == 0, spec.render()


@pytest.mark.parametrize("text", [MIXED_EXAMPLE, "sum 2 1\nmax 48 1"])
def test_log_matches_exact_across_the_tap_split(text):
    # blocks past M = 2048 cut the known x known part into tap pieces;
    # the exact values past the engine's window come from the proved
    # recurrence, which shares no kernel with the log domain
    spec = parse_spec(text)
    exact = compute_sequence(spec, 4300, domain="exact").ln_values()
    table = compute_sequence(spec, 4300, domain="log")
    err = np.abs(table.ln_values() - exact) / np.maximum(1.0, np.abs(exact))
    assert err.max() <= 1e-12
    assert table.fallback_cells == 0


@pytest.mark.parametrize("B", [1, 2, 3, 64, 128, 256])
def test_truncated_product_keeps_the_low_outputs(B):
    # B = 1 pads with no zeros; each output sums at most B nonnegative
    # products, in another order than the reference's
    from foldrate.logdomain import _low, _padded

    rng = np.random.default_rng(B)
    for _ in range(20):
        a, b = rng.random(B) * rng.choice([1e-3, 1.0, 1e3]), rng.random(B)
        got = _low(_padded(a), b)
        assert got.shape == (B,)
        assert np.allclose(got, np.convolve(a, b)[:B], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("B", [1, 2, 4, 256])
def test_doubling_inverse_solves_one_minus_a(B):
    # R = (1 - A)^-1 mod t^B means R = 1 + A * R mod t^B, which compares
    # nonnegative series with no cancellation
    from foldrate.series import _inverse

    rng = np.random.default_rng(B)
    for scale in (1e-3, 0.1, 1.0):
        A = rng.random(B) * scale
        A[0] = 0.0
        R = _inverse(A)
        assert R.shape == (B,) and R[0] == 1.0
        want = np.convolve(A, R)[:B]
        want[0] += 1.0
        assert np.allclose(R, want, rtol=1e-12, atol=0.0), scale


# Run in a fresh interpreter by test_extend_imports_numpy_only, with a
# spec and the path of a cache of it on a recurrence as arguments.  Each
# step records which of the lazily loaded modules it finds loaded.
_IMPORTS_CODE = """\
import contextlib, io, sys
spec_text, cache = sys.argv[1:]
LAZY = ("numpy", "foldrate.bounds", "foldrate.trees", "foldrate.logdomain")
# what the exact path up to the resume loads none of; this code imports
# none of them before its last step
STARTUP = ("json", "csv", "logging", "hashlib", "dataclasses", "foldrate.cache",
           "foldrate.holonomic")
steps = {}


def step(name, *more):
    steps[name] = [m for m in LAZY + more if m in sys.modules]


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


import foldrate
step("import foldrate", *STARTUP)
import foldrate.cli
from foldrate.cli import main
step("import foldrate.cli", *STARTUP)
assert run("--help") == 0
step("--help", *STARTUP)
assert run("eval", "--spec-text", "sum 0 1", "--n", "3") == 2
step("bad spec", *STARTUP)
spec = foldrate.parse_spec(spec_text)
foldrate.SequenceTable(spec, domain="exact")
step("exact table", *STARTUP)
assert run("eval", "--spec-text", spec_text, "--domain", "exact", "--n", "40") == 0
step("exact eval", *STARTUP)
assert run("eval", "--spec-text", spec_text, "--domain", "exact", "--n", "256",
           "--cache", cache) == 0
step("exact resume", *STARTUP)
foldrate.compute_sequence(spec, 300, domain="log")
step("log table")
assert foldrate.compute_sequence(spec, 120, domain="exact").recurrence
step("exact search")
steps["scipy or sympy"] = [m for m in ("scipy", "sympy") if m in sys.modules]
import json
print(json.dumps(steps))
"""


def test_extend_imports_numpy_only(tmp_path):
    # Start-up, usage errors and exact tables load neither numpy nor the
    # bounds, tree and log-domain modules, and start-up, building a table
    # and an exact eval that crosses no window load neither the cache
    # module nor the recurrence search, nor json, csv, logging, hashlib
    # or dataclasses: each would add to the start-up time of runs that do
    # not use it.  The resume runs on MIX's cached recurrence, with no
    # search, and loads the cache, its digest's hashlib and the proof; a
    # log table and a search load numpy, and scipy or sympy never load.
    table = compute_sequence(MIX, 120, domain="exact")
    assert table.recurrence
    cache = str(tmp_path / "mix.seq")
    save_cache(table, cache)
    out = fresh_python("-c", _IMPORTS_CODE, MIXED_EXAMPLE, cache, capture_output=True,
                       text=True, timeout=120, check=True)
    loaded = ["numpy", "foldrate.logdomain"]
    assert json.loads(out.stdout) == {
        "import foldrate": [], "import foldrate.cli": [], "--help": [], "bad spec": [],
        "exact table": [], "exact eval": [],
        "exact resume": ["hashlib", "foldrate.cache", "foldrate.holonomic"], "log table": loaded,
        "exact search": loaded, "scipy or sympy": [],
    }


@pytest.mark.parametrize("text", [MIXED_EXAMPLE, "sum 6 1"])
def test_log_resume_mid_chunk_is_bit_identical(tmp_path, text):
    spec = parse_spec(text)
    fresh = compute_sequence(spec, 300, domain="log")
    path = str(tmp_path / "mid.seq")
    save_cache(compute_sequence(spec, 100, domain="log"), path)  # inside chunk [64, 128)
    resumed = load_cache(path, spec).extend(300)
    stepped = SequenceTable(spec, domain="log")
    for n in (3, 50, 129, 300):
        stepped.extend(n)
    for table in (resumed, stepped):
        assert np.array_equal(table.ln_values(), fresh.ln_values())
        # the fold tables too: the serialised state is byte-identical
        a, b = str(tmp_path / "a.seq"), str(tmp_path / "b.seq")
        save_cache(table, a)
        save_cache(fresh, b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()


def _saved(table, path) -> bytes:
    save_cache(table, str(path))
    return path.read_bytes()


@pytest.mark.parametrize("text", [MIXED_EXAMPLE, "sum 2 1\nmax 48 1", "sum 9 1/7\nmax 5 50",
                                  "sum 2 1", "max 2 2", "sum 6 1/3\nsum 5 2\nmax 3 1"])
def test_log_extend_across_chunk_boundaries_is_bit_identical(tmp_path, text):
    _steps_and_loads_are_bit_identical(tmp_path, parse_spec(text))


@pytest.mark.parametrize("text", [MIXED_EXAMPLE, "sum 9 1/7\nmax 5 50"])
def test_log_extend_with_many_tap_pieces_is_bit_identical(tmp_path, monkeypatch, text):
    from foldrate import logdomain

    monkeypatch.setattr(logdomain, "_TAPS", 24)
    _steps_and_loads_are_bit_identical(tmp_path, parse_spec(text))


def _steps_and_loads_are_bit_identical(tmp_path, spec):
    # each extend call derives its mirrors from the ln rows, and a block
    # it stops inside is solved whole again by the next call; each n below
    # sits on, before or after a chunk start m = 2^(k-1) or, from m = 256
    # on, a start M of a block of 256 cells (M = 768: 767, 768, 769), or
    # inside a block (300, 383, 384, 385, 700, 1025)
    fresh = compute_sequence(spec, 1500, domain="log")
    stepped = SequenceTable(spec, domain="log")
    for n in (1, 2, 3, 4, 63, 64, 65, 127, 128, 129, 300, 383, 384, 385, 700, 767, 768,
              769, 1024, 1025, 1500):
        stepped.extend(n)
    # saved at n = 128, where the first cell after loading starts a chunk,
    # and at n = 300, inside block [256, 512)
    resumed = []
    for n in (128, 300):
        path = tmp_path / f"at{n}.seq"
        save_cache(compute_sequence(spec, n, domain="log"), str(path))
        resumed.append(load_cache(str(path), spec).extend(1500))
    want = _saved(fresh, tmp_path / "fresh.seq")
    for table in (stepped, *resumed):
        assert np.array_equal(table.ln_values(), fresh.ln_values())
        assert _saved(table, tmp_path / "other.seq") == want


def _sizing_t58(monkeypatch) -> int:
    """The index of the sys.getsizeof call that sizes t_58 when an exact
    MIX table at n = 40 extends to 80, counted on a dry run: each run
    also sizes every int held when it starts, and the recurrence found at
    the window 48 computes t_58."""
    table, real, sized = compute_sequence(MIX, 40, domain="exact"), sys.getsizeof, []
    with monkeypatch.context() as m:
        m.setattr(sys, "getsizeof", lambda v: sized.append(v) or real(v))
        table.extend(80)
    assert table.recurrence is not None and table.recurrence.window == 48
    return next(i for i, v in enumerate(sized) if v is table.cols[0][58])


@pytest.mark.parametrize("domain, module, name, call", [
    # chunk [32, 64)'s constants take 13 convolutions and its one block 10,
    # chunk [64, 128)'s constants 15; then block [64, 128) takes rank 2's
    # two, and rank 3's first fails
    ("log", np, "convolve", 13 + 10 + 15 + 2),
    # the engine runs to the window, 48: row m takes m + 1 products for
    # rank 3 and (m + 1) // 2 for each square, ranks 2 and 4, whose middle
    # term is no call; then rank 2's 23 in row 46, and rank 3's 24th
    # product fails
    ("exact", operator, "mul",
     sum(2 * ((m + 1) // 2) + m + 1 for m in range(40, 46)) + 23 + 23),
    # past the window, on MIX's recurrence: the call that sizes t_58, after
    # the switch, from a counted dry run
    pytest.param("exact", sys, "getsizeof", _sizing_t58, id="exact-sys-getsizeof-t58"),
])
def test_extend_cut_short_keeps_the_table_valid(tmp_path, monkeypatch, domain, module,
                                                name, call):
    # an error in row m = 46 after rank 2's cell, or in the run of the
    # recurrence at n = 58 or, in the log domain, inside block [64, 128)
    # after block [32, 64) was stored through m = 63, leaves the table at
    # n = 40 as a fresh run saves it; the next extend, which solves block
    # [32, 64) again, matches an uninterrupted run
    if callable(call):
        call = call(monkeypatch)
    table = compute_sequence(MIX, 40, domain=domain)
    calls, real = iter(range(10**6)), getattr(module, name)

    def failing(*args):
        if next(calls) == call:
            raise RuntimeError("cut short")
        return real(*args)

    monkeypatch.setattr(module, name, failing)
    with pytest.raises(RuntimeError):
        table.extend(80)
    monkeypatch.undo()
    assert table.n == 40
    at_40 = _saved(compute_sequence(MIX, 40, domain=domain), tmp_path / "b.seq")
    assert _saved(table, tmp_path / "a.seq") == at_40
    fresh = compute_sequence(MIX, 80, domain=domain)
    assert _saved(table.extend(80), tmp_path / "a.seq") == _saved(fresh, tmp_path / "b.seq")


@pytest.mark.parametrize("text, count", [
    ("sum 2 1", 2),                  # s and the rank-2 sum column
    (MIXED_EXAMPLE, 4),              # s, sum ranks 2..4; max folds are s
    ("sum 2 1\nmax 48 1", 2),        # s, one sum rank
])
def test_table_count_is_one_column_per_rank(text, count):
    for domain in ("exact", "log"):
        assert SequenceTable(parse_spec(text), domain=domain).table_count == count


def test_mix_needs_no_fallback_cells():
    assert compute_sequence(MIX, 4096, domain="log").fallback_cells == 0
    assert compute_sequence(MIX, 8, domain="exact").fallback_cells == 0


def _kernel_cells(table, cells):
    """Each (rank, m) cell of ``table`` against scalars.log_sum_vec of its
    stored inputs at 0..m and m..0: rank j/2 twice for an even rank j,
    else s and rank j - 1."""
    for j, m in cells:
        a, b = (j // 2, j // 2) if j % 2 == 0 else (1, j - 1)
        first, second = (np.array([table.sum_fold(i, x).ln_value for x in range(m + 1)])
                         for i in (a, b))
        want = log_sum_vec(first + second[::-1])
        assert np.isclose(table.sum_fold(j, m).ln_value, want, rtol=1e-12, atol=0.0), (j, m)


def test_out_of_window_cells_use_the_ln_kernel():
    # white-box: MIX reaches no fallback, so a spike is added to rank 2's
    # stored ln value at x = 5, and the table at n = 40 is extended
    # through blocks [32, 64) and [64, 128)
    def extended(spike, row=1):
        table = compute_sequence(MIX, 40, domain="log")
        table.data[row, 5] += spike
        return table.extend(80)

    clean = extended(0.0)
    assert clean.fallback_cells == 0
    _kernel_cells(clean, [(j, m) for m in range(40, 80) for j in (2, 3, 4)])
    # both blocks read the spiked entry, so every cell from the first new
    # one on is the ln kernel's, block by block: +1000 leaves the window,
    # -1000 underflows to 0, which only the window check sees, and +200
    # stays inside it but makes the solved values overflow
    read = [(j, m) for m in range(40, 80) for j in (2, 3, 4)]
    for spike in (1000.0, -1000.0, 200.0):
        spiked = extended(spike)
        assert spiked.fallback_cells == len(read), spike
        _kernel_cells(spiked, read)
        # rank 3 feeds no recipe (rank 4 squares rank 2), so it has no
        # mirror row and nothing reads its stored values: a spike there
        # changes no other value and causes no fallback
        unread = extended(spike, row=2)
        assert unread.fallback_cells == 0, spike
        assert np.array_equal(unread.ln_values(), clean.ln_values())
        assert np.array_equal(unread.data[[0, 1, 3], :80], clean.data[[0, 1, 3], :80])


# weights 10^200 and more apart: the weight factors e^-theta * w leave
# [e^-340, e^340], which only the solved values need to lie in
SPREAD = ["sum 2 1\nsum 3 1e-200", "sum 2 1e200\nsum 3 1", "sum 2 1e-300\nsum 5 1e300\nsum 3 1"]


@pytest.mark.parametrize("text", SPREAD)
def test_weights_far_apart_need_no_ln_kernel(text, monkeypatch):
    from foldrate import logdomain

    spec = parse_spec(text)
    assert compute_sequence(spec, 16384, domain="log").fallback_cells == 0
    # the exact table finds no recurrence for these weights, and its ints
    # grow by 200 to 300 digits per n: n stays at its first window, 48
    table = compute_sequence(spec, 4096, domain="log")
    want = compute_sequence(spec, 48, domain="exact").ln_values()
    assert np.allclose(table.ln_values()[:49], want, rtol=1e-12, atol=0.0)
    monkeypatch.setattr(logdomain._LogTable, "_block", lambda *args: False)
    kernel = compute_sequence(spec, 4096, domain="log")
    assert kernel.fallback_cells == (len(kernel.data) - 1) * 4095
    assert np.allclose(table.ln_values(), kernel.ln_values(), rtol=1e-12, atol=0.0)


def test_high_ranks_still_leave_the_window():
    # rank 1000 of a weight 10^-250 stays in the window through chunk
    # [128, 256) but leaves it at the chunk start m = 256, so cell 256 of
    # each of the 999 ranks is the ln kernel's
    table = compute_sequence(parse_spec("sum 2 1\nsum 1000 1e-250"), 256, domain="log")
    assert table.fallback_cells == 0
    table.extend(257)
    assert table.fallback_cells == 999
    _kernel_cells(table, [(j, 256) for j in (2, 3, 999, 1000)])


def test_an_entry_outside_the_window_sends_its_chunks_to_the_ln_kernel():
    # a spike at x = 560 of the table at n = 600 is derived into the mirror
    # at the call's start of chunk [512, 1024) and again at chunk
    # [1024, 2048), so every cell from the call's first new one is the ln
    # kernel's, also those of block [512, 768), which reads no index >= 512
    for spike in (1000.0, -1000.0):
        table = compute_sequence(MIX, 600, domain="log")
        table.data[1, 560] += spike
        table.extend(1100)
        assert table.fallback_cells == 3 * (1100 - 600), spike
        _kernel_cells(table, [(j, m) for m in range(600, 1100, 83) for j in (2, 3, 4)])


def test_duplicate_terms_merge_additively():
    a = compute_sequence(parse_spec("sum 2 1\nsum 2 1"), 16, domain="exact")
    b = compute_sequence(parse_spec("sum 2 2"), 16, domain="exact")
    assert [a.value(n).value for n in range(17)] == [b.value(n).value for n in range(17)]
    # equal-arity max terms share one weight on s, so they merge the same way
    c = compute_sequence(parse_spec("max 2 2\nmax 2 3"), 16, domain="exact")
    d = compute_sequence(parse_spec("max 2 5"), 16, domain="exact")
    assert [c.value(n).value for n in range(17)] == [d.value(n).value for n in range(17)]


@pytest.mark.parametrize("domain", ["exact", "log"])
def test_cache_round_trip(tmp_path, domain):
    path = str(tmp_path / f"schroeder.{domain}.seq")
    table = compute_sequence(SCHROEDER, 40, domain=domain)
    save_cache(table, path)
    back = load_cache(path, SCHROEDER)
    assert back.n == 40
    assert back.domain_name == domain
    if domain == "exact":
        assert [back.value(n).value for n in range(41)] == [
            table.value(n).value for n in range(41)
        ]
    else:
        assert np.array_equal(back.ln_values(), table.ln_values())

    # restored tables keep extending exactly like an uninterrupted run
    back.extend(80)
    fresh = compute_sequence(SCHROEDER, 80, domain=domain)
    if domain == "exact":
        assert back.value(80).value == fresh.value(80).value
        assert back.sum_fold(2, 79).value == fresh.sum_fold(2, 79).value
    else:
        assert np.array_equal(back.ln_values(), fresh.ln_values())


def test_exact_engine_cache_bytes_are_stable(tmp_path):
    # a spec with no recurrence under the cap stays on the engine and its
    # cache holds every rank; squaring the even ranks changes no stored
    # int, so the bytes, in the version 7 layout, are those of the engine
    # that folded s with each rank below
    spec = parse_spec("sum 2 1/2\nsum 6 1/3\nmax 3 2\nsum 5 1\nsum 7 1/5")
    path = tmp_path / "seven.seq"
    table = compute_sequence(spec, 110, domain="exact")
    assert table.recurrence is None
    save_cache(table, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "56570c7546e953e179de3f01c38d45872873fb6f5ed8f25241a11f380d5eb3d9"
    )


def test_exact_cache_bytes_are_stable(tmp_path):
    # digest of the version 7 layout, which stores each t_m = D^m s_m and,
    # past the window, the recurrence of order 2 and degree 1 in place of
    # the fold records
    spec = parse_spec("sum 2 1/2\nmax 3 2/3\nsum 1 5/7")
    path = tmp_path / "frac.seq"
    table = compute_sequence(spec, 60, domain="exact")
    assert [len(table.recurrence.coeffs), len(table.recurrence.coeffs[0])] == [3, 2]
    save_cache(table, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "1d0a0e48d20e59936142ec6581024ae212b31056a2212badb6081332ef5a612a"
    )
    # the reloaded Fractions, as printed when the cache still held max records
    back = load_cache(str(path), spec)
    text = " ".join(str(back.value(n).value) for n in range(61))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "496df84654ea08e8e73ce2d408486124563a69f5c3bd49fbe44819e3a4b4a201"
    )


def _exact_cache(spec, s_values, fold_values) -> bytes:
    """A version 7 exact cache on the engine for a spec with a single
    rank-2 sum table, from the integers t_m it stores."""
    body = (b"FRSQ" + struct.pack("<H", 7) + spec.digest()
            + struct.pack("<BQB", 0, len(s_values) - 1, 0)
            + b"".join(map(cache_int, s_values + fold_values)))
    return body + struct.pack("<I", zlib.crc32(body))


def test_exact_cache_is_read_as_the_layout_documents(tmp_path):
    # sum 2 1/2 has D = 2 and t = 1, 1, 2, 5, 14, 42: the Catalan numbers,
    # as s_m = C_m / 2^m; the fold cells at 0..2 are t's self-convolution
    spec = parse_spec("sum 2 1/2")
    path = tmp_path / "half.seq"
    path.write_bytes(_exact_cache(spec, [1, 1, 2, 5], [1, 2, 5]))
    back = load_cache(str(path), spec)
    assert [back.value(n).value for n in range(4)] == [1, Fraction(1, 2), Fraction(1, 2),
                                                       Fraction(5, 8)]
    assert back.sum_fold(2, 2).value == Fraction(5, 4)
    fresh = compute_sequence(spec, 5, domain="exact")
    assert back.extend(5).value(5).value == fresh.value(5).value == Fraction(42, 32)
    assert _saved(back, tmp_path / "a.seq") == _saved(fresh, tmp_path / "b.seq")


def test_merged_max_weights_keep_the_cache_scale(tmp_path):
    # the max weights merge into the arity-1 weight, 1/2 + 1/2 = 1, but the
    # cache still stores t_m = 2^m s_m, as before the merge: s = 1, 2, 6, 22
    spec = parse_spec("sum 2 1\nmax 3 1/2\nmax 4 1/2")
    path = tmp_path / "merged.seq"
    save_cache(compute_sequence(spec, 3, domain="exact"), str(path))
    assert path.read_bytes() == _exact_cache(spec, [1, 4, 24, 176], [1, 8, 64])


def test_failed_cache_write_names_the_file_and_cleans_up(tmp_path, monkeypatch):
    path = tmp_path / "cat.seq"
    table = compute_sequence(CATALAN, 10, domain="exact")
    with pytest.raises(FileNotFoundError) as info:
        save_cache(table, str(tmp_path / "missing" / "cat.seq"))
    assert info.value.filename == str(tmp_path / "missing" / "cat.seq")

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", src, dst)

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PermissionError) as info:
        save_cache(table, str(path))
    assert info.value.filename == str(path)
    assert list(tmp_path.iterdir()) == []


def test_cache_rejects_other_spec(tmp_path):
    path = str(tmp_path / "cat.seq")
    save_cache(compute_sequence(CATALAN, 10, domain="exact"), path)
    with pytest.raises(CacheMismatchError):
        load_cache(path, SCHROEDER)


def test_cache_rejects_garbage(tmp_path):
    path = tmp_path / "junk.seq"
    path.write_bytes(b"hello, definitely not a cache")
    with pytest.raises(CacheCorruptError):
        load_cache(str(path), CATALAN)


def test_cache_rejects_flipped_byte(tmp_path):
    path = tmp_path / "cat.seq"
    save_cache(compute_sequence(CATALAN, 10, domain="log"), str(path))
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CacheCorruptError):
        load_cache(str(path), CATALAN)


def test_cache_rejects_truncation(tmp_path):
    path = tmp_path / "cat.seq"
    save_cache(compute_sequence(CATALAN, 10, domain="log"), str(path))
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises(CacheCorruptError):
        load_cache(str(path), CATALAN)


def test_cache_rejects_unknown_version(tmp_path):
    path = tmp_path / "cat.seq"
    save_cache(compute_sequence(CATALAN, 10, domain="log"), str(path))
    data = bytearray(path.read_bytes())
    struct.pack_into("<H", data, 4, 999)  # version lives after the 4-byte magic
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(bytes(data[:-4])))
    path.write_bytes(bytes(data))
    with pytest.raises(CacheCorruptError):
        load_cache(str(path), CATALAN)


def test_cache_rejects_unknown_domain_tag(tmp_path):
    path = tmp_path / "cat.seq"
    save_cache(compute_sequence(CATALAN, 10, domain="exact"), str(path))
    data = bytearray(path.read_bytes())
    struct.pack_into("<B", data, 38, 2)  # the tag follows magic, version and digest
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(bytes(data[:-4])))
    path.write_bytes(bytes(data))
    with pytest.raises(CacheCorruptError, match="unknown domain tag 2"):
        load_cache(str(path), CATALAN)


def test_cache_overwrite_takes_latest(tmp_path):
    path = str(tmp_path / "cat.seq")
    save_cache(compute_sequence(CATALAN, 5, domain="exact"), path)
    save_cache(compute_sequence(CATALAN, 9, domain="exact"), path)
    assert load_cache(path, CATALAN).n == 9


def test_zero_length_table():
    table = compute_sequence(CATALAN, 0, domain="exact")
    assert table.n == 0
    assert table.value(0).value == 1
