"""Exact tables on a proved recurrence: search, proof, run and persistence."""

import hashlib
import math
import random
import struct
import sys
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foldrate import (
    CacheCorruptError,
    MemoryBudgetError,
    SequenceTable,
    compute_sequence,
    load_cache,
    parse_spec,
    save_cache,
)
from foldrate import engine, holonomic
from foldrate.cli import EXIT_USAGE, main
from helpers import MIXED_EXAMPLE, cache_int, proved_by_lists, random_spec

MIX = parse_spec(MIXED_EXAMPLE)


def _engine_table(monkeypatch, spec, n):
    """The table the engine alone computes: the search finds nothing."""
    with monkeypatch.context() as m:
        m.setattr(holonomic, "find", lambda *args: None)
        return compute_sequence(spec, n, domain="exact")


def _values(table):
    return [table.value(n).value for n in range(table.n + 1)]


def test_recurrence_matches_the_engine_on_random_specs(monkeypatch):
    rng = random.Random(11)
    specs = [random_spec(rng, max_terms=3, max_arity=4, kind=rng.choice(("mixed", "sum")))
             for _ in range(20)]
    assert sum(spec.merged_weights()[1] > 1 for spec in specs) >= 10
    assert sum(any(t.op.value == "max" for t in spec.terms) for spec in specs) >= 5
    for spec in specs:
        table = compute_sequence(spec, 300, domain="exact")
        assert table.recurrence is not None, spec.render()
        assert _values(table) == _values(_engine_table(monkeypatch, spec, 300)), spec.render()


def test_mix_recurrence_has_order_5_and_degree_4():
    rec = compute_sequence(MIX, 60, domain="exact").recurrence
    assert (len(rec.coeffs), len(rec.coeffs[0]), rec.window) == (6, 5, 48)
    assert max(abs(c) for p in rec.coeffs for c in p).bit_length() <= 96


def test_perturbed_recurrence_fails_the_proof(monkeypatch):
    # each coefficient, or each t_i with i < r, moved by one; the
    # polynomial products of tests/helpers.py agree
    table = compute_sequence(MIX, 60, domain="exact")
    rec, t = table.recurrence, table.cols[0]
    assert holonomic.proved(rec.coeffs, t, MIX)
    assert proved_by_lists(rec.coeffs, t, MIX)
    for i, p in enumerate(rec.coeffs):
        for j in range(len(p)):
            for delta in (-1, 1):
                coeffs = [list(q) for q in rec.coeffs]
                coeffs[i][j] += delta
                assert not holonomic.proved(coeffs, t, MIX), (i, j, delta)
                assert not proved_by_lists(coeffs, t, MIX), (i, j, delta)
    for i in range(len(rec.coeffs) - 1):
        for delta in (-1, 1):
            moved = list(t)
            moved[i] += delta
            assert not holonomic.proved(rec.coeffs, moved, MIX), (i, delta)
            assert not proved_by_lists(rec.coeffs, moved, MIX), (i, delta)
    # a recurrence that fails its proof is not used: the table stays on the engine
    reference = _values(compute_sequence(MIX, 120, domain="exact"))
    monkeypatch.setattr(holonomic, "proved", lambda *args: False)
    fallback = compute_sequence(MIX, 120, domain="exact")
    assert fallback.recurrence is None and len(fallback.cols) == 4
    assert _values(fallback) == reference


def test_the_proof_at_one_point_agrees_with_the_polynomial_products():
    # proved evaluates the identity at y = 2^K; the reference builds it
    # coefficient by coefficient.  The relations found for 56 random specs
    # hold, and each fails with its last coefficient moved by one
    rng = random.Random(18)
    found = 0
    for _ in range(56):
        spec = random_spec(rng, max_terms=3, max_arity=4, kind=rng.choice(("mixed", "sum")))
        table = compute_sequence(spec, 49, domain="exact")
        if table.recurrence is None:
            continue
        found += 1
        rec, t = table.recurrence, table.cols[0]
        moved = [list(p) for p in rec.coeffs]
        moved[-1][-1] += 1
        for coeffs, want in ((rec.coeffs, True), (moved, False)):
            assert holonomic.proved(coeffs, t, spec) is want, spec.render()
            assert proved_by_lists(coeffs, t, spec) is want, spec.render()
    assert found >= 50


class _P(tuple):
    """A stand-in spec: P(y) = sum_a w_a y^a with w_1, w_2, ... the items
    and D = 1, as RecurrenceSpec.merged_weights gives them, but with
    coefficients that no spec's weights give."""

    def merged_weights(self):
        return {a: Fraction(w) for a, w in enumerate(self, 1)}, 1


def test_the_proof_point_is_past_every_root_it_could_hit():
    # left sides that are not zero but vanish at y = 2^k: a proof point
    # Y = 2^K with K too small for the bound W would meet that root for
    # some k.  With P = y, B = 1 and N_1 = y(y - 1), the relation
    # (m n + m - m 2^k) t_n = 0 of order 0 has the left side m y (y - 2^k).
    # With P = y (y - 2^k), the relation c t_n + 0 t_{n-1} = 0 of order 1
    # has c (y - 1) P, whose bound W carries the factor ||P|| = 2^k + 1.
    cases = [(((m - m * 2 ** k, m),), [1], _P((1,)))
             for k in range(80) for m in (1, 5, 1000)]
    cases += [(((2 ** j,), (0,)), [1], _P((-(2 ** k), 1)))
              for k in range(64) for j in range(k)]
    for case in cases:
        assert not holonomic.proved(*case), case
        assert not proved_by_lists(*case), case


def _times(coeffs, a):
    """The coefficients of (R) times (n - a): a recurrence of one degree
    more, proved wherever (R) is, whose p_0 vanishes at n = a."""
    return tuple(tuple(b - a * c for c, b in zip(p + (0,), (0,) + p)) for p in coeffs)


def test_the_step_maps_n_to_t_n(monkeypatch):
    # from t_{n-r}..t_{n-1} of the engine's table: t_n from the order on,
    # and ArithmeticError at a root of p_0 or where p_0(n) does not divide
    # what the stored values give
    t = _engine_table(monkeypatch, MIX, 200).cols[0]
    rec = compute_sequence(MIX, 60, domain="exact").recurrence
    step = rec.step(t)
    r = len(rec.coeffs) - 1
    assert [step(n) for n in range(r, 201)] == t[r:]
    at_root = holonomic.Recurrence(_times(rec.coeffs, 150), 48).step(t)
    with pytest.raises(ArithmeticError):
        at_root(150)
    assert at_root(151) == t[151]
    with pytest.raises(ArithmeticError, match="t_101 is not an integer"):
        rec.step(t[:100] + [t[100] + 1])(101)


@pytest.mark.parametrize("a, accepted", [(40, True), (48, True), (49, False), (150, False)])
def test_the_rule_refuses_a_root_of_p0_past_the_window(monkeypatch, a, accepted):
    # MIX's relation times (n - a) is proved wherever MIX's is, but holds
    # accepts it at W = 48 only where a <= 48: a table runs (R) at n > W
    t = _engine_table(monkeypatch, MIX, 48).cols[0]
    rec = holonomic.find(t, MIX)
    times = holonomic.Recurrence(_times(rec.coeffs, a), 48)
    assert holonomic.proved(times.coeffs, t, MIX)
    assert times.holds(t, MIX) is accepted


def test_a_table_runs_on_a_relation_with_a_root_inside_the_window(monkeypatch):
    # the multiple by (n - 40), accepted, runs from 49 on as MIX's does
    want = _values(_engine_table(monkeypatch, MIX, 300))
    rec = compute_sequence(MIX, 60, domain="exact").recurrence
    times = holonomic.Recurrence(_times(rec.coeffs, 40), rec.window)
    monkeypatch.setattr(holonomic, "find",
                        lambda t, spec: times if times.holds(t, spec) else None)
    table = compute_sequence(MIX, 300, domain="exact")
    assert table.recurrence == times
    assert _values(table) == want


def _stop(table, n):
    """(n, nbytes) where ``table.extend(n)`` stops under the budget."""
    with pytest.raises(MemoryBudgetError):
        table.extend(n)
    return table.n, table.nbytes


def test_a_fold_read_does_not_shorten_a_later_extend(monkeypatch):
    # the ranks a fold read rebuilds are emptied when the next extend
    # starts, so it stops where a table with no read stops
    read, plain = (compute_sequence(MIX, 1024, domain="exact") for _ in range(2))
    read.sum_fold(4, 1023)
    assert read.nbytes > 3 * plain.nbytes
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", 2_000_000)
    assert _stop(read, 10**5) == _stop(plain, 10**5)
    assert plain.n > 2000


def test_a_call_cut_short_after_its_switch_rebuilds_the_engine_ranks(tmp_path, monkeypatch):
    # the switch to the recurrence empties the ranks; the first byte count
    # after it fails, and the table goes back to the engine at n = 40 with
    # its ranks rebuilt from s, as a fresh run saves it
    table = compute_sequence(MIX, 40, domain="exact")
    real_find, real_size, switched = holonomic.find, sys.getsizeof, []

    def find(*args):
        switched.append(True)
        return real_find(*args)

    def getsizeof(v):
        if switched and switched.pop():
            raise RuntimeError("cut short")
        return real_size(v)

    monkeypatch.setattr(holonomic, "find", find)
    monkeypatch.setattr(sys, "getsizeof", getsizeof)
    with pytest.raises(RuntimeError):
        table.extend(80)
    monkeypatch.undo()
    assert (table.n, table.recurrence) == (40, None)
    assert all(len(col) == 40 for col in table.cols[1:])
    paths = [str(tmp_path / f"{i}.seq") for i in range(2)]
    save_cache(table, paths[0])
    save_cache(compute_sequence(MIX, 40, domain="exact"), paths[1])
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()
    assert _values(table.extend(80)) == _values(compute_sequence(MIX, 80, domain="exact"))


@pytest.mark.parametrize("text", [MIXED_EXAMPLE, "sum 2 1/2\nmax 3 2/3\nsum 1 5/7",
                                  "sum 5 1\nsum 2 3"])
def test_stepped_resumed_and_one_shot_tables_are_identical(tmp_path, text):
    # the last spec's recurrence is found at the second window, 104
    spec = parse_spec(text)
    fresh = compute_sequence(spec, 300, domain="exact")
    want = tmp_path / "fresh.seq"
    save_cache(fresh, str(want))
    stepped = SequenceTable(spec, domain="exact")
    for n in (3, 47, 48, 49, 100, 104, 105, 300):
        stepped.extend(n)
    tables = [stepped]
    for n in (40, 48, 60, 104, 200):
        path = str(tmp_path / f"at{n}.seq")
        save_cache(compute_sequence(spec, n, domain="exact"), path)
        tables.append(load_cache(path, spec).extend(300))
    for table in tables:
        assert table.recurrence == fresh.recurrence
        assert _values(table) == _values(fresh)
        assert table.sum_fold(2, 299) == fresh.sum_fold(2, 299)
        save_cache(table, str(tmp_path / "other.seq"))
        assert (tmp_path / "other.seq").read_bytes() == want.read_bytes()


def test_fold_cells_of_a_table_on_a_recurrence_come_from_the_engine(monkeypatch):
    table = compute_sequence(MIX, 120, domain="exact")
    assert table.recurrence is not None
    engine = _engine_table(monkeypatch, MIX, 120)
    for j in (2, 3, 4):
        assert [table.sum_fold(j, m) for m in range(120)] == [
            engine.sum_fold(j, m) for m in range(120)]
    with pytest.raises(IndexError):
        table.sum_fold(4, 120)


def test_fold_cell_reads_on_a_recurrence_are_counted_or_refused(tmp_path, monkeypatch):
    # the ranks that sum_fold fills from s are counted while the table
    # holds them, and a read whose bound on them passes the budget is
    # refused with nothing filled; the cache holds s alone either way
    tables = [compute_sequence(MIX, 1024, domain="exact") for _ in range(2)]
    table, held = tables[0], tables[0].nbytes
    assert table.recurrence is not None and not any(table.cols[1:])
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", held + 1000)
    with pytest.raises(MemoryBudgetError):
        table.sum_fold(4, 1023)
    assert table.nbytes == held and not any(table.cols[1:])
    monkeypatch.undo()
    table.sum_fold(4, 1023)
    assert table.nbytes == sum(sum(map(sys.getsizeof, col)) for col in table.cols) > 3 * held
    for i, t in enumerate(tables):
        save_cache(t, str(tmp_path / f"{i}.seq"))
    assert (tmp_path / "0.seq").read_bytes() == (tmp_path / "1.seq").read_bytes()


def test_load_reproves_the_recurrence(tmp_path):
    # the coefficient bytes are rewritten with a valid checksum: the proof,
    # not the checksum, refuses them
    path = tmp_path / "mix.seq"
    save_cache(compute_sequence(MIX, 60, domain="exact"), str(path))
    data = bytearray(path.read_bytes())
    at = 4 + 2 + 32 + 10 + 3 * 9  # header, r, e and W, then the first coefficient's length
    assert struct.unpack_from("<Q", data, at)[0] >= 1
    data[at + 8] ^= 1
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(bytes(data[:-4])))
    path.write_bytes(bytes(data))
    with pytest.raises(CacheCorruptError, match="does not hold"):
        load_cache(str(path), MIX)


def _recurrence_cache(spec, t, coeffs, window) -> bytes:
    """A version 7 exact cache at n = len(t) - 1 on the recurrence with
    these coefficients, laid out as the holonomic docstring's "Persist."
    paragraph gives the record."""
    ints = [len(coeffs) - 1, len(coeffs[0]) - 1, window, *(c for p in coeffs for c in p), *t]
    body = (b"FRSQ" + struct.pack("<H", 7) + spec.digest()
            + struct.pack("<BQB", 0, len(t) - 1, 1) + b"".join(map(cache_int, ints)))
    return body + struct.pack("<I", zlib.crc32(body))


def _no_proof(monkeypatch):
    def proved(*args):
        pytest.fail("a record the search could not have written reached the proof")

    monkeypatch.setattr(holonomic, "proved", proved)


def test_load_refuses_a_record_for_a_spec_the_search_never_takes(tmp_path, monkeypatch):
    # sum 1000 1 has deg P = 1000, which has no shape at either window:
    # a record with a valid checksum is refused before any proof, whatever
    # its degree (a proof at degree 7 took seconds)
    spec = parse_spec("sum 1000 1")
    _no_proof(monkeypatch)
    path = tmp_path / "wide.seq"
    for e, window in ((0, 48), (2, 48), (7, 104), (63, 104)):
        coeffs = [[1] + [0] * e, [-1] + [0] * e]
        path.write_bytes(_recurrence_cache(spec, [1] * 121, coeffs, window))
        with pytest.raises(CacheCorruptError, match="out of range"):
            load_cache(str(path), spec)


@pytest.mark.parametrize("r, e, admitted", [(6, 4, True), (7, 4, False), (5, 5, False)])
def test_load_admits_only_the_shape_the_search_takes(tmp_path, monkeypatch, r, e, admitted):
    # at the window 48 MIX (deg P = 4) is searched at degree 4 with up to
    # R = min(64 // 5, (48 + 2 - 8) // 6) - 1 = 6 shifts: its recurrence of
    # order 5, padded with zeros to order R, loads and runs; one shift or
    # one degree more is refused before any proof
    table = compute_sequence(MIX, 60, domain="exact")
    rec = table.recurrence
    coeffs = [list(p) + [0] * (e + 1 - len(p)) for p in rec.coeffs]
    coeffs += [[0] * (e + 1)] * (r + 1 - len(coeffs))
    path = tmp_path / "mix.seq"
    path.write_bytes(_recurrence_cache(MIX, table.cols[0], coeffs, rec.window))
    if admitted:
        back = load_cache(str(path), MIX)
        assert _values(back.extend(120)) == _values(compute_sequence(MIX, 120, domain="exact"))
        return
    _no_proof(monkeypatch)
    with pytest.raises(CacheCorruptError, match="out of range"):
        load_cache(str(path), MIX)


@pytest.mark.parametrize("window, n, admitted", [(47, 60, False), (49, 60, False),
                                                 (104, 60, False), (104, 120, True)])
def test_load_admits_only_a_window_the_search_takes(tmp_path, monkeypatch, window, n, admitted):
    # MIX's relation recorded at a window not in engine.WINDOWS, or at one
    # past the table's n, is refused before any proof; at 104 in a table
    # at 120 it is proved and runs
    table = compute_sequence(MIX, n, domain="exact")
    path = tmp_path / "mix.seq"
    path.write_bytes(_recurrence_cache(MIX, table.cols[0], table.recurrence.coeffs, window))
    if admitted:
        back = load_cache(str(path), MIX)
        assert back.recurrence == holonomic.Recurrence(table.recurrence.coeffs, window)
        assert _values(back.extend(200)) == _values(compute_sequence(MIX, 200, domain="exact"))
        return
    _no_proof(monkeypatch)
    with pytest.raises(CacheCorruptError, match="out of range"):
        load_cache(str(path), MIX)


def test_load_refuses_a_negative_degree(tmp_path, monkeypatch):
    # the record's ints are signed: a degree of -1, no coefficient per
    # p_i, is refused before any proof
    table = compute_sequence(MIX, 60, domain="exact")
    path = tmp_path / "mix.seq"
    path.write_bytes(_recurrence_cache(MIX, table.cols[0], [[]] * 6, 48))
    _no_proof(monkeypatch)
    with pytest.raises(CacheCorruptError, match="out of range"):
        load_cache(str(path), MIX)


@pytest.mark.parametrize("bits, proved", [(248 * holonomic.CAP, True),
                                          (248 * holonomic.CAP + 1, False),
                                          (8 * 10**4 + 1, False)])
def test_load_bounds_a_coefficient_before_its_proof(tmp_path, monkeypatch, bits, proved):
    # find builds no coefficient past 248 CAP bits (holonomic docstring,
    # "Persist."): MIX's relation with p_0's constant coefficient set to
    # 2^(bits - 1) reaches the proof, which refuses it, at that bound, and
    # past it is refused before the proof (2^(8 10^4) cost about half a
    # second of proof when no bound held)
    table = compute_sequence(MIX, 60, domain="exact")
    rec = table.recurrence
    coeffs = [list(p) for p in rec.coeffs]
    coeffs[0][0] = 1 << (bits - 1)
    path = tmp_path / "mix.seq"
    path.write_bytes(_recurrence_cache(MIX, table.cols[0], coeffs, rec.window))
    if not proved:
        _no_proof(monkeypatch)
    with pytest.raises(CacheCorruptError, match="does not hold" if proved else "out of range"):
        load_cache(str(path), MIX)


def test_load_refuses_a_root_of_p0_past_the_window(tmp_path, capsys, monkeypatch):
    # MIX's relation times (n - 150), admitted by the shape of a P one
    # degree higher, is proved but fails the rule Recurrence.holds applies
    # to find and load alike; eval --cache reports it on one line, exit 2
    table = compute_sequence(MIX, 60, domain="exact")
    rec = table.recurrence
    path = tmp_path / "mix.seq"
    path.write_bytes(_recurrence_cache(MIX, table.cols[0], _times(rec.coeffs, 150), rec.window))
    real_shape = holonomic._shape
    monkeypatch.setattr(holonomic, "_shape", lambda d, window: real_shape(d + 1, window))
    with pytest.raises(CacheCorruptError, match="does not hold"):
        load_cache(str(path), MIX)
    code = main(["eval", "--spec-text", MIXED_EXAMPLE, "--domain", "exact", "--n", "60",
                 "--cache", str(path)])
    assert (code, *capsys.readouterr()) == (
        EXIT_USAGE, "", "error: the cached recurrence does not hold for this spec\n")


def test_load_refuses_a_recurrence_the_engine_could_not_reach(tmp_path, monkeypatch):
    # a budget that holds s through n = 60 but not the engine's four
    # columns before its last step to the window 48: extend stops before
    # the window, and a table on the recurrence at 60 is refused
    table = compute_sequence(MIX, 60, domain="exact")
    limit = sum(map(sys.getsizeof, table.cols[0])) + 64
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", limit)
    short = SequenceTable(MIX, domain="exact")
    with pytest.raises(MemoryBudgetError):
        short.extend(60)
    assert short.n < 48 and short.recurrence is None
    path = str(tmp_path / "mix.seq")
    save_cache(table, path)
    with pytest.raises(MemoryBudgetError):
        load_cache(path, MIX)
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", 4 * limit)
    assert load_cache(path, MIX).n == 60


def test_memory_budget_stops_on_the_recurrence_and_the_load_agrees(tmp_path, monkeypatch):
    # past the window only s is stored, so the same budget reaches further
    # than on the engine; a table saved where it stopped loads under it,
    # one step more does not
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", 40_000)
    table = SequenceTable(MIX, domain="exact")
    with pytest.raises(MemoryBudgetError):
        table.extend(10_000)
    assert table.recurrence is not None and table.n > 48
    assert table.value(table.n) == compute_sequence(MIX, table.n, domain="exact").value(table.n)
    path = str(tmp_path / "mix.seq")
    save_cache(table, path)
    assert load_cache(path, MIX).n == table.n
    monkeypatch.undo()
    save_cache(compute_sequence(MIX, table.n + 1, domain="exact"), path)
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", 40_000)
    with pytest.raises(MemoryBudgetError):
        load_cache(path, MIX)


def test_specs_over_the_cap_stay_on_the_engine(monkeypatch):
    # sum 40 1 has order 1 but degree 39: 80 unknowns; the mixed spec of
    # degree 6 has none within 64 unknowns
    for text in ("sum 40 1", "sum 6 1\nsum 2 1"):
        spec = parse_spec(text)
        table = compute_sequence(spec, 110, domain="exact")
        assert table.recurrence is None, text
        assert _values(table) == _values(_engine_table(monkeypatch, spec, 110))


_EVERY_PRIME = math.prod(holonomic._PRIMES)


@pytest.mark.parametrize("text, found", [
    ("sum 2 2097143", True),                          # 21-bit primes, none of _PRIMES
    ("sum 2 2097143\nsum 3 1", True),
    ("sum 2 2147483647\nsum 3 2147483629", True),     # the first two primes
    ("sum 2 2097143\nsum 3 2097133\nsum 1 2097131", True),
    pytest.param(f"sum 2 {_EVERY_PRIME}\nsum 3 {_EVERY_PRIME}", False, id="every prime"),
])
def test_weights_that_a_prime_divides(monkeypatch, text, found):
    # a prime dividing a weight of P can make the columns vanish or drop
    # rank mod that prime; the search and the lift take only the others,
    # and with no prime left the table stays on the engine
    spec = parse_spec(text)
    table = compute_sequence(spec, 120, domain="exact")
    assert (table.recurrence is not None) == found
    assert _values(table) == _values(_engine_table(monkeypatch, spec, 120))


def test_sum_32_1_is_searched_at_degree_31(monkeypatch):
    # e = d - 1 with 64 unknowns, exactly CAP; its proof evaluates the N_k,
    # of degree up to about 2000, at y = 2^K
    spec = parse_spec("sum 32 1")
    table = compute_sequence(spec, 120, domain="exact")
    rec = table.recurrence
    assert (len(rec.coeffs) - 1, len(rec.coeffs[0]) - 1, rec.window) == (1, 31, 104)
    assert len(rec.coeffs) * len(rec.coeffs[0]) == holonomic.CAP
    assert _values(table) == _values(_engine_table(monkeypatch, spec, 120))


def test_the_search_finds_the_pinned_relations(monkeypatch):
    # 246 searches on the engine's t_0..t_W at both windows: which relation
    # each finds, or None, is pinned (178 find one), each relation hashed
    # as (coeffs, r, W)
    rng = random.Random(7)
    specs = [parse_spec(text) for text in (MIXED_EXAMPLE, "sum 5 1\nsum 2 3",
                                           "sum 2 1/2\nmax 3 2/3\nsum 1 5/7")]
    specs += [random_spec(rng, max_terms=4, max_arity=6,
                          kind=rng.choice(("mixed", "sum", "max"))) for _ in range(120)]
    tables = [_engine_table(monkeypatch, spec, 104) for spec in specs]
    found = [(holonomic.find(table.cols[0][: w + 1], table.spec), table, w)
             for table in tables for w in (48, 104)]
    for rec, table, w in found:
        # each relation found is at the window it was given and passes the rule
        assert rec is None or (rec.window == w
                               and rec.holds(table.cols[0], table.spec)), table.spec.render()
    found = [rec and (rec.coeffs, len(rec.coeffs) - 1, rec.window) for rec, _, _ in found]
    assert (len(found), sum(rec is not None for rec in found)) == (246, 178)
    assert hashlib.sha256(repr(found).encode()).hexdigest() == (
        "331c5bfe3138cb69a2e41ccac051e0d3b41d4c92a3ff2b06b67967ffdd4e305b")


def _counted_residuals(monkeypatch):
    calls = []
    real = holonomic._residual
    monkeypatch.setattr(holonomic, "_residual",
                        lambda coeffs, t, n: calls.append(n) or real(coeffs, t, n))
    return calls


def test_the_search_proves_from_the_order_before_it_scans(monkeypatch):
    # MIX's relation holds from r = 5: find reads the residual at W, then
    # the proof reads q_0..q_{r-1}, and no other row is read
    t = _engine_table(monkeypatch, MIX, 48).cols[0]
    calls = _counted_residuals(monkeypatch)
    rec = holonomic.find(t, MIX)
    r = len(rec.coeffs) - 1
    assert r == 5
    assert calls == [48] + list(range(r))


def test_a_relation_refused_at_its_order_is_not_scanned(monkeypatch):
    # with the proof from r refused, find tries no other start: it returns
    # None, having read the residual at W alone, once per batch
    t = _engine_table(monkeypatch, MIX, 48).cols[0]
    monkeypatch.setattr(holonomic, "proved", lambda coeffs, t, spec: False)
    calls = _counted_residuals(monkeypatch)
    assert holonomic.find(t, MIX) is None
    assert calls and set(calls) == {48}


def _reference_eliminate(M, primes):
    """_eliminate on Python ints: the same pivot rule and the same entries
    touched by the forward elimination, each reduced mod its prime."""
    X = [[[x % p for x in row] for row in M] for p in primes]
    order, ok = list(range(len(M))), [True] * len(primes)
    for k in range(len(M[0])):
        j = next((i for i in range(k, len(M)) if X[0][i][k]), None)
        if j is None:
            return k, order[:k], ok, X
        order[k], order[j] = order[j], order[k]
        for m, (A, p) in enumerate(zip(X, primes)):
            A[k], A[j] = A[j], A[k]
            ok[m] = ok[m] and A[k][k] != 0
            inv = pow(A[k][k], -1, p) if A[k][k] else 0
            A[k][k:] = [x * inv % p for x in A[k][k:]]
            for row in A[k + 1 :]:
                f = row[k]
                row[k + 1 :] = [(x - f * y) % p for x, y in zip(row[k + 1 :], A[k][k + 1 :])]
    return None, order, ok, X


@given(rows=st.integers(1, holonomic.CAP + holonomic._MARGIN), cols=st.integers(1, holonomic.CAP),
       seed=st.integers(0, 2**32), planted=st.integers(0, 3), vanish=st.booleans())
@example(rows=72, cols=64, seed=1, planted=1, vanish=True)
@example(rows=72, cols=64, seed=2, planted=0, vanish=False)
@example(rows=50, cols=30, seed=4, planted=2, vanish=False)
@example(rows=40, cols=41, seed=3, planted=0, vanish=True)
@settings(max_examples=25, deadline=None)
def test_eliminate_matches_a_python_reference(rows, cols, seed, planted, vanish):
    # residues near 2^31 mod the first two primes, up to the CAP + _MARGIN
    # by CAP search block; planted columns are combinations of the ones
    # before them mod both primes, and with vanish the first pivot is
    # nonzero mod the first prime but zero mod the second.  The forward
    # elimination matches the reference entry by entry, and the lift's
    # back-substitution, _back, gives the planted combination
    primes = holonomic._PRIMES[:2]
    modulus = primes[0] * primes[1]
    rng = random.Random(seed)
    M = [[rng.randrange(modulus) for _ in range(cols)] for _ in range(rows)]
    if vanish:
        M[0][0] = primes[1] * rng.randrange(1, primes[0])
    combos = {}
    for c in sorted(rng.randrange(1, cols) for _ in range(planted if cols > 1 else 0)):
        combos[c] = [rng.randrange(modulus) for _ in range(c)]
        for row in M:
            row[c] = sum(a * x for a, x in zip(combos[c], row)) % modulus
    X = np.array([[[x % p for x in row] for row in M] for p in primes], dtype=np.int64)
    k, pivots, ok = holonomic._eliminate(X, primes)
    want_k, want_pivots, want_ok, want_X = _reference_eliminate(M, primes)
    assert (k, pivots, ok) == (want_k, want_pivots, want_ok)
    assert X.tolist() == want_X
    assert not vanish or ok == [True, False]
    if combos:
        assert k is not None and k <= min(combos)
    if k is not None:
        # each prime with every pivot nonzero solves for column k on the
        # pivot rows, uniquely: at a planted column, its combination
        for p, good, x in zip(primes, ok, holonomic._back(X, primes, k)):
            if good:
                for i in pivots:
                    assert (sum(a * M[i][c] for c, a in enumerate(x)) - M[i][k]) % p == 0
                assert k not in combos or x == [a % p for a in combos[k]]


# odd moduli: a product of search primes, and small primes checked exhaustively
_MODULI = [math.prod(holonomic._PRIMES[:k]) for k in (1, 2, 8, 16)]


@given(m=st.sampled_from(_MODULI), data=st.data())
@settings(max_examples=200, deadline=None)
def test_ratrec_recovers_a_fraction_inside_its_bound(m, data):
    # (u, v) with |u|, 0 < v <= isqrt(m/2) and v a unit mod m comes back
    # from u v^-1 mod m, as the fraction u/v in lowest terms
    bound = math.isqrt(m // 2)
    u = data.draw(st.integers(-bound, bound))
    v = data.draw(st.integers(1, bound).filter(lambda v: math.gcd(v, m) == 1))
    g = math.gcd(u, v)
    assert holonomic._ratrec(u * pow(v, -1, m) % m, m) == (u // g, v // g)


@pytest.mark.parametrize("m", [101, 211, 1009])
def test_ratrec_returns_none_where_no_fraction_fits(m):
    # every residue mod a small prime: a pair inside the bound comes back
    # exactly where one exists, and None elsewhere
    bound = math.isqrt(m // 2)
    fits = {u * pow(v, -1, m) % m for u in range(-bound, bound + 1) for v in range(1, bound + 1)}
    assert len(fits) < m
    for a in range(m):
        rr = holonomic._ratrec(a, m)
        assert (rr is not None) == (a in fits)
        if rr:
            u, v = rr
            assert abs(u) <= bound and 0 < v <= bound and (u - a * v) % m == 0


@given(p=st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=9),
       c=st.integers(-10**6, 10**6), x=st.integers(-10**6, 10**6))
@settings(max_examples=200, deadline=None)
def test_shift_expands_p_at_x_plus_c(p, c, x):
    shifted = holonomic._shift(p, c)
    assert len(shifted) == len(p)
    at_x_plus_c = sum(a * (x + c)**j for j, a in enumerate(p))
    assert sum(a * x**k for k, a in enumerate(shifted)) == at_x_plus_c
