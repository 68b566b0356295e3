"""Exact tables on a proved recurrence: search, proof, run and persistence."""

import random
import struct
import sys
import zlib

import pytest

from foldrate import (
    CacheCorruptError,
    MemoryBudgetError,
    SequenceTable,
    compute_sequence,
    load_cache,
    parse_spec,
    save_cache,
)
from foldrate import holonomic
from helpers import MIXED_EXAMPLE, proved_by_lists, random_spec

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
    assert (len(rec.coeffs), len(rec.coeffs[0]), rec.start, rec.window) == (6, 5, 5, 48)
    assert max(abs(c) for p in rec.coeffs for c in p).bit_length() <= 96


def test_perturbed_recurrence_fails_the_proof(monkeypatch):
    # each coefficient, or each t_i with i < start, moved by one; the
    # polynomial products of tests/helpers.py agree
    table = compute_sequence(MIX, 60, domain="exact")
    rec, t, pairs = table.recurrence, table._dom.cols[0], table._dom.pairs
    assert holonomic.proved(rec.coeffs, rec.start, t, pairs)
    assert proved_by_lists(rec.coeffs, rec.start, t, pairs)
    for i, p in enumerate(rec.coeffs):
        for j in range(len(p)):
            for delta in (-1, 1):
                coeffs = [list(q) for q in rec.coeffs]
                coeffs[i][j] += delta
                assert not holonomic.proved(coeffs, rec.start, t, pairs), (i, j, delta)
                assert not proved_by_lists(coeffs, rec.start, t, pairs), (i, j, delta)
    for i in range(rec.start):
        for delta in (-1, 1):
            moved = list(t)
            moved[i] += delta
            assert not holonomic.proved(rec.coeffs, rec.start, moved, pairs), (i, delta)
            assert not proved_by_lists(rec.coeffs, rec.start, moved, pairs), (i, delta)
    # a recurrence that fails its proof is not used: the table stays on the engine
    reference = _values(compute_sequence(MIX, 120, domain="exact"))
    monkeypatch.setattr(holonomic, "proved", lambda *args: False)
    fallback = compute_sequence(MIX, 120, domain="exact")
    assert fallback.recurrence is None and len(fallback._dom.cols) == 4
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
        rec, t, pairs = table.recurrence, table._dom.cols[0], table._dom.pairs
        moved = [list(p) for p in rec.coeffs]
        moved[-1][-1] += 1
        for coeffs, want in ((rec.coeffs, True), (moved, False)):
            assert holonomic.proved(coeffs, rec.start, t, pairs) is want, spec.render()
            assert proved_by_lists(coeffs, rec.start, t, pairs) is want, spec.render()
    assert found >= 50


def test_the_proof_point_is_past_every_root_it_could_hit():
    # left sides that are not zero but vanish at y = 2^k: a proof point
    # Y = 2^K with K too small for the bound W would meet that root for
    # some k.  With P = y, B = 1 and N_1 = y(y - 1), the relation
    # (m n + m - m 2^k) t_n = 0 from n = 0 has the left side m y (y - 2^k).
    # With P = y (y - 2^k), the relation c t_n = 0 from n = 1 has
    # c (y - 1) P, whose bound W carries the factor ||P|| = 2^k + 1.
    cases = [(((m - m * 2 ** k, m),), 0, [1], [(1, 0)])
             for k in range(80) for m in (1, 5, 1000)]
    cases += [(((2 ** j,),), 1, [1], [(-(2 ** k), 0), (1, 1)])
              for k in range(64) for j in range(k)]
    for case in cases:
        assert not holonomic.proved(*case), case
        assert not proved_by_lists(*case), case


def _times_n_minus_150(monkeypatch):
    """Have the search return MIX's recurrence times (n - 150), a proved
    recurrence too, whose p_0 vanishes at n = 150; return its coefficients."""
    rec = compute_sequence(MIX, 60, domain="exact").recurrence
    times = tuple(tuple(b - 150 * a for a, b in zip(p + (0,), (0,) + p)) for p in rec.coeffs)
    real_find = holonomic.find

    def find(t, pairs, window):
        found = real_find(t, pairs, window)
        assert holonomic.proved(times, found.start, t, pairs)
        return holonomic.Recurrence(times, found.start, found.window)

    monkeypatch.setattr(holonomic, "find", find)
    return times


def test_the_engine_supplies_t_n_at_a_root_of_p0(monkeypatch):
    # at n = 150 the run takes t_150 from the ranks' cells at 149
    times = _times_n_minus_150(monkeypatch)
    table = compute_sequence(MIX, 300, domain="exact")
    assert table.recurrence.coeffs == times
    assert _values(table) == _values(_engine_table(monkeypatch, MIX, 300))


def test_a_root_of_p0_after_a_resume(tmp_path, monkeypatch):
    # a table saved on the recurrence at n = 100 loads with s alone, and
    # at n = 150 its ranks are rebuilt from the loaded s
    times = _times_n_minus_150(monkeypatch)
    path = str(tmp_path / "mix.seq")
    save_cache(compute_sequence(MIX, 100, domain="exact"), path)
    table = load_cache(path, MIX)
    assert table.recurrence.coeffs == times and not any(table._dom.cols[1:])
    table.extend(300)
    assert _values(table) == _values(_engine_table(monkeypatch, MIX, 300))


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


def test_fold_cell_reads_on_a_recurrence_are_not_counted(tmp_path):
    # the ranks that sum_fold fills from s hold no budget bytes: a table
    # that read them stops where one that did not stops, and saves the
    # same bytes
    tables = [compute_sequence(MIX, 200, domain="exact") for _ in range(2)]
    for j in (2, 3, 4):
        tables[0].sum_fold(j, 199)
    saved = []
    for i, table in enumerate(tables):
        table.memory_limit = 40_000
        with pytest.raises(MemoryBudgetError):
            table.extend(10_000)
        save_cache(table, str(tmp_path / f"{i}.seq"))
        saved.append((table.n, (tmp_path / f"{i}.seq").read_bytes()))
    assert saved[0] == saved[1] and saved[0][0] > 200


def test_load_reproves_the_recurrence(tmp_path):
    # the coefficient bytes are rewritten with a valid checksum: the proof,
    # not the checksum, refuses them
    path = tmp_path / "mix.seq"
    save_cache(compute_sequence(MIX, 60, domain="exact"), str(path))
    data = bytearray(path.read_bytes())
    at = 4 + 2 + 32 + 12 + 20  # header, then the first coefficient's length
    assert struct.unpack_from("<Q", data, at)[0] >= 1
    data[at + 8] ^= 1
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(bytes(data[:-4])))
    path.write_bytes(bytes(data))
    with pytest.raises(CacheCorruptError, match="does not hold"):
        load_cache(str(path), MIX)


def test_load_refuses_a_recurrence_the_engine_could_not_reach(tmp_path):
    # a budget that holds s through n = 60 but not the engine's four
    # columns before its last step to the window 48: extend stops before
    # the window, and a table on the recurrence at 60 is refused
    table = compute_sequence(MIX, 60, domain="exact")
    limit = sum(map(sys.getsizeof, table._dom.cols[0])) + 64
    short = SequenceTable(MIX, domain="exact", memory_limit=limit)
    with pytest.raises(MemoryBudgetError):
        short.extend(60)
    assert short.n < 48 and short.recurrence is None
    path = str(tmp_path / "mix.seq")
    save_cache(table, path)
    with pytest.raises(MemoryBudgetError):
        load_cache(path, MIX, memory_limit=limit)
    assert load_cache(path, MIX, memory_limit=4 * limit).n == 60


def test_memory_budget_stops_on_the_recurrence_and_the_load_agrees(tmp_path):
    # past the window only s is stored, so the same budget reaches further
    # than on the engine; a table saved where it stopped loads under it,
    # one step more does not
    limit = 40_000
    table = SequenceTable(MIX, domain="exact", memory_limit=limit)
    with pytest.raises(MemoryBudgetError):
        table.extend(10_000)
    assert table.recurrence is not None and table.n > 48
    assert table.value(table.n) == compute_sequence(MIX, table.n, domain="exact").value(table.n)
    path = str(tmp_path / "mix.seq")
    save_cache(table, path)
    assert load_cache(path, MIX, memory_limit=limit).n == table.n
    save_cache(compute_sequence(MIX, table.n + 1, domain="exact"), path)
    with pytest.raises(MemoryBudgetError):
        load_cache(path, MIX, memory_limit=limit)


def test_specs_over_the_cap_stay_on_the_engine(monkeypatch):
    # sum 40 1 has order 1 but degree 39: 80 unknowns; the mixed spec of
    # degree 6 has none within 64 unknowns
    for text in ("sum 40 1", "sum 6 1\nsum 2 1"):
        spec = parse_spec(text)
        table = compute_sequence(spec, 110, domain="exact")
        assert table.recurrence is None, text
        assert _values(table) == _values(_engine_table(monkeypatch, spec, 110))


@pytest.mark.parametrize("text, found", [
    ("sum 2 2097143", True),                          # the first search prime
    ("sum 2 2097143\nsum 3 1", True),
    ("sum 2 2147483647\nsum 3 2147483629", True),     # two lifting primes
    ("sum 2 2097143\nsum 3 2097133\nsum 1 2097131", False),  # every search prime
])
def test_weights_that_a_prime_divides(monkeypatch, text, found):
    # a prime dividing a weight of P can make the columns vanish or drop
    # rank mod that prime; the search takes another, the lifting skips it,
    # and with no prime left the table stays on the engine
    spec = parse_spec(text)
    table = compute_sequence(spec, 120, domain="exact")
    assert (table.recurrence is not None) == found
    assert _values(table) == _values(_engine_table(monkeypatch, spec, 120))
