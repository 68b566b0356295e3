"""Traced replay of one operation and the per-layer numbers drawn from it.

The replay makes the same public calls the CLI makes, in the same order,
with a span around each call into a layer (recurrence, engine, bounds,
trees, cli).  Extends follow a doubling schedule ending at the workload's
table length; each cell is computed once either way, so the work matches
the untraced operation.  Probes after the replay (the family estimates,
cache I/O for workloads that keep no cache, the tree oracle) sit outside
the replay's root span.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time

from workloads import (
    EVAL_EXACT_N,
    EVAL_EXACT_SHA256,
    HIGHMAX_N,
    ORACLE_MAX_N,
    REFINE_EPSILON,
    REFINE_MIX_REF,
    CheckFailed,
    check_entries,
    intersects,
    sha256,
)


class Tracer:
    """Spans (name, start, end, parent) kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> float:
        return sum(self.durations(name))

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]


def _doubling(start: int, stop: int):
    n = 2
    while n < stop:
        if n > start:
            yield n
        n *= 2
    yield stop


def _extend(tr, table, stop):
    for n in _doubling(table.n, stop):
        with tr.span("engine.extend", n=n):
            table.extend(n)


def _replay_refine(w, tr, text):
    fr = w.fr
    with tr.span("recurrence.parse"):
        spec = fr.recurrence.parse_spec(text)
        consts = fr.recurrence.derive_constants(spec)
    with tr.span("engine.plan"):
        table = fr.engine.SequenceTable(spec, domain="log")
    entries, lo, hi, n = [], -math.inf, math.inf, 2
    while True:
        with tr.span("engine.extend", n=n):
            table.extend(n)
        with tr.span("bounds.envelope", n=n):
            part = fr.bounds.evaluate_bounds(table, consts, ns=[n], epsilon=REFINE_EPSILON)
        entries += part.entries
        lo, hi = max(lo, part.best_ln_lower), min(hi, part.best_ln_upper)
        converged = math.exp(hi - lo) <= 1.0 + REFINE_EPSILON
        if converged or n >= fr.bounds.DEFAULT_MAX_N:
            break
        n *= 2
    with tr.span("cli.render"):
        report = fr.bounds.BoundsReport(
            spec_text=spec.render(), epsilon=REFINE_EPSILON, entries=entries,
            best_ln_lower=lo, best_ln_upper=hi, converged=converged,
            reason="converged" if converged else "length budget exhausted", max_n=n)
        json.dumps(report.to_json_dict(), indent=2)
    if not (converged and intersects(lo, hi, REFINE_MIX_REF)):
        raise CheckFailed(f"replay: converged={converged} interval [{lo}, {hi}]")
    return spec, table, {"stop_n": n, "steps": len(entries)}


def _replay_eval_exact(w, tr, text):
    fr = w.fr
    path = w.cache_path
    w.remove_cache()
    table = None
    for n in EVAL_EXACT_N:
        with tr.span("recurrence.parse"):
            spec = fr.recurrence.parse_spec(text)
        if table is None:
            with tr.span("engine.plan"):
                table = fr.engine.SequenceTable(spec, domain="exact")
        else:
            with tr.span("engine.cache_load"):
                table = fr.engine.load_cache(path, spec)
        _extend(tr, table, n)
        with tr.span("engine.cache_save"):
            fr.engine.save_cache(table, path)
        with tr.span("cli.render"):
            out = " ".join(str(table.value(i).value) for i in range(n + 1)) + "\n"
        if sha256(out) != EVAL_EXACT_SHA256[n]:
            raise CheckFailed(f"replay: n={n} output differs from the cold-run digest")
    return spec, table, {"cache_bytes": os.path.getsize(path)}


def _replay_bounds(w, tr, text):
    fr = w.fr
    with tr.span("recurrence.parse"):
        spec = fr.recurrence.parse_spec(text)
    with tr.span("engine.plan"):
        table = fr.engine.SequenceTable(spec, domain="log")
    _extend(tr, table, HIGHMAX_N)
    with tr.span("bounds.envelope", n=HIGHMAX_N):
        report = fr.bounds.evaluate_bounds(table)
    check_entries([(e.n, e.ln_lower, e.ln_upper) for e in report.entries], "replay")
    info = {"stop_n": HIGHMAX_N, "steps": 1}
    try:
        with tr.span("cli.render"):
            json.dumps(report.to_json_dict(), indent=2)
    except OverflowError as exc:  # the CLI raises here too; the replay still yields its layers
        info["error"] = f"OverflowError: {exc} in BoundsReport.to_json_dict"
    return spec, table, info


def replay(w, tr, text):
    """Traced operation under one root span; returns (spec, table, info)."""
    with tr.span("op", workload=w.name):
        if w.name == "refine-mix-log":
            return _replay_refine(w, tr, text)
        if w.name == "eval-exact-mix":
            return _replay_eval_exact(w, tr, text)
        return _replay_bounds(w, tr, text)


def _family_seconds(w, tr, family, n):
    """Estimate: extend the spec's single-family sub-spec to the same n."""
    fr = w.fr
    sub = "\n".join(t for t in w.terms if t.startswith(family))
    with tr.span(f"engine.{family}_family", estimate=True):
        fr.engine.SequenceTable(fr.recurrence.parse_spec(sub), domain=w.domain).extend(n)
    return tr.durations(f"engine.{family}_family")[-1]


def _table_counts(table, domain):
    """Tables, cells and cell terms counted from outside the engine."""
    n = table.n
    ranks = {}
    for family, probe in (("sum", table.sum_fold), ("max", table.max_fold)):
        ranks[family] = []
        for j in range(2, table.spec.max_arity + 1):
            try:
                probe(j, 0)
            except KeyError:
                continue
            ranks[family].append(j)
    folds = len(ranks["sum"]) + len(ranks["max"])
    cells = table.table_count * n
    if domain == "log":
        nbytes = 8 * (cells + 1)
    else:
        values = [table.value(i).value for i in range(n + 1)]
        values += [table.sum_fold(j, m).value for j in ranks["sum"] for m in range(n)]
        values += [table.max_fold(j, m).value for j in ranks["max"] for m in range(n)]
        nbytes = sum((v.numerator.bit_length() + 7) // 8 + (v.denominator.bit_length() + 7) // 8
                     for v in values)
    return {
        "tables": table.table_count,
        "sum_ranks": ranks["sum"],
        "max_ranks": ranks["max"],
        "cells": cells,
        "cell_terms": folds * n * (n + 1) // 2,
        "table_bytes": nbytes,
    }


def _oracle_probe(w, tr, spec, table):
    """Tree enumeration must bracket s_n for n <= ORACLE_MAX_N."""
    fr = w.fr
    with tr.span("trees.oracle"):
        summaries = [fr.trees.oracle_summary(spec, n) for n in range(1, ORACLE_MAX_N + 1)]
    for n, (_, total, best) in enumerate(summaries, start=1):
        if w.domain == "exact":
            ok = best <= table.value(n).value <= total
        else:
            s = math.exp(table.value_ln(n))
            ok = float(best) * (1 - 1e-9) <= s <= float(total) * (1 + 1e-9)
        if not ok:
            raise CheckFailed(f"oracle: s_{n} outside [{best}, {total}]")


def traced_run(w, text, untraced_wall_s):
    """Replay one operation with spans and run the probes.

    Returns (metrics, detail, spans); metrics maps name -> (value, unit).
    """
    fr = w.fr
    tr = Tracer()
    spec, table, info = replay(w, tr, text)
    op_s = tr.seconds("op")

    # probes, outside the op span
    if w.name == "eval-exact-mix":
        with tr.span("bounds.envelope", probe=True):
            fr.bounds.evaluate_bounds(table)
        info.update(stop_n=table.n, steps=1)
    else:
        path = os.path.join(w.workdir, "probe.cache")
        with tr.span("engine.cache_save", probe=True):
            fr.engine.save_cache(table, path)
        info["cache_bytes"] = os.path.getsize(path)
        with tr.span("engine.cache_load", probe=True):
            fr.engine.load_cache(path, spec)
        os.remove(path)
    _oracle_probe(w, tr, spec, table)
    sum_s = _family_seconds(w, tr, "sum", table.n)
    max_s = _family_seconds(w, tr, "max", table.n)

    counts = _table_counts(table, w.domain)
    extends = tr.durations("engine.extend")
    extend_s = sum(extends)
    metrics = {
        "recurrence.parse_s": (tr.seconds("recurrence.parse"), "s"),
        "engine.plan_s": (tr.seconds("engine.plan"), "s"),
        "engine.extend_s": (extend_s, "s"),
        "engine.sum_family_s": (sum_s, "s"),
        "engine.max_family_s": (max_s, "s"),
        "engine.tables": (counts["tables"], "count"),
        "engine.cells": (counts["cells"], "count"),
        "engine.cell_terms": (counts["cell_terms"], "count"),
        "engine.cell_terms_per_s": (counts["cell_terms"] / extend_s, "1/s"),
        "engine.table_bytes": (counts["table_bytes"], "B"),
        "engine.doubling_exponent": (math.log2(extends[-1] / extends[-2]), "1"),
        "engine.cache_save_s": (tr.seconds("engine.cache_save"), "s"),
        "engine.cache_load_s": (tr.seconds("engine.cache_load"), "s"),
        "engine.cache_bytes": (info["cache_bytes"], "B"),
        "bounds.envelope_s": (tr.seconds("bounds.envelope"), "s"),
        "bounds.refine_steps": (info["steps"], "count"),
        "bounds.stop_n": (info["stop_n"], "count"),
        "trees.oracle_s": (tr.seconds("trees.oracle"), "s"),
        "cli.render_s": (tr.seconds("cli.render"), "s"),
        "trace.overhead_s": (op_s - untraced_wall_s, "s"),
    }
    detail = {"sum_ranks": counts["sum_ranks"], "max_ranks": counts["max_ranks"],
              "traced_op_s": op_s, "replay_error": info.get("error")}
    return metrics, detail, tr.spans
