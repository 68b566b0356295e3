#!/usr/bin/env python3
"""foldrate benchmark: end-to-end timings through the CLI and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload refine-mix-log --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seconds 45

One run measures one workload in a closed loop: one process, one
operation at a time, no threads.  The operation's inputs come from
--seed, every output is checked, and a failed check or an exception
counts as a failed operation.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it holds the full record (samples, failure causes,
environment, spans).  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types

import calib
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Fresh interpreters timed per run for setup_s, each between two that time
# calib.IMPORT_CODE; the median of the scaled times is reported.
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 150

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import foldrate.cli
from foldrate.engine import SequenceTable
from foldrate.recurrence import parse_spec
SequenceTable(parse_spec(sys.argv[2]), domain=sys.argv[3])
print(repr(time.perf_counter() - t0))
"""


def load_foldrate() -> types.SimpleNamespace:
    """Import the package from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "foldrate", "__init__.py")):
        print(f"error: no foldrate package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import foldrate.bounds
    import foldrate.cli
    import foldrate.engine
    import foldrate.recurrence
    import foldrate.trees

    return types.SimpleNamespace(cli=foldrate.cli, engine=foldrate.engine,
                                 bounds=foldrate.bounds, recurrence=foldrate.recurrence,
                                 trees=foldrate.trees)


def describe(exc: BaseException) -> str:
    """Exception type, message and the innermost frame that raised it."""
    frames = traceback.extract_tb(exc.__traceback__)
    where = f" at {os.path.basename(frames[-1].filename)}:{frames[-1].lineno}" if frames else ""
    return f"{type(exc).__name__}: {exc}{where}"


def spread(values) -> float:
    """Interquartile range as a share of the median (max-min below 4 samples)."""
    med = statistics.median(values)
    if len(values) < 4:
        return (max(values) - min(values)) / med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def measure(w, rng: random.Random, seconds: float, setup: list | None):
    """Closed loop for `seconds`; every attempt is timed, failed ones too.

    The calibration kernel of the workload's domain is timed before the
    first operation and right after each one.  If `setup` is a list,
    setup_s samples are taken between operations, spread over the loop,
    so they see the same machine as the operations.
    """
    kernel = calib.KERNELS[w.domain]
    samples, kernel_samples, causes, last_ok = [], [kernel()], collections.Counter(), None
    start = time.perf_counter()
    while True:
        text = workloads.shuffled_spec(w.terms, rng)
        error = None
        t0 = time.perf_counter()
        try:
            result = w.op(text)
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
        samples.append(time.perf_counter() - t0)
        kernel_samples.append(kernel())
        if error is None:
            try:
                w.check(text, result)
                last_ok = (text, result)
            except Exception as exc:
                error = exc
        if error is not None:
            causes[describe(error)] += 1
        elapsed = time.perf_counter() - start
        while setup is not None and len(setup) < min(1.0, elapsed / seconds) * SETUP_REPEATS:
            setup.append(setup_sample(w, rng))
        if elapsed >= seconds:
            return samples, kernel_samples, causes, last_ok


def child_seconds(code: str, *args: str) -> float:
    """Run `code` in a fresh interpreter; it prints the seconds it measured."""
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def setup_sample(w, rng: random.Random) -> tuple[float, float]:
    """Seconds to import foldrate.cli, parse the spec and build the table in a
    fresh interpreter, and the mean of the import baseline just before and after."""
    before = child_seconds(calib.IMPORT_CODE)
    setup = child_seconds(SETUP_CODE, SRC, workloads.shuffled_spec(w.terms, rng), w.domain)
    return setup, (before + child_seconds(calib.IMPORT_CODE)) / 2


def peak_rss_mb(w, seed: int) -> float:
    """Peak RSS of a child process that runs one operation of the workload."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", w.name,
         "--seed", str(seed), "--rss-child"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return int(proc.stdout.strip().splitlines()[-1]) * 1024 / 1e6


def rss_child(w, seed: int) -> None:
    w.warm()
    try:
        w.op(workloads.shuffled_spec(w.terms, random.Random(seed)))
    except Exception as exc:  # the parent's own loop counts failures
        print(describe(exc), file=sys.stderr)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "git_commit": git_commit()}


def run_workload(w, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    rng = random.Random(seed)
    record = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment()}
    setup = None if trace else []
    w.warm()
    calib.KERNELS[w.domain]()
    samples, kernel_samples, causes, last_ok = measure(w, rng, seconds, setup)
    wall = statistics.median(samples)
    kernel_s = statistics.median(kernel_samples)
    # each operation against the host speed around it: the kernels just before and after
    norm = statistics.median(op / (before + after) * 2 for op, before, after
                             in zip(samples, kernel_samples, kernel_samples[1:]))
    attempted, failed = len(samples), sum(causes.values())
    checks_ok = last_ok is not None
    if checks_ok:
        try:
            w.untimed_check(*last_ok)
        except workloads.CheckFailed as exc:
            causes[describe(exc)] += 1
            checks_ok = False
    if trace:
        attempted += 1
        try:
            metrics, detail, spans = layers.traced_run(w, workloads.shuffled_spec(w.terms, rng), wall)
            metrics.update({"wall_s": (wall, "s"), "host.calib_s": (kernel_s, "s")})
            record.update(detail, spans=spans)
            if detail["replay_error"]:
                causes[detail["replay_error"]] += 1
                failed += 1
        except Exception as exc:  # a failed replay is counted like a failed operation
            causes[describe(exc)] += 1
            failed += 1
            metrics = {}
    else:
        metrics = {"norm_wall_s": (norm * calib.REFERENCE_S[w.domain], "s"),
                   "setup_s": (statistics.median(s / base for s, base in setup)
                               * calib.REFERENCE_S["import"], "s"),
                   "peak_rss_mb": (peak_rss_mb(w, seed), "MB")}
        raw_setup = [s for s, _ in setup]
        record.update(setup_s_samples=raw_setup, setup_s_spread=spread(raw_setup),
                      import_s_samples=[base for _, base in setup])
    record.update(wall_s=wall, calib_s=kernel_s,
                  wall_s_samples=samples, wall_s_spread=spread(samples),
                  calib_kernel=w.domain, calib_s_samples=kernel_samples,
                  calib_s_spread=spread(kernel_samples),
                  fail_frac=failed / attempted, failure_causes=dict(causes))
    result = {
        "correct": checks_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record, result


def print_summary(record: dict, result: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"fail_frac={record['fail_frac']:.3g} correct={result['correct']}")
    for cause, count in record["failure_causes"].items():
        print(f"#   failed x{count}: {cause}")
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")


def run_all(seed: int, seconds: float) -> None:
    """Every workload, untraced then traced, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(line for line in lines[:-2]))
            result = json.loads(lines[-1])
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, m in result["metrics"].items():
                merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--rss-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    fr = load_foldrate()
    if args.workload == "all":
        run_all(args.seed, args.seconds)
        return 0
    os.environ.pop(fr.cli.CACHE_DIR_ENV, None)
    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        w = workloads.WORKLOADS[args.workload](fr, workdir)
        if args.rss_child:
            rss_child(w, args.seed)
            return 0
        record, result = run_workload(w, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # fails while another run uses it
            os.rmdir(os.path.dirname(workdir))
    print_summary(record, result)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
