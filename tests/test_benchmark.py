"""The benchmark's traced runs, as a smoke test: each workload that
BENCHMARK.json lists replays its operation through perfbench/layers.py,
which calls the library's bounds, engine, cache and tree entry points.
The test only runs perfbench/; it changes nothing there."""

import json
import pathlib
import subprocess
import sys

import pytest

from helpers import strict_json

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_ends_with_a_strict_result_line(workload):
    # a fresh interpreter from the repository root, as the benchmark runs it
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0.3", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = strict_json(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stdout[-2000:]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
