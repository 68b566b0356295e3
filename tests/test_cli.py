"""Command line front end: outputs, formats, exit codes, cache plumbing."""

import argparse
import contextlib
import hashlib
import io
import math
import os
import pathlib
import re
import resource
import struct
import subprocess
import sys
import time
import zlib

import pytest

from foldrate import cache, cli, engine
from foldrate.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    CACHE_DIR_ENV,
    main,
)
from helpers import fresh_python, strict_json


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_eval_exact_text(capsys):
    code, out, _ = run(
        capsys, "eval", "--spec-text", "sum 2 1", "--n", "5", "--domain", "exact"
    )
    assert code == EXIT_OK
    assert out == "1 1 2 5 14 42\n"


def test_eval_exact_fractions(capsys):
    code, out, _ = run(
        capsys, "eval", "--spec-text", "sum 2 1/2", "--n", "3", "--domain", "exact"
    )
    assert code == EXIT_OK
    assert out == "1 1/2 1/2 5/8\n"


def test_eval_log_text(capsys):
    code, out, _ = run(capsys, "eval", "--spec-text", "max 2 2", "--n", "3")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 4
    n, ln, approx = lines[3].split("\t")
    assert n == "3"
    assert float(ln) == pytest.approx(3 * math.log(2), abs=1e-12)
    assert approx == "8.0"


def test_eval_json(capsys):
    code, out, _ = run(
        capsys, "eval", "--spec-text", "sum 2 1", "--n", "4", "--domain", "exact",
        "--format", "json",
    )
    assert code == EXIT_OK
    doc = strict_json(out)
    assert doc["domain"] == "exact"
    assert doc["values"] == ["1", "1", "2", "5", "14"]


def test_eval_csv(capsys):
    code, out, _ = run(
        capsys, "eval", "--spec-text", "sum 2 1", "--n", "2", "--domain", "exact",
        "--format", "csv",
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["n,value", "0,1", "1,1", "2,2"]


def test_eval_bfile(capsys):
    code, out, _ = run(
        capsys, "eval", "--spec-text", "sum 2 1", "--n", "3", "--domain", "exact",
        "--format", "bfile",
    )
    assert code == EXIT_OK
    assert out == "0 1\n1 1\n2 2\n3 5\n"


def test_bfile_requires_integers(capsys):
    code, _, err = run(
        capsys, "eval", "--spec-text", "sum 2 1/2", "--n", "3", "--domain", "exact",
        "--format", "bfile",
    )
    assert code == EXIT_USAGE
    assert "integer" in err


def test_bfile_requires_exact_domain(capsys):
    code, _, err = run(
        capsys, "eval", "--spec-text", "sum 2 1", "--n", "3", "--format", "bfile"
    )
    assert code == EXIT_USAGE
    assert "exact" in err


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--spec-text", "max 2 2", "--n", "64")
    assert code == EXIT_OK
    doc = strict_json(out)
    # the pure-max lower bound is a hair below 2, and prints rounded down
    assert 2.0 - 1e-11 <= doc["best"]["lower"] < 2.0
    assert doc["best"]["upper"] >= 2.0
    assert [e["n"] for e in doc["entries"]] == [2, 4, 8, 16, 32, 64]


def test_printed_bounds_round_outward(capsys):
    # max 2 2 has rate 2: no printed lower passes it, though its computed
    # ln lower is within 4e-15 of ln 2.  On MIX the printed intervals
    # contain the computed ones, in JSON and in CSV.
    from foldrate import parse_spec, refine

    code, out, _ = run(capsys, "bounds", "--spec-text", "max 2 2", "--n", "256")
    entries = strict_json(out)["entries"]
    assert code == EXIT_OK and len(entries) == 8
    assert all(e["ln_lower"] <= math.log(2) and e["lower"] < 2.0 for e in entries)
    code, out, _ = run(capsys, "refine", "--spec-text", MIX, "--epsilon", "0.5")
    report, best = refine(parse_spec(MIX), epsilon=0.5), strict_json(out)["best"]
    lo, hi = report.best_ln_lower, report.best_ln_upper
    assert best["ln_lower"] <= lo and hi <= best["ln_upper"]
    assert best["lower"] <= math.exp(lo) and math.exp(hi) <= best["upper"]
    assert report.ratio <= best["ratio"]
    for e, row in zip(report.entries, report.csv_rows()[1:]):
        n, ln_lo, ln_hi, lower, upper, ratio = row
        assert ln_lo <= e.ln_lower and e.ln_upper <= ln_hi and n == e.n
        assert lower <= math.exp(e.ln_lower) and math.exp(e.ln_upper) <= upper
        assert math.exp(e.ln_upper - e.ln_lower) <= ratio


def test_bounds_csv(capsys):
    code, out, _ = run(
        capsys, "bounds", "--spec-text", "sum 2 1", "--n", "16", "--format", "csv"
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "n,ln_lower,ln_upper,lower,upper,ratio"
    assert len(lines) == 5


MIX = "sum 2 2\nsum 3 3\nsum 4 4\nmax 5 5\nmax 6 6"

# sha256 of the `bounds --n 256` stdout, recorded when bounds read an
# exact-domain table (`--domain exact`), and printed byte for byte the
# same since bounds reads certified points.  Re-pinned when the bounds
# were rounded outward: three linear uppers at n = 2 and 4 moved up in
# their 12th digit.  Re-pinned when the printed digits were rounded
# outward instead of to nearest: 22 to 25 of the 37 or 40 printed bounds
# of each output moved one unit outward in their 12th digit, and no other
# byte changed.
BOUNDS_EXACT_256_SHA256 = {
    (MIX, "json"): "bd159dd4d01c548de39080a86528e30a7db1f54a545d55f54b6a1231d54bcbb2",
    (MIX, "csv"): "48662ded465f33a33c5ec928e352cf61309d9d758dcacca445f7e0b2e4897b09",
    ("sum 2 1/2\nmax 3 7/3", "json"):
        "2551ebbaf7abe32430b132e97a05afd4240920cd02a34b94fc5c4723bc4a2e4a",
    ("sum 2 1/2\nmax 3 7/3", "csv"):
        "52153ee697d19020cca8690089769cb8bc37b29ca5b27ba8e4456427538db3b7",
}


@pytest.mark.parametrize("spec,fmt", sorted(BOUNDS_EXACT_256_SHA256))
def test_bounds_exact_output_is_pinned(capsys, spec, fmt):
    code, out, _ = run(capsys, "bounds", "--spec-text", spec, "--n", "256", "--format", fmt)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == BOUNDS_EXACT_256_SHA256[spec, fmt]


DEG7 = "sum 2 1\nsum 7 3\nmax 3 5"  # d = 7: a chunk of 334 pairs, not a power of two

# sha256 of the csv stdout of the commands that read certified points past
# one chunk, recorded before the first level of companion products was
# built in closed form: no printed digit may move with the kernel
POINTS_SHA256 = {
    ("refine", MIX, "--epsilon", "0.5"):
        "9b8d8c7edd8375e1160ab6721bfe61a6ee1960a2bcaebbf01ce34f4a2d192406",
    ("bounds", MIX, "--n", "4096"):
        "79756375ab5722fc598e7f3d2e713dea3e3420c6fa7757d383ad742d3131522d",
    ("bounds", DEG7, "--n", "4096"):
        "434b510550c3ccf502fba91c6f7637eb5eab0c7db914ad7f7aac6676820cac57",
}


@pytest.mark.parametrize("command,spec,option,value", sorted(POINTS_SHA256))
def test_point_outputs_are_pinned(capsys, command, spec, option, value):
    code, out, err = run(capsys, command, "--spec-text", spec, option, value, "--format", "csv")
    assert (code, err) == (EXIT_OK, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == POINTS_SHA256[command, spec, option, value]


# sha256 of the `eval --domain exact` stdout, recorded when each value
# was printed through a Fraction: past the window 48 the first spec runs
# on its recurrence, with D = 6
FRAC = "sum 2 1/2\nsum 3 1/3"
EVAL_EXACT_SHA256 = {
    (FRAC, 200, "text"): "70c4a89329af6619d3937f8f5e0801444e811cfcbd9e19bb9c9865a7fefa4d8f",
    (FRAC, 200, "json"): "c66149f7f55c4bf8c5382bfc76671a6d9e416b9cb71363bd73ebcbfaad57042a",
    (FRAC, 200, "csv"): "b40ee1908b96d1b6e5a3be8b700a07de4852367eca1463d134c94e692d033673",
    (MIX, 256, "text"): "733c73b518e8e096828286b7409880fbb9ba81be362ac78bd6a7d791ff6d5988",
    (MIX, 256, "json"): "6378f20892c46d99fd058a631ec82a617ae483422fd21b55442206a65fb84fa3",
    (MIX, 256, "csv"): "6f3955c10d1e88325075856665a2aea691e98008e0a7bfa3bf36314d7247f168",
    (MIX, 256, "bfile"): "c34a55afa2cc27e862f7444a5a519745cad71a936d364342dff1dcab08a011d3",
}


@pytest.mark.parametrize("spec,n,fmt", sorted(EVAL_EXACT_SHA256))
def test_eval_exact_output_is_pinned(capsys, spec, n, fmt):
    code, out, err = run(capsys, "eval", "--spec-text", spec, "--domain", "exact",
                         "--n", str(n), "--format", fmt)
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == EVAL_EXACT_SHA256[spec, n, fmt]


def test_bfile_of_fractions_past_the_window_is_a_usage_error(capsys):
    code, out, err = run(capsys, "eval", "--spec-text", FRAC, "--domain", "exact",
                         "--n", "200", "--format", "bfile")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: bfile output needs integer values; this sequence has fractions\n"


def test_bounds_rejects_tiny_n(capsys):
    code, _, err = run(capsys, "bounds", "--spec-text", "sum 2 1", "--n", "1")
    assert code == EXIT_USAGE
    assert "argument --n: expected an integer >= 2, got 1" in err


def test_bounds_and_refine_print_the_same_entries(capsys):
    # one point step serves both: at every n they share, the entries agree
    code, out, _ = run(capsys, "bounds", "--spec-text", MIX, "--n", "4096")
    assert code == EXIT_OK
    bounds = {e["n"]: e for e in strict_json(out)["entries"]}
    code, out, _ = run(capsys, "refine", "--spec-text", MIX, "--epsilon", "0.5")
    assert code == EXIT_OK
    refine = {e["n"]: e for e in strict_json(out)["entries"]}
    assert sorted(bounds.keys() & refine.keys()) == [2 ** k for k in range(1, 13)]
    for n in bounds.keys() & refine.keys():
        assert bounds[n] == refine[n], n


@pytest.mark.parametrize("option", [["--domain", "exact"], ["--domain", "log"],
                                    ["--cache", "c.seq"]])
def test_bounds_takes_no_domain_and_no_cache(capsys, option):
    code, out, err = run(capsys, "bounds", "--spec-text", "sum 2 1", "--n", "8", *option)
    assert (code, out) == (EXIT_USAGE, "")
    assert "unrecognized arguments" in err


def test_bounds_refuses_a_spec_past_the_points_float_range(capsys):
    # Phi_j / Phi_0 = C(300, j) passes 2^200 for sum 300 1
    code, out, err = run(capsys, "bounds", "--spec-text", "sum 300 1", "--n", "8")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: float range exceeded: Phi_j / Phi_0 outside [2^-200, 2^200]\n"


def test_bounds_refuses_n_past_the_points_domain_before_any_point(capsys):
    # (N + 1)(d + 3) >= 2^53: refused at the largest point, evaluated first
    start = time.perf_counter()
    code, out, err = run(capsys, "bounds", "--spec-text", "sum 2 1", "--n", str(1 << 60))
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: a point needs") and "2^53" in err


def test_refine_json(capsys):
    code, out, _ = run(
        capsys, "refine", "--spec-text", "sum 2 1", "--epsilon", "0.5",
        "--max-n", "4096",
    )
    assert code == EXIT_OK
    doc = strict_json(out)
    assert doc["converged"] is True
    assert doc["best"]["lower"] <= 4.0 <= doc["best"]["upper"]


def test_refine_unconverged_still_reports(capsys):
    code, out, _ = run(
        capsys, "refine", "--spec-text", "sum 2 1", "--epsilon", "1e-6",
        "--max-n", "4",
    )
    assert code == EXIT_OK
    doc = strict_json(out)
    assert doc["converged"] is False
    assert doc["reason"] == "length budget exhausted"


@pytest.mark.parametrize("spec, reason", [("sum 300 1", "float range exceeded"),
                                          ("sum 20000 1", "memory budget exhausted")])
def test_refine_with_no_point_prints_null_bounds(capsys, spec, reason):
    # no point evaluated: the best ln bounds are still infinite, and JSON
    # (RFC 8259) has no Infinity
    code, out, _ = run(capsys, "refine", "--spec-text", spec)
    assert code == EXIT_OK
    doc = strict_json(out)
    assert (doc["reason"], doc["entries"]) == (reason, [])
    assert doc["best"]["ln_lower"] is doc["best"]["ln_upper"] is doc["best"]["ratio"] is None


@pytest.mark.parametrize("epsilon", ["inf", "nan", "0", "-1", "tight"])
def test_refine_epsilon_must_be_positive_and_finite(capsys, epsilon):
    code, out, err = run(capsys, "refine", "--spec-text", "sum 2 1", "--epsilon", epsilon)
    assert (code, out) == (EXIT_USAGE, "")
    assert "argument --epsilon: expected a" in err


def test_each_call_logs_to_its_own_stderr_at_its_own_level():
    # logging is set up per call, not once per process: each call writes
    # its progress (-v) and its warning to the stderr it runs with
    argv = ["refine", "--spec-text", "sum 2 1", "--max-n", "8"]
    streams = []
    for verbose in ([], ["-v"], []):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main([*verbose, *argv]) == EXIT_OK
        streams.append(err.getvalue())
    ratio = strict_json(out.getvalue())["best"]["ratio"]
    warning = f"not converged: length budget exhausted (ratio {ratio:.6g})\n"
    assert streams[0] == streams[2] == warning
    progress = streams[1].splitlines(keepends=True)
    assert [line.split()[:2] for line in progress[:-1]] == [
        ["refine", "n=2"], ["refine", "n=4"], ["refine", "n=8"]]
    assert progress[-1] == warning


def test_more_verbose_logs_the_same(capsys):
    # nothing logs below INFO, so -vv prints what -v prints
    argv = ["refine", "--spec-text", "sum 2 1", "--max-n", "8", "--format", "csv"]
    assert run(capsys, "-v", *argv) == run(capsys, "-vv", *argv)


def test_oracle_small(capsys):
    code, out, _ = run(capsys, "oracle", "--spec-text", "sum 2 1", "--max-n", "5")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all("sum=s_n=ok" in line and "subtree-interval=ok" in line for line in lines)


# sha256 of the `oracle` stdout, recorded while the command read s_n through
# the table's scalar records; max 4 3 at --max-n 8 (8 s) and MIX at 5 (28 s)
# gave the same bytes before and after that change, but are too slow here
ORACLE_SHA256 = {
    ("sum 2 1", 8): "cb40a2e9faaf178b130b74775a126fac7b791be504d532c48952d9c2b7de72eb",
    ("max 2 2", 8): "7214262d82a8242b7f9afab76464229bdd6e39bdc381755a16eb23a9c34448f2",
    ("max 4 3", 7): "aebe3cb8b3c235e087f08d2cfa52aaa5fb14152d053086cddd81b0acac982860",
    (MIX, 4): "b1f19bc942bfd005ae51abb8d9adf5d07e14c78908ef5c38539f4a72dc9c267c",
}


@pytest.mark.parametrize("spec,n", sorted(ORACLE_SHA256))
def test_oracle_output_is_pinned(capsys, spec, n):
    code, out, err = run(capsys, "oracle", "--spec-text", spec, "--max-n", str(n))
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_SHA256[spec, n]


def test_oracle_max_n_zero_prints_nothing(capsys):
    assert run(capsys, "oracle", "--spec-text", MIX, "--max-n", "0") == (EXIT_OK, "", "")


# sha256 of the `eval --domain log` stdout of MIX to 300, the same cold and
# from a log cache written at 400: float64 values from numpy convolutions
# on x86-64, as in test_engine's test_log_values_are_pinned
EVAL_LOG_SHA256 = {
    "text": "54c32865744b7ec5874dd7712b2bef13d5753d60dca490f0c098d15ca8522f43",
    "json": "8b6cb548e050a63999c9599a18040220b1c8b0fcfaec3b6338e332b440cf628d",
    "csv": "c1c8e398d663dc45cfd80ea8797c917778ca05e0bfa263406801de0f1cbcd662",
}


@pytest.mark.parametrize("fmt", sorted(EVAL_LOG_SHA256))
def test_eval_log_output_is_pinned(tmp_path, capsys, fmt):
    cache = str(tmp_path / "mix.cache")
    assert run(capsys, "eval", "--spec-text", MIX, "--n", "400", "--cache", cache)[0] == EXIT_OK
    for argv in ([], ["--cache", cache]):
        code, out, err = run(capsys, "eval", "--spec-text", MIX, "--n", "300",
                             "--format", fmt, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == EVAL_LOG_SHA256[fmt], argv


def test_oracle_refuses_a_huge_max_n_at_once(capsys):
    # Catalan's sizes 1..15 already hold more than 10^7 trees: the count
    # stops there, well before size 10^6
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "--spec-text", "sum 2 1", "--max-n", "1000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: --max-n 1000000: ") and "budget" in err


def test_oracle_refuses_more_trees_than_its_budget(capsys):
    # MIX's sizes 1..6 hold 142,956,730 trees: counted before any is built,
    # and the count stops there
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "--spec-text", MIX, "--max-n", "8")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (EXIT_USAGE, "")
    assert "142,956,730 trees" in err and "budget" in err
    code, _, err = run(capsys, "oracle", "--spec-text", MIX, "--max-n", "6")
    assert code == EXIT_USAGE and "142,956,730 trees" in err


def test_rate_mix(capsys):
    mix = "sum 2 2\nsum 3 3\nsum 4 4\nmax 5 5\nmax 6 6"
    code, out, _ = run(capsys, "rate", "--spec-text", mix)
    assert code == EXIT_OK
    doc = strict_json(out)
    assert set(doc) == {"spec", "ln_lower", "ln_upper", "lower", "upper"}
    assert doc["spec"] == mix + "\n"
    # the rate is 101.94971887276305507...
    assert doc["lower"] < 101.94971887276305 < doc["upper"]
    assert doc["ln_lower"] < math.log(101.94971887276305) < doc["ln_upper"]
    assert doc["ln_upper"] - doc["ln_lower"] <= 1e-12


def test_rate_imports_no_numpy():
    # the rate is exact Fraction arithmetic: a fresh interpreter that runs
    # it loads the bounds module but not numpy (about 90 ms of start-up)
    code = ("import contextlib, io, sys\n"
            "from foldrate.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['rate', '--spec-text', 'sum 2 1']) == 0\n"
            "print('foldrate.bounds' in sys.modules, 'numpy' in sys.modules)\n")
    out = fresh_python("-c", code, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == ["True", "False"]


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # s_0..s_3000 of Catalan fill megabytes, far past a pipe's buffer, so
    # the write after the reader closes the pipe certainly fails (EPIPE)
    with open(tmp_path / "stderr", "w+b") as err:
        proc = fresh_python("-m", "foldrate.cli", "eval", "--domain", "exact",
                            "--n", "3000", "--spec-text", "sum 2 1",
                            start=subprocess.Popen, stdout=subprocess.PIPE, stderr=err)
        assert proc.stdout.read(10) == b"1 1 2 5 14"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        err.seek(0)
        assert b"Traceback" not in err.read()


def test_rate_bad_spec_is_usage_error(capsys):
    code, out, err = run(capsys, "rate", "--spec-text", "sum 1 1")
    assert code == EXIT_USAGE
    assert out == "" and "arity" in err


def test_known_subcommand_is_gone(capsys):
    code, out, _ = run(capsys, "known", "catalan")
    assert code == EXIT_USAGE
    assert out == ""


def test_negative_n_is_usage_error(capsys):
    code, _, _ = run(capsys, "eval", "--spec-text", "sum 2 1", "--n", "-1")
    assert code == EXIT_USAGE


def test_invalid_spec_is_usage_error(capsys):
    code, _, err = run(capsys, "eval", "--spec-text", "sum 1 1", "--n", "3")
    assert code == EXIT_USAGE
    assert "arity" in err


def test_missing_spec_file_is_usage_error(capsys):
    code, _, _ = run(capsys, "eval", "--spec", "no-such-file.txt", "--n", "3")
    assert code == EXIT_USAGE


def test_unreadable_spec_files_are_usage_errors(tmp_path, capsys, monkeypatch):
    code, _, err = run(capsys, "eval", "--spec", str(tmp_path), "--n", "3")
    assert code == EXIT_USAGE
    assert err.count("\n") == 1 and "directory" in err

    binary = tmp_path / "latin1.spec"
    binary.write_bytes(b"sum 2 1 \xe9\n")
    code, _, err = run(capsys, "eval", "--spec", str(binary), "--n", "3")
    assert code == EXIT_USAGE
    assert err.count("\n") == 1 and "UTF-8" in err

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    code, _, err = run(capsys, "eval", "--spec", str(binary), "--n", "3")
    assert code == EXIT_USAGE
    assert err.count("\n") == 1 and "Permission denied" in err


def test_unwritable_cache_is_usage_error_and_leaves_no_temp_file(tmp_path, capsys,
                                                                  monkeypatch):
    missing = str(tmp_path / "missing" / "cat.seq")
    code, _, err = run(capsys, "eval", "--spec-text", "sum 2 1", "--n", "5", "--cache", missing)
    assert code == EXIT_USAGE
    assert repr(missing) in err and ".tmp." not in err

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", src, dst)

    monkeypatch.setattr(os, "replace", refuse)
    cache = str(tmp_path / "cat.seq")
    code, _, err = run(capsys, "eval", "--spec-text", "sum 2 1", "--n", "5", "--cache", cache)
    assert code == EXIT_USAGE
    assert repr(cache) in err and ".tmp." not in err
    assert list(tmp_path.glob("*.tmp.*")) == []


def test_help_exits_cleanly(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == EXIT_OK
    assert "eval" in out and "refine" in out


def test_readme_names_every_long_option():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    parsers, options = [cli.build_parser()], set()
    while parsers:
        for action in parsers.pop()._actions:
            options.update(o for o in action.option_strings if o.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    missing = [o for o in sorted(options)
               if not re.search(rf"(?<![\w-]){re.escape(o)}(?![\w-])", readme)]
    assert not missing, missing


def test_readme_and_cache_docstring_name_the_cache_version():
    # README gives the version save_cache writes, and the cache docstring
    # refuses every version before it
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"format\s+version\s+(\d+)", readme) == [str(cache._VERSION)]
    assert f"Versions 1 to {cache._VERSION - 1} are refused" in " ".join(cache.__doc__.split())


@pytest.mark.parametrize("argv", [["rate"], ["bounds", "--n", "8"],
                                  ["eval", "--n", "3", "--format", "json"],
                                  ["eval", "--n", "3", "--domain", "exact"]])
def test_a_weight_past_the_digit_limit_is_a_usage_error(capsys, argv):
    # 10^5000 has 5001 digits, past CPython's default int_max_str_digits
    code, out, err = run(capsys, *argv, "--spec-text", "sum 2 1e5000")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == ("error: line 1, column 7: bad weight '1e5000': "
                   "Exceeds the limit (4300 digits) for integer string conversion\n")


@pytest.mark.parametrize("number", ["1" * 5001, "1e5000000", "1.5e-5000"])
def test_a_json_number_past_the_digit_limit_is_a_usage_error(tmp_path, capsys, number):
    # refused while json reads it, before a power of ten is built
    path = tmp_path / "big.json"
    path.write_text(f'{{"terms": [{{"op": "sum", "arity": 2, "weight": {number}}}]}}')
    start = time.perf_counter()
    code, out, err = run(capsys, "rate", "--spec", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: unreadable number: ") and "Traceback" not in err


def test_spec_files_text_and_json(tmp_path, capsys):
    text_path = tmp_path / "cat.spec"
    text_path.write_text("sum 2 1\n")
    json_path = tmp_path / "cat"  # no extension: sniffed by content
    json_path.write_text('{"terms": [{"op": "sum", "arity": 2, "weight": 1}]}')
    expected = "1 1 2 5 14\n"
    for path in (text_path, json_path):
        code, out, _ = run(
            capsys, "eval", "--spec", str(path), "--n", "4", "--domain", "exact"
        )
        assert code == EXIT_OK
        assert out == expected


def test_cache_reuse_and_domain_guard(tmp_path, capsys):
    cache = str(tmp_path / "cat.seq")
    code, first, _ = run(
        capsys, "eval", "--spec-text", "sum 2 1", "--n", "10", "--cache", cache
    )
    assert code == EXIT_OK
    # second run restores and extends the same cache file
    code, _, _ = run(
        capsys, "eval", "--spec-text", "sum 2 1", "--n", "32", "--cache", cache
    )
    assert code == EXIT_OK
    # the cached table is log-domain; asking for exact must refuse
    code, _, err = run(
        capsys, "eval", "--spec-text", "sum 2 1", "--n", "10", "--cache", cache,
        "--domain", "exact",
    )
    assert code == EXIT_USAGE
    assert "holds a log-domain table" in err
    # and an exact cache asked for in the log domain
    exact = str(tmp_path / "cat-exact.seq")
    code, _, _ = run(
        capsys, "eval", "--spec-text", "sum 2 1", "--n", "10", "--cache", exact,
        "--domain", "exact",
    )
    assert code == EXIT_OK
    code, _, err = run(
        capsys, "eval", "--spec-text", "sum 2 1", "--n", "10", "--cache", exact,
        "--domain", "log",
    )
    assert code == EXIT_USAGE
    assert "holds an exact-domain table but --domain log was requested" in err


def test_cache_rejects_different_spec(tmp_path, capsys):
    cache = str(tmp_path / "cat.seq")
    run(capsys, "eval", "--spec-text", "sum 2 1", "--n", "10", "--cache", cache)
    code, _, err = run(
        capsys, "eval", "--spec-text", "sum 2 2", "--n", "10", "--cache", cache
    )
    assert code == EXIT_USAGE
    assert "different recurrence" in err


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
def test_old_cache_version_is_refused(tmp_path, capsys, version):
    # version 1 also held max-fold records, version 2 stored exact values
    # as Fractions, version 3 had no path byte, version 4 stored the max
    # sum rank as a u16, version 5 a start in the recurrence record and
    # version 6 per-record counts and a table count; the header differs
    # only in the version field and the trailing checksum as far as the
    # reader gets
    cache = tmp_path / "cat.seq"
    run(capsys, "eval", "--spec-text", "sum 2 1", "--n", "10", "--cache", str(cache))
    data = bytearray(cache.read_bytes())
    struct.pack_into("<H", data, 4, version)
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(bytes(data[:-4])))
    cache.write_bytes(bytes(data))
    code, out, err = run(
        capsys, "eval", "--spec-text", "sum 2 1", "--n", "10", "--cache", str(cache)
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: unsupported cache version {version}\n"


def test_a_cache_with_more_sum_ranks_than_a_u16_round_trips(tmp_path, capsys):
    # sum 65536 1 has 65,535 sum ranks, a table count past the u16 that
    # version 4 stored it in; the cache is written, and a resume loads it
    cache = str(tmp_path / "wide.seq")
    argv = ["eval", "--domain", "exact", "--spec-text", "sum 65536 1", "--cache", cache]
    assert run(capsys, *argv, "--n", "1")[0] == EXIT_OK
    code, out, _ = run(capsys, *argv, "--n", "2")
    assert code == EXIT_OK
    assert (code, out) == run(capsys, *argv[:-2], "--n", "2")[:2]


def test_corrupt_recurrence_record_is_a_usage_error(tmp_path, capsys):
    # past the window the cache holds MIX's recurrence; one coefficient
    # changed under a valid checksum fails the proof on loading
    cache = tmp_path / "mix.seq"
    argv = ["eval", "--spec-text", MIX, "--domain", "exact", "--n", "60", "--cache", str(cache)]
    code, cold, _ = run(capsys, *argv)
    assert code == EXIT_OK
    data = bytearray(cache.read_bytes())
    at = 4 + 2 + 32 + 10 + 3 * 9 + 8  # header; r, e and W; the first length
    data[at] ^= 2
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(bytes(data[:-4])))
    cache.write_bytes(bytes(data))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: the cached recurrence does not hold for this spec\n"


@pytest.mark.parametrize("argv", [
    ["eval", "--domain", "exact"],
    ["eval", "--domain", "log"],
])
def test_cache_longer_or_shorter_than_n_prints_the_cold_output(tmp_path, capsys, argv):
    # a cached table longer than --n is read only up to --n; a shorter one
    # is extended to it
    spec = ["--spec-text", "sum 2 1\nmax 3 1/2"]
    cache = str(tmp_path / "c.seq")
    code, cold, err = run(capsys, *argv, *spec, "--n", "8")
    assert (code, err) == (EXIT_OK, "")
    run(capsys, *argv, *spec, "--n", "16", "--cache", cache)
    assert run(capsys, *argv, *spec, "--n", "8", "--cache", cache) == (EXIT_OK, cold, "")
    short = str(tmp_path / "short.seq")
    run(capsys, *argv, *spec, "--n", "4", "--cache", short)
    assert run(capsys, *argv, *spec, "--n", "8", "--cache", short) == (EXIT_OK, cold, "")


def test_refine_memory_limit_reports_exhaustion(capsys, monkeypatch):
    # the one budget, engine's, read at each point
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", 20000)
    code, out, _ = run(
        capsys, "refine", "--spec-text", "sum 2 2\nsum 3 3\nmax 5 5", "--max-n", "4096",
    )
    assert code == EXIT_OK
    doc = strict_json(out)
    assert doc["reason"] == "memory budget exhausted"
    assert doc["converged"] is False
    assert 2 <= doc["max_n"] < 4096


def test_refine_max_n_below_two_is_a_usage_error(capsys):
    code, out, err = run(capsys, "refine", "--spec-text", "sum 2 1", "--max-n", "1")
    assert code == EXIT_USAGE
    assert out == ""
    assert "--max-n" in err


@pytest.mark.parametrize("argv, code", [
    (["eval", "--domain", "exact", "--n", "3"], 3),
    (["eval", "--domain", "log", "--n", "3"], 3),
    (["bounds", "--n", "64"], 3),
    (["refine"], 0),
    (["rate"], 3),
    (["oracle", "--max-n", "3"], 2),
], ids=["exact", "log", "bounds", "refine", "rate", "oracle"])
def test_a_huge_arity_exits_3_before_its_plan_is_built(argv, code):
    # 10^20 - 1 sum ranks: the plan alone would exhaust any memory, so the
    # table is refused before it is built, and so are a point of bounds,
    # a power of rate and the oracle's tree count; refine reports its
    # memory budget.  A fresh process whose address space is capped keeps
    # a regression from taking the machine's memory.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    done = fresh_python("-m", "foldrate.cli", *argv, "--spec-text", f"sum {10 ** 20} 1",
                        preexec_fn=cap, capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    if code:
        assert done.stdout == ""
        assert done.stderr.startswith("error: ")
    else:
        assert strict_json(done.stdout)["reason"] == "memory budget exhausted"


@pytest.mark.parametrize("limit", ["0", "-8", "lots", "20000"])
def test_refine_memory_limit_must_be_positive(capsys, limit):
    # the option is gone: bounds and refine share one point budget,
    # lagrange.points', so refine refuses --memory-limit with any value
    code, out, err = run(
        capsys, "refine", "--spec-text", "sum 2 1", "--memory-limit", limit
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert f"unrecognized arguments: --memory-limit {limit}" in err


def test_a_point_past_the_budget_is_refused_at_once(capsys):
    # sum 20000 1 has deg P = 20000: a point's working set, 72 d^2 bytes
    # from n = 3 on, passes the 8 GiB budget, and it is refused before
    # any work, also before the taps of P(1 + u) are formed
    start = time.perf_counter()
    code, out, err = run(capsys, "bounds", "--spec-text", "sum 20000 1", "--n", "64")
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err == "error: point n=64 needs ~28800000000 bytes, budget is 8589934592\n"
    code, out, _ = run(capsys, "refine", "--spec-text", "sum 20000 1")
    assert time.perf_counter() - start < 1.0
    doc = strict_json(out)
    assert (code, doc["reason"], doc["entries"]) == (EXIT_OK, "memory budget exhausted", [])


def test_a_memory_error_exits_3_with_one_line(capsys, monkeypatch):
    # the host running out of memory inside an exact extend is a resource
    # failure, as a refused budget is: exit 3 and no traceback
    def out_of_memory(self, new_n):
        raise MemoryError

    monkeypatch.setattr(engine._ExactTable, "_extend", out_of_memory)
    code, out, err = run(capsys, "eval", "--spec-text", "sum 2 1", "--domain", "exact",
                         "--n", "100")
    assert (code, out, err) == (EXIT_RESOURCE, "", "error: out of memory\n")


def test_every_check_reads_the_one_budget_when_it_runs(tmp_path, capsys, monkeypatch):
    # foldrate.engine.DEFAULT_MEMORY_LIMIT is the one budget, read by each
    # check at its call: lowering it alone, after every module is loaded,
    # refuses a table, a load, a point and a power
    from foldrate import (MemoryBudgetError, SequenceTable, compute_sequence, load_cache,
                          parse_spec, save_cache)

    catalan = parse_spec("sum 2 1")
    path = str(tmp_path / "cat.seq")
    save_cache(compute_sequence(catalan, 1000, domain="log"), path)
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", 1000)
    # an exact extend stops with the table valid where it stopped
    table = SequenceTable(catalan, domain="exact")
    with pytest.raises(MemoryBudgetError, match="budget 1000 bytes exhausted"):
        table.extend(2000)
    assert 2 <= table.n < 2000
    assert table.value(table.n).value == math.comb(2 * table.n, table.n) // (table.n + 1)
    # a log extend is refused before any work
    table = SequenceTable(catalan, domain="log")
    with pytest.raises(MemoryBudgetError, match="budget is 1000; table still valid at n=0"):
        table.extend(4096)
    assert table.n == 0
    # a plan, at construction; a cache load, before decoding
    with pytest.raises(MemoryBudgetError, match="999 sum ranks"):
        SequenceTable(parse_spec("sum 1000 1"), domain="exact")
    with pytest.raises(MemoryBudgetError, match="n=1000 needs .* budget is 1000$"):
        load_cache(path, catalan)
    # a Lagrange point: bounds exits 3, refine reports the budget
    code, out, err = run(capsys, "bounds", "--spec-text", "sum 2 1", "--n", "64")
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err == "error: point n=64 needs ~6144 bytes, budget is 1000\n"
    code, out, _ = run(capsys, "refine", "--spec-text", "sum 2 1")
    doc = strict_json(out)
    assert (code, doc["reason"], doc["max_n"]) == (EXIT_OK, "memory budget exhausted", 8)
    # a power of rate_interval: rate exits 3
    monkeypatch.setattr(engine, "DEFAULT_MEMORY_LIMIT", 8)
    code, out, err = run(capsys, "rate", "--spec-text", "sum 2 1")
    assert (code, out) == (EXIT_RESOURCE, "")
    assert re.fullmatch(r"error: y\^2 needs ~\d+ bytes, budget is 8\n", err)


def test_cache_dir_env_resolves_bare_names(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    code, _, _ = run(
        capsys, "eval", "--spec-text", "sum 2 1", "--n", "8", "--cache", "bare.seq"
    )
    assert code == EXIT_OK
    assert (tmp_path / "bare.seq").exists()


def test_bounds_with_overflowing_upper_prints_null(capsys):
    # a 48-fold sum keeps L = 48 (a max 48 term would reduce to arity 1)
    code, out, _ = run(capsys, "bounds", "--spec-text", "sum 48 1", "--n", "64")
    assert code == EXIT_OK
    doc = strict_json(out)
    first = doc["entries"][0]
    assert first["upper"] is None  # e^ln_upper exceeds a double
    assert first["ln_upper"] == pytest.approx(1327.94799041, rel=1e-9)
    assert first["lower"] == pytest.approx(math.exp(first["ln_lower"]), rel=1e-11)


def test_eval_log_beyond_double_range(capsys):
    mix = "sum 2 2\nsum 3 3\nsum 4 4\nmax 5 5\nmax 6 6"
    code, out, _ = run(capsys, "eval", "--spec-text", mix, "--n", "200")
    assert code == EXIT_OK
    n, ln, value = out.strip().splitlines()[200].split("\t")
    assert n == "200" and float(ln) > 709.8 and value == "inf"
    code, out, _ = run(capsys, "eval", "--spec-text", mix, "--n", "200", "--format", "json")
    assert code == EXIT_OK
    doc = strict_json(out)
    assert doc["values"][200] is None
    assert doc["values"][1] == 20.0
    code, out, _ = run(capsys, "eval", "--spec-text", mix, "--n", "200", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[-1].endswith(",inf")


@pytest.mark.parametrize("fmt", ["text", "json", "csv", "bfile"])
def test_eval_exact_prints_values_past_the_int_digit_limit(capsys, fmt):
    # s_1300 = 1000^1300 C_1300 has 4,680 digits, past CPython's default
    # int_max_str_digits of 4,300, which is restored after the output
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "eval", "--spec-text", "sum 2 1000", "--domain", "exact",
                         "--n", "1300", "--format", fmt)
    assert (code, err) == (EXIT_OK, "")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        want = str(1000 ** 1300 * (math.comb(2600, 1300) // 1301))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) > 4300
    if fmt == "json":
        last = strict_json(out)["values"][-1]
    else:
        last = out.split()[-1].split(",")[-1]
    assert last == want
