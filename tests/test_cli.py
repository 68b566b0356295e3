"""Command line front end: outputs, formats, exit codes, cache plumbing."""

import json
import math

import pytest

from foldrate.cli import (
    EXIT_OK,
    EXIT_USAGE,
    CACHE_DIR_ENV,
    main,
)


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
    doc = json.loads(out)
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
    doc = json.loads(out)
    assert doc["best"]["lower"] == 2.0  # the pure-max lower bound is exact
    assert doc["best"]["upper"] >= 2.0
    assert [e["n"] for e in doc["entries"]] == [2, 4, 8, 16, 32, 64]


def test_bounds_csv(capsys):
    code, out, _ = run(
        capsys, "bounds", "--spec-text", "sum 2 1", "--n", "16", "--format", "csv"
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "n,ln_lower,ln_upper,lower,upper,ratio"
    assert len(lines) == 5


def test_bounds_rejects_tiny_n(capsys):
    code, _, err = run(capsys, "bounds", "--spec-text", "sum 2 1", "--n", "1")
    assert code == EXIT_USAGE
    assert "at least 2" in err


def test_refine_json(capsys):
    code, out, _ = run(
        capsys, "refine", "--spec-text", "sum 2 1", "--epsilon", "0.5",
        "--max-n", "4096",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["best"]["lower"] <= 4.0 <= doc["best"]["upper"]


def test_refine_unconverged_still_reports(capsys):
    code, out, _ = run(
        capsys, "refine", "--spec-text", "sum 2 1", "--epsilon", "1e-6",
        "--max-n", "4",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["converged"] is False
    assert doc["reason"] == "length budget exhausted"


def test_oracle_small(capsys):
    code, out, _ = run(capsys, "oracle", "--spec-text", "sum 2 1", "--max-n", "5")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all("sum=s_n=ok" in line and "subtree-interval=ok" in line for line in lines)


def test_oracle_rejects_n_beyond_cap(capsys):
    code, _, err = run(capsys, "oracle", "--spec-text", "sum 2 1", "--max-n", "40")
    assert code == EXIT_USAGE
    assert "size-cap" in err


def test_known_catalan(capsys):
    code, out, _ = run(capsys, "known", "catalan", "--max-n", "512")
    assert code == EXIT_OK
    assert "PASS" in out


def test_known_bad_kfold_argument(capsys):
    code, _, err = run(capsys, "known", "kfold:x")
    assert code == EXIT_USAGE


def test_known_unknown_name(capsys):
    code, _, err = run(capsys, "known", "motzkin")
    assert code == EXIT_USAGE


def test_bench_json(capsys):
    code, out, _ = run(
        capsys, "bench", "--spec-text", "sum 2 1", "--n", "64", "--format", "json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert set(doc) == {"n", "seconds_n", "seconds_2n", "ratio", "exponent"}
    assert doc["seconds_2n"] > 0


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


def test_help_exits_cleanly(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == EXIT_OK
    assert "eval" in out and "refine" in out


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
        capsys, "bounds", "--spec-text", "sum 2 1", "--n", "32", "--cache", cache
    )
    assert code == EXIT_OK
    # the cached table is log-domain; asking for exact must refuse
    code, _, err = run(
        capsys, "eval", "--spec-text", "sum 2 1", "--n", "10", "--cache", cache,
        "--domain", "exact",
    )
    assert code == EXIT_USAGE
    assert "log-domain" in err


def test_cache_rejects_different_spec(tmp_path, capsys):
    cache = str(tmp_path / "cat.seq")
    run(capsys, "eval", "--spec-text", "sum 2 1", "--n", "10", "--cache", cache)
    code, _, err = run(
        capsys, "eval", "--spec-text", "sum 2 2", "--n", "10", "--cache", cache
    )
    assert code == EXIT_USAGE
    assert "different recurrence" in err


def test_cache_dir_env_resolves_bare_names(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    code, _, _ = run(
        capsys, "eval", "--spec-text", "sum 2 1", "--n", "8", "--cache", "bare.seq"
    )
    assert code == EXIT_OK
    assert (tmp_path / "bare.seq").exists()


def test_bounds_with_overflowing_upper_prints_null(capsys):
    code, out, _ = run(capsys, "bounds", "--spec-text", "sum 2 1\nmax 48 1", "--n", "64")
    assert code == EXIT_OK
    doc = json.loads(out)
    first = doc["entries"][0]
    assert first["upper"] is None  # e^ln_upper exceeds a double
    assert first["ln_upper"] == pytest.approx(1375.4902845, rel=1e-9)
    assert first["lower"] == pytest.approx(math.exp(first["ln_lower"]), rel=1e-11)


def test_eval_log_beyond_double_range(capsys):
    mix = "sum 2 2\nsum 3 3\nsum 4 4\nmax 5 5\nmax 6 6"
    code, out, _ = run(capsys, "eval", "--spec-text", mix, "--n", "200")
    assert code == EXIT_OK
    n, ln, value = out.strip().splitlines()[200].split("\t")
    assert n == "200" and float(ln) > 709.8 and value == "inf"
    code, out, _ = run(capsys, "eval", "--spec-text", mix, "--n", "200", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["values"][200] is None
    assert doc["values"][1] == 20.0
    code, out, _ = run(capsys, "eval", "--spec-text", mix, "--n", "200", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[-1].endswith(",inf")
