"""The command-line surface: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time

import pytest

import nilheckeb
import reference
from nilheckeb import cli
from nilheckeb.report import SuiteReport


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_schur_text_example(capsys):
    code, out = run(capsys, ["schur", "--n", "2", "--alpha", "0,0", "--beta", "1", "--format", "text"])
    assert code == 0
    assert out == "w1 + x1^2*w2\n"


def test_poincare_text_example(capsys):
    code, out = run(capsys, ["poincare", "--n", "2"])
    assert code == 0
    assert out == "1 + 2q + 2q^2 + 2q^3 + q^4\n"


def test_poincare_reaches_rank_five(capsys):
    code, out = run(capsys, ["poincare", "--n", "5", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"n": 5, "coefficients": reference.oracle_poincare(5)}
    # the product formula has no group cap
    code, out = run(capsys, ["poincare", "--n", "8", "--format", "json"])
    assert code == 0
    assert sum(json.loads(out)["coefficients"]) == 10_321_920


def test_verify_all_passes(capsys):
    code, out = run(capsys, ["verify", "--n", "2", "--suite", "all",
                             "--trials", "5", "--seed", "42", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    names = [s["suite"] for s in payload["suites"]]
    assert any("weyl" in s for s in names)
    assert any("solomon" in s for s in names)
    for suite in payload["suites"]:
        assert suite["pass"] is True
        for check in suite["checks"]:
            assert set(check) == {"check", "pass", "detail"}


def test_verify_single_suite(capsys):
    code, out = run(capsys, ["verify", "--n", "2", "--suite", "demazure", "--trials", "5"])
    assert code == 0
    assert out.startswith("[PASS] suite demazure")


def test_verify_exit_two_on_failure(capsys, monkeypatch):
    broken = SuiteReport("stub")
    broken.add("always fails", False, "forced")
    monkeypatch.setattr(cli, "_verify_suites", lambda ns: [broken])
    code, out = run(capsys, ["verify", "--n", "2"])
    assert code == 2
    assert "FAIL" in out


def test_validation_failure_is_exit_one(capsys):
    for argv, fragment in [
        (["schur", "--n", "2", "--alpha", "0,0", "--beta", "7"], "7"),
        (["verify", "--n", "0"], "nhb verify: --n"),
        (["poincare", "--n", "0"], "nhb poincare: --n"),
        (["poincare", "--n", "-1"], "nhb poincare: --n"),
        (["verify", "--n", "2", "--trials", "0"], "nhb verify: --trials"),
        (["verify", "--n", "6", "--suite", "schur"], "nhb verify: the schur suite walks"),
        (["verify", "--n", "6", "--suite", "all"], "nhb verify: the schur suite walks"),
        (["verify", "--n", "7", "--suite", "nilhecke"], "nhb verify: the nilhecke suite"),
        (["verify", "--n", "2", "--trials", "-3"], "nhb verify: --trials"),
    ]:
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.out == ""
        assert fragment in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert elapsed < 5, argv  # before any work: these suites would run for minutes


def test_solomon_suite_passes_at_rank_six(capsys):
    code, out = run(capsys, ["verify", "--n", "6", "--suite", "solomon", "--format", "json"])
    payload = json.loads(out)
    assert code == 0 and payload["pass"]
    checks = [c for suite in payload["suites"] for c in suite["checks"]]
    assert checks and all(c["pass"] for c in checks)


@pytest.mark.parametrize("argv", [
    ["basis", "--n", "6", "--format", "json"],
    ["schur", "--n", "7", "--alpha", "0", "--beta", "1"],
], ids=["basis-6", "schur-7"])
def test_rank_six_and_seven_commands_finish(argv):
    # a fresh process, so the timeout bounds a command that would run for minutes
    src = os.path.dirname(os.path.dirname(nilheckeb.__file__))
    proc = subprocess.run([sys.executable, "-m", "nilheckeb.cli", *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_basis_is_capped_at_rank_seven():
    # a fresh process, so the timeout bounds an uncapped run (about 20 s and 500 MB at n = 8)
    src = os.path.dirname(os.path.dirname(nilheckeb.__file__))
    proc = subprocess.run([sys.executable, "-m", "nilheckeb.cli", "basis", "--n", "8"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "nhb basis: the invariant basis (2^n polynomials) is capped at n = 7\n"


def test_usage_errors_are_exit_sixty_four(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        cli.main(["schur"])  # missing required --n
    assert exc.value.code == 64
    assert cli.main([]) == 64


def test_deterministic_output(capsys):
    argv = ["verify", "--n", "2", "--suite", "schur", "--trials", "8",
            "--seed", "3", "--format", "json"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out = run(capsys, ["schur", "--n", "2", "--beta", "1,2", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text() == "w1*w2\n"


def test_unwritable_out_is_exit_one(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code = cli.main(["poincare", "--n", "4", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("nhb poincare: ")
    assert captured.err.count("\n") == 1
    assert not target.exists()


def test_basis_json_schema(capsys):
    code, out = run(capsys, ["basis", "--n", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert [layer["k"] for layer in payload] == [0, 1, 2]
    for layer in payload:
        assert layer["n"] == 2
        for poly in layer["basis"]:
            assert set(poly) == {"nvars", "odd", "terms"}
    assert len(payload[1]["basis"]) == 2


def test_schubert_word(capsys):
    code, out = run(capsys, ["schubert", "--n", "2", "--word", "1,2,1,2"])
    assert code == 0
    assert out == "x1^3*x2\n"


def test_nh_normal_form(capsys):
    code, out = run(capsys, ["nh", "--n", "2", "D(1)", "x1"])
    assert code == 0
    assert out == "1 + x2*D(1)\n"
    code, out = run(capsys, ["nh", "--n", "2", "D(1,1)"])
    assert code == 0
    assert out == "0\n"


def test_nh_multiplies_factors_in_order(capsys):
    code, out = run(capsys, ["nh", "--n", "2", "D(1)*x1"])
    assert code == 0
    assert out == "1 + x2*D(1)\n"
    code, out = run(capsys, ["nh", "--n", "2", "D(2)*D(1)*D(2) - D(2)*D(1)*D(2)"])
    assert code == 0
    assert out == "0\n"


def test_verify_solomon_passes_at_rank_one(capsys):
    # p = (1,) is admissible at n = 1, so every suite answers at every rank
    code, out = run(capsys, ["verify", "--n", "1", "--suite", "solomon", "--format", "json"])
    payload = json.loads(out)
    assert code == 0 and payload["pass"]
    [suite] = payload["suites"]
    assert suite["suite"] == "solomon module(n=1)"
    assert len(suite["checks"]) == 8 and all(c["pass"] for c in suite["checks"])
    code, out = run(capsys, ["solomon", "--n", "1"])
    assert code == 0
    assert out == "P =\n  [1]\nJ(w1) = 2*x1*dx1\n"


def test_dg_command(capsys):
    code, out = run(capsys, ["dg", "--n", "2", "--N", "2", "w1"])
    assert code == 0
    assert out == "-x1^4\n"


def test_solomon_command(capsys):
    code, out = run(capsys, ["solomon", "--n", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    assert len(payload["P"]) == 2
    assert len(payload["J"]) == 2


@pytest.mark.parametrize("command", ["parse", "nh"])
@pytest.mark.parametrize("text", ["", "+", "x1 ++ x2", "x1 - -x2", "x1 +"])
def test_misplaced_signs_are_exit_one(capsys, command, text):
    assert cli.main([command, "--n", "2", "--", text]) == 1
    assert "expected a term" in capsys.readouterr().err


@pytest.mark.parametrize("command,text,coeff", [
    ("parse", "3/0*x1", "3/0"),
    ("nh", "1/0*D(1)", "1/0"),
    ("nh", "x1*D(1) + 2/0", "2/0"),
])
def test_zero_denominators_are_exit_one(capsys, command, text, coeff):
    assert cli.main([command, "--n", "2", text]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"nhb {command}: coefficient '{coeff}' has a zero denominator\n"


@pytest.mark.parametrize("text,factor", [
    ("D(-1)", "D(-1)"),
    ("x1 - D(1,-2)", "D(1,-2)"),
    ("D(1+2)*x1", "D(1+2)"),
])
def test_a_sign_inside_a_dee_factor_names_the_factor(capsys, text, factor):
    assert cli.main(["nh", "--n", "2", text]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"nhb nh: cannot parse factor {factor!r}\n"


@pytest.mark.parametrize("argv,err", [
    (["schubert", "--n", "2", "--word", "1,,2"], "nhb schubert: --word '1,,2': '' is not an integer"),
    (["schur", "--n", "2", "--alpha", "2,,1"], "nhb schur: --alpha '2,,1': '' is not an integer"),
    (["schur", "--n", "2", "--beta", "1,x"], "nhb schur: --beta '1,x': 'x' is not an integer"),
])
def test_malformed_lists_name_the_option_and_the_token(capsys, argv, err):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err + "\n"


def test_parse_canonicalizes(capsys):
    code, out = run(capsys, ["parse", "--n", "2", "w2*w1 + x1*x1"])
    assert code == 0
    assert out == "x1^2 - w1*w2\n"


@pytest.mark.parametrize("argv,want", [
    (["parse", "--n", "2", "-x1"], "-x1\n"),
    (["parse", "--n", "2", "--", "-x1"], "-x1\n"),
    (["nh", "--n", "2", "-x1", "-D(1)"], "x1*D(1)\n"),
    (["dg", "--n", "2", "--N", "2", "-w1"], "x1^4\n"),
], ids=["parse", "parse-after-dashes", "nh", "dg"])
def test_expression_may_start_with_minus(capsys, argv, want):
    assert run(capsys, argv) == (0, want)


def test_dash_h_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["parse", "--n", "2", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: nhb parse")


def test_lone_minus_is_exit_one(capsys):
    assert cli.main(["parse", "--n", "2", "-"]) == 1
    assert "expected a term" in capsys.readouterr().err
