"""Command line behavior: outputs, determinism, and exit codes."""

import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from fstirling import fharmonic, stirling
from fstirling.cli import main
from fstirling.fspec import linear
from fstirling.report import digits_unlimited, render_value

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC_ENV = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_triangle_csv(capsys):
    code, out, err = run_cli(
        ["triangle", "--f", "linear:1,0", "--t", "1", "--rows", "4"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,entry"
    assert "4,2,11" in out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_triangle_entries_past_the_digit_limit(fmt, capsys):
    # At t = 1/1000 the row-60 entries have denominators of about 5300 digits,
    # past Python's default 4300-digit int-to-string limit.
    code, out, _ = run_cli(["triangle", "--f", "linear:1,0", "--t", "1/1000", "--rows", "60",
                            "--format", fmt], capsys)
    assert code == 0
    assert max(map(len, out.split(","))) > 4300


def test_triangle_json_round_trips(capsys):
    args = ["triangle", "--f", "linear:2,1", "--t", "3/2", "--rows", "5",
            "--format", "json"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["f"] == "linear:2,1"
    assert len(payload["rows"]) == 6
    # determinism: identical output on a second run
    code2, out2, _ = run_cli(args, capsys)
    assert out2 == out


def test_each_command_starts_from_an_empty_triangle_store(monkeypatch, capsys):
    monkeypatch.setattr(stirling, "S1_ROWS", {})
    stirling.s1_triangle(linear(1, 0), 1, 5)
    args = ["triangle", "--f", "linear:2,1", "--t", "3/2", "--rows", "3"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert [spec.render() for spec, _ in stirling.S1_ROWS] == ["linear:2,1"]
    assert run_cli(args, capsys) == (0, out, "")


def test_each_command_starts_from_an_empty_direct_sum_store(monkeypatch, capsys):
    monkeypatch.setattr(fharmonic, "DIRECT_SUMS", {})
    fharmonic.fharmonic_direct(linear(1, 0), 2, 5, 1)
    args = ["harmonic", "--f", "linear:2,1", "--t", "3/2", "--p", "2", "--n", "4"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert [(spec.render(), p) for spec, p, _ in fharmonic.DIRECT_SUMS] == [("linear:2,1", 2)]
    assert run_cli(args, capsys) == (0, out, "")


def test_second_kind_triangle(capsys):
    code, out, _ = run_cli(
        ["triangle", "--kind", "s2", "--f", "linear:1,0", "--t", "1",
         "--rows", "3", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][1][1] == "1"


@pytest.mark.parametrize("t_arg,t_json", [("1.5", "3/2"), ("sym", "symbolic")])
def test_second_kind_json_matches_first_kind_t_and_s2_entry(t_arg, t_json, capsys):
    payloads = {}
    for kind in ("s1", "s2"):
        code, out, _ = run_cli(
            ["triangle", "--kind", kind, "--f", "linear:2,1", "--t", t_arg,
             "--rows", "4", "--format", "json"], capsys
        )
        assert code == 0
        payloads[kind] = json.loads(out)
    assert payloads["s2"]["t"] == payloads["s1"]["t"] == t_json
    t = Fraction(3, 2) if t_json == "3/2" else "t"
    assert payloads["s2"]["rows"] == [
        [render_value(stirling.s2_entry(linear(2, 1), t, n, k)) for k in range(n + 1)]
        for n in range(5)
    ]


def test_harmonic_value_and_decimal(capsys):
    base = ["harmonic", "--f", "linear:1,0", "--t", "1", "--p", "2", "--n", "3"]
    for method in ("direct", "ftilde", "roots"):
        code, out, _ = run_cli(base + ["--method", method], capsys)
        assert code == 0
        assert out.strip() == "49/36"
    code, out, _ = run_cli(base + ["--decimal", "6"], capsys)
    assert out.strip() == "1.361111"


def test_harmonic_t_defaults_to_one_and_subst_works_at_u(capsys):
    base = ["harmonic", "--f", "linear:2,1", "--p", "2", "--n", "3"]
    for method in ("direct", "ftilde", "roots"):
        argv = base + ["--method", method]
        assert run_cli(argv, capsys) == run_cli(argv + ["--t", "1"], capsys) == (0, "1891/11025\n", "")
    assert run_cli(base + ["--method", "subst"], capsys) == (
        0, "1/9*u^2 + 1/25*u^4 + 1/49*u^6\n", "")


@pytest.mark.parametrize("argv", [
    ["triangle", "--f", "linear:2,1", "--t", "symbolic", "--rows", "8", "--format", "json"],
    ["triangle", "--kind", "s2", "--f", "linear:2,1", "--t", "3/2", "--rows", "6",
     "--format", "json"],
    ["convpoly", "--f", "linear:2,1", "--t", "symbolic", "--n-max", "2", "--x-max", "5",
     "--format", "json"],
    ["verify", "--suite", "all", "--f", "linear:2,1", "--t", "symbolic", "--max-n", "3"],
    ["verify", "--suite", "wf", "--f", "linear:2,1", "--t", "3/2", "--max-n", "3"],
], ids=["triangle-s1", "triangle-s2", "convpoly", "verify-all", "verify-one-suite"])
def test_json_output_is_the_standard_indent_2_text(argv, tmp_path, capsys):
    if argv[0] == "verify":
        report = tmp_path / "report.json"
        run_cli(argv + ["--output", str(report)], capsys)
        text = report.read_text()
    else:
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out.endswith("\n")
        text = out[:-1]
    assert text == json.dumps(json.loads(text), indent=2)


def test_convpoly_table(capsys):
    code, out, _ = run_cli(
        ["convpoly", "--f", "linear:1,0", "--t", "1", "--variant", "sigma",
         "--n-max", "2", "--x-max", "6"], capsys
    )
    assert code == 0
    assert "1,2,1/2" in out  # sigma_1(x) = 1/2


@pytest.mark.parametrize("t_arg,t_json", [("1.5", "3/2"), ("1", "1"), ("sym", "symbolic")])
def test_convpoly_json_prints_t_as_triangle_does(t_arg, t_json, capsys):
    payloads = {}
    for command, extra in (("convpoly", ["--n-max", "1", "--x-max", "3"]),
                           ("triangle", ["--rows", "1"])):
        code, out, _ = run_cli([command, "--f", "linear:2,1", "--t", t_arg, *extra,
                                "--format", "json"], capsys)
        assert code == 0
        payloads[command] = json.loads(out)
    assert payloads["convpoly"]["t"] == payloads["triangle"]["t"] == t_json


def test_eulersum(capsys):
    code, out, _ = run_cli(
        ["eulersum", "--f", "linear:1,0", "--r", "2", "--N", "2",
         "--mode", "harmonic_over_f"], capsys
    )
    assert code == 0
    assert out.strip() == "21/16"


def test_eulersum_exact_output_beyond_digit_limit(capsys):
    # The exact N=3000 value has more than 4300 digits, Python's default
    # int-to-string limit; rendering it must not fail.
    code, out, _ = run_cli(
        ["eulersum", "--f", "linear:1,0", "--r", "2", "--N", "3000"], capsys
    )
    assert code == 0
    assert len(out) > 4300
    harmonic, expected = Fraction(0), Fraction(0)
    for n in range(1, 3001):
        a = Fraction(1, n * n)
        harmonic += a
        expected += harmonic * a
    with digits_unlimited():
        assert Fraction(out.strip()) == expected


def test_eulersum_decimal_classic_euler_sum(capsys):
    # sum_{n<=10^5} H_n^(2)/n^2, whose limit is 7 pi^4/360 = 1.8940656...
    code, out, _ = run_cli(
        ["eulersum", "--f", "linear:1,0", "--r", "2", "--N", "100000",
         "--decimal", "7"], capsys
    )
    assert code == 0
    assert out == "1.8940492\n"


def test_eulersum_decimal_floors_negative_values(capsys):
    # -H_10 = -2.92896...; the printed digits are floor(v * 10^k).
    base = ["eulersum", "--f", "linear:-1,0", "--r", "1", "--N", "10",
            "--mode", "fzeta"]
    assert run_cli(base + ["--decimal", "3"], capsys)[1] == "-2.929\n"
    assert run_cli(base + ["--decimal", "0"], capsys)[1] == "-3.0\n"


def test_negative_decimal_is_a_usage_error(capsys):
    commands = [
        ["eulersum", "--f", "linear:1,0", "--r", "2", "--N", "10"],
        ["harmonic", "--f", "linear:1,0", "--p", "2", "--n", "3"],
        ["convpoly", "--f", "linear:1,0", "--n-max", "1", "--x-max", "3"],
    ]
    for argv in commands:
        code, out, err = run_cli(argv + ["--decimal", "-2"], capsys)
        assert code == 2
        assert out == ""
        assert "error: argument --decimal: must be >= 0" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["triangle", "--f", "linear:1,0", "--rows", "2", "--decimal", "3"],
    ["verify", "--suite", "wf", "--f", "linear:1,0", "--decimal", "3"],
    ["eulersum", "--f", "linear:1,0", "--r", "2", "--N", "10", "--t", "2"],
], ids=["triangle-decimal", "verify-decimal", "eulersum-t"])
def test_a_flag_the_command_does_not_read_is_rejected(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in err


@pytest.mark.parametrize("argv,flag", [
    (["triangle", "--kind", "s1", "--f", "linear:1,0"], "--rows"),
    (["triangle", "--kind", "s2", "--f", "linear:1,0"], "--rows"),
    (["harmonic", "--f", "linear:1,0", "--p", "2", "--method", "direct"], "--n"),
    (["harmonic", "--f", "linear:1,0", "--p", "2", "--method", "ftilde"], "--n"),
    (["convpoly", "--f", "linear:1,0", "--x-max", "3"], "--n-max"),
    (["convpoly", "--f", "linear:1,0", "--n-max", "1"], "--x-max"),
    (["verify", "--suite", "wf", "--f", "linear:1,0"], "--max-n"),
], ids=["triangle-s1", "triangle-s2", "harmonic-direct", "harmonic-ftilde",
        "convpoly-n-max", "convpoly-x-max", "verify"])
def test_negative_counts_are_usage_errors(argv, flag, capsys):
    code, out, err = run_cli(argv + [flag, "-1"], capsys)
    assert code == 2
    assert out == ""
    assert f"error: argument {flag}: must be >= 0, got -1" in err


@pytest.mark.parametrize("argv", [
    ["eulersum", "--f", "qpow:0,-2", "--r", "1", "--N", "3"],
    ["triangle", "--f", "qpow:0,-2", "--rows", "4"],
], ids=["eulersum", "triangle"])
def test_zero_base_to_a_negative_power_is_a_usage_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "error: f(1) = 0^-1 is undefined" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["triangle", "--f", "linear:1,0", "--t", "0", "--rows", "3"], "t must be nonzero"),
    (["harmonic", "--f", "linear:1,0", "--p", "0", "--n", "3"], "order p must be >= 1"),
    (["harmonic", "--f", "linear:1,0", "--p", "4", "--n", "3", "--method", "roots"],
     "root-of-unity route requires prime p, got 4"),
    (["eulersum", "--f", "linear:1,0", "--r", "2", "--N", "0"], "N must be >= 1"),
    (["convpoly", "--f", "linear:2,1", "--n-max", "1", "--x-max", "3", "--format", "json",
      "--decimal", "4"], "--decimal applies only to --format csv"),
    (["harmonic", "--f", "linear:2,1", "--p", "2", "--n", "3", "--method", "subst",
      "--t", "1"], "--t does not apply to --method subst, which works at t = u^p"),
], ids=["t-zero", "harmonic-p", "roots-non-prime", "eulersum-N", "convpoly-json-decimal",
        "subst-t"])
def test_bad_input_is_a_usage_error(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_library_value_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(*args):
        raise ValueError("internal fault")

    monkeypatch.setattr(fharmonic, "fharmonic_direct", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["harmonic", "--f", "linear:1,0", "--p", "2", "--n", "3"])


def test_verify_single_suite_exit_zero(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "s1-oracle", "--f", "linear:1,0", "--t", "1"], capsys
    )
    assert code == 0
    assert "s1-oracle" in out


def test_verify_report_file(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["verify", "--suite", "wf", "--f", "linear:2,1", "--t", "3/2",
         "--output", str(report)], capsys
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload[0]["identity"] == "s1-from-wf"
    assert payload[0]["pass"] is True
    assert {"indices", "lhs", "rhs", "residual", "pass"} <= set(payload[0]["cells"][0])


def test_verify_prop1_exit_one(capsys):
    # the as-printed recurrence cells are documented failures
    code, out, _ = run_cli(
        ["verify", "--suite", "prop1", "--f", "linear:1,0", "--t", "1",
         "--max-n", "4"], capsys
    )
    assert code == 1
    assert "FAIL" in out


def test_usage_errors_exit_two(capsys):
    assert run_cli(["verify", "--suite", "no-such", "--f", "linear:1,0"], capsys)[0] == 2
    assert run_cli(["harmonic", "--f", "bogus", "--p", "2", "--n", "3"], capsys)[0] == 2
    assert run_cli(["harmonic", "--f", "linear:1,0", "--t", "zebra",
                    "--p", "2", "--n", "3"], capsys)[0] == 2
    # bivariate configuration: symbolic f with symbolic t
    assert run_cli(["triangle", "--f", "qpow:1", "--t", "symbolic",
                    "--rows", "3"], capsys)[0] == 2


def test_the_environment_does_not_change_the_sweep_depth(capsys, monkeypatch):
    argv = ["verify", "--suite", "wf", "--f", "linear:1,0", "--max-n", "2"]
    expected = (0, "pass  wf                   (12 cells)\n", "")
    assert run_cli(argv, capsys) == expected
    monkeypatch.setenv("FSTIRLING_MAX_N", "20")
    assert run_cli(argv, capsys) == expected


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "fstirling.cli", "harmonic", "--f", "linear:1,0",
         "--t", "1", "--p", "2", "--n", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "49/36"


@pytest.mark.parametrize("argv", [
    ["triangle", "--f", "linear:1,0", "--rows", "3"],
    ["triangle", "--f", "linear:1,0", "--rows", "150", "--format", "json"],
], ids=["fails-at-exit-flush", "fails-mid-write"])
def test_a_closed_pipe_exits_141_without_a_traceback(argv):
    """As `fstirling triangle ... | head` does once head has exited."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "fstirling.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=SRC_ENV)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def _modules_loaded_by(argv):
    """The module names a fresh interpreter holds after running one command."""
    script = ("import sys\nfrom fstirling.cli import main\nmain(sys.argv[1:])\n"
              "print(*sorted(sys.modules), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=SRC_ENV, check=True)
    return set(proc.stderr.split())


def _tracer_target_modules():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {module for _, module, _ in tracer.TARGETS}


@pytest.mark.parametrize("argv,absent", [
    (["eulersum", "--f", "linear:1,0", "--r", "2", "--N", "10", "--decimal", "3"],
     {"fstirling.stirling", "fstirling.fharmonic", "fstirling.convpoly",
      "fstirling.cyclotomic"}),
    (["triangle", "--f", "linear:1,0", "--rows", "0"],
     {"fstirling.fharmonic", "fstirling.convpoly", "fstirling.cyclotomic"}),
], ids=["eulersum", "triangle"])
def test_a_command_loads_only_the_modules_it_runs(argv, absent):
    loaded = _modules_loaded_by(argv)
    assert "fstirling.cli" in loaded
    assert loaded & (absent | {"dataclasses"}) == set()


def test_verify_loads_every_module_the_tracer_wraps():
    loaded = _modules_loaded_by(["verify", "--suite", "s1-oracle", "--f", "linear:1,0",
                                 "--max-n", "2"])
    assert _tracer_target_modules() - loaded == set()
