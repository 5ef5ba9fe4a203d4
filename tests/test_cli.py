"""Command line behavior: outputs, determinism, and exit codes."""

import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fstirling import cli, fharmonic, stirling
from fstirling.cli import main
from fstirling.fspec import MEMO, FSpecError, check_config, linear, parse_fspec
from fstirling.laurent import LaurentPoly
from fstirling.report import digits_unlimited, render_value

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC_ENV = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
# Block-buffered stdout, as a command writing to a pipe or file has by default,
# so that output the command leaves unflushed would be lost.
BUFFERED_ENV = {k: v for k, v in SRC_ENV.items() if k != "PYTHONUNBUFFERED"}
# The two ways the command process starts: `python -m fstirling.cli` and the
# `fstirling` console script, which calls `console_main()`.
ENTRIES = {
    "module": ["-m", "fstirling.cli"],
    "console": ["-c", "from fstirling.cli import console_main\nconsole_main()\n"],
}


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


# CSV documents whose fields are ints, Laurent polynomials in t (numeric and
# symbolic), rationals past the digit limit, fixed decimals, and a header alone.
CSV_COMMANDS = {
    "s1-numeric-t": "triangle --kind s1 --f linear:2,1 --t 3/2 --rows 5",
    "s1-symbolic-t": "triangle --kind s1 --f linear:2,1 --t symbolic --rows 5",
    "s2-qpow": "triangle --kind s2 --f qpow:1 --t -2/5 --rows 5",
    "s1-past-the-digit-limit": "triangle --f linear:1,0 --t 1/1000 --rows 60",
    "convpoly": "convpoly --f linear:2,1 --t 3/2 --n-max 4 --x-max 9",
    "convpoly-decimal": "convpoly --f linear:2,1 --t 3/2 --n-max 4 --x-max 9 --decimal 7",
    "convpoly-sigma~": "convpoly --f linear:2,1 --t -2/5 --variant sigma~ --n-max 3 --x-max 8",
    "header-only": "convpoly --f linear:1,0 --n-max 0 --x-max 0",
}


@pytest.mark.parametrize("command", CSV_COMMANDS.values(), ids=list(CSV_COMMANDS))
def test_csv_is_what_the_csv_module_writes(command, tmp_path, capsys):
    """The bytes the csv module's default dialect writes for the same rows:
    CRLF line ends and no quoted field."""
    path = tmp_path / "out.csv"
    assert run_cli(command.split() + ["--output", str(path)], capsys) == (0, "", "")
    text = path.read_bytes().decode()
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] in (["n", "k", "entry"], ["n", "x", "value"])
    assert {len(row) for row in rows} == {3}
    rewritten = io.StringIO()
    csv.writer(rewritten).writerows(rows)
    assert rewritten.getvalue() == text


@pytest.mark.parametrize("command,lines", [
    ("triangle --f linear:2,1 --t symbolic --rows 20", 1 + 21 * 22 // 2),
    ("convpoly --f linear:2,1 --t 3/2 --n-max 4 --x-max 9", 1 + 9 + 8 + 7 + 6 + 5),
], ids=["triangle", "convpoly"])
def test_csv_reaches_the_writer_a_line_at_a_time(command, lines, monkeypatch, capsys):
    chunks = []
    monkeypatch.setattr(cli, "_emit", lambda pieces, path: chunks.extend(pieces))
    assert run_cli(command.split(), capsys) == (0, "", "")
    assert all(chunk.endswith("\r\n") and chunk.count("\n") == 1 for chunk in chunks)
    assert len(chunks) == lines


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


def test_each_command_starts_from_an_empty_triangle_store(capsys):
    MEMO.clear()
    stirling.s1_triangle(linear(1, 0), LaurentPoly.constant(1), 5)
    args = ["triangle", "--f", "linear:2,1", "--t", "3/2", "--rows", "3"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert [(kind, spec.render()) for kind, spec, _ in MEMO] == [("s1", "linear:2,1")]
    assert run_cli(args, capsys) == (0, out, "")


def test_each_command_starts_from_an_empty_direct_sum_store(capsys):
    MEMO.clear()
    fharmonic.fharmonic_direct(linear(1, 0), 2, 5, 1)
    args = ["harmonic", "--f", "linear:2,1", "--t", "3/2", "--p", "2", "--n", "4"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert [(kind, spec.render(), p) for kind, spec, p, _ in MEMO] == [
        ("direct", "linear:2,1", 2)]
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
    tp = LaurentPoly.constant(Fraction(3, 2)) if t_json == "3/2" else LaurentPoly.variable("t")
    assert payloads["s2"]["rows"] == [
        [render_value(stirling.s2_row(linear(2, 1), tp, n, k + 1)[k]) for k in range(n + 1)]
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


def test_harmonic_t_defaults_to_one_and_subst_is_not_a_method(capsys):
    base = ["harmonic", "--f", "linear:2,1", "--p", "2", "--n", "3"]
    for method in ("direct", "ftilde", "roots"):
        argv = base + ["--method", method]
        assert run_cli(argv, capsys) == run_cli(argv + ["--t", "1"], capsys) == (0, "1891/11025\n", "")
    code, out, err = run_cli(base + ["--method", "subst"], capsys)
    assert (code, out) == (2, "")
    assert "error: argument --method: invalid choice: 'subst'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("p", [4, 6])
def test_roots_route_at_composite_order(p, capsys):
    base = ["harmonic", "--f", "linear:2,1", "--t", "3/2", "--p", str(p), "--n", "5"]
    direct = run_cli(base + ["--method", "direct"], capsys)
    assert direct[0] == 0
    assert run_cli(base + ["--method", "roots"], capsys) == direct


@pytest.mark.parametrize("f,t", [
    ("linear:2,1", "3/2"), ("linear:2,1", "symbolic"), ("qpow:1", "1"),
    ("table:" + os.path.join(ROOT, "tests", "data", "table12.json"), "3/2"),
], ids=["linear-3/2", "linear-symbolic", "qpow-1", "table-3/2"])
def test_harmonic_routes_check_the_roots_route_at_every_order(f, t):
    spec = parse_fspec(f)
    (rep,) = cli.run_suite("harmonic-routes", spec, check_config(spec, t), 6)
    roots = {c.indices[:2] for c in rep.cells if c.indices[2] == "roots"}
    assert roots == {(m, p) for m in range(7) for p in range(1, 6)}
    assert rep.passed


def test_negative_fraction_after_t_is_its_value(capsys):
    base = ["triangle", "--f", "linear:1,0", "--rows", "2"]
    code, out, err = run_cli(base + ["--t", "-2/5"], capsys)
    assert (code, err) == (0, "")
    assert run_cli(base + ["--t=-2/5"], capsys) == (0, out, "")
    code, out, err = run_cli(["triangle", "--f", "linear:1,0", "--t", "--rows", "2"], capsys)
    assert (code, out) == (2, "")
    assert "argument --t: expected one argument" in err


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


def test_documents_are_the_recorded_bytes(capsys):
    """triangle of both kinds and convpoly, CSV and JSON: stdout byte for byte
    as recorded in tests/data/golden_outputs.json."""
    with open(os.path.join(ROOT, "tests", "data", "golden_outputs.json")) as fh:
        golden = json.load(fh)
    assert len(golden) == 22
    for command, text in golden.items():
        assert run_cli(command.split(), capsys) == (0, text, ""), command


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


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int-to-string digit limit")
def test_outside_input_is_parsed_under_the_digit_limit(tmp_path, capsys):
    """main lifts the digit limit for the command's own numbers only: an
    oversized --t or table: value is still rejected, and the limit is back
    after every command."""
    limit = sys.get_int_max_str_digits()
    table = tmp_path / "big.json"
    table.write_text(f"[{'1' * 5000}]")
    rejected = [
        (["triangle", "--f", "linear:1,0", "--t", "1" * 5000 + "/3", "--rows", "1"],
         "error: bad t value"),
        (["triangle", "--f", f"table:{table}", "--rows", "1"], "error: malformed fspec"),
    ]
    for argv, message in rejected:
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err.startswith(message)) == (2, "", True)
        assert sys.get_int_max_str_digits() == limit
    for argv, code in [
        (["harmonic", "--f", "linear:1,0", "--p", "0", "--n", "3"], 2),
        (["eulersum", "--f", "linear:1,0", "--r", "2", "--N", "3000"], 0),
        (["verify", "--suite", "wf", "--f", "linear:1,0", "--max-n", "2"], 0),
    ]:
        assert run_cli(argv, capsys)[0] == code
        assert sys.get_int_max_str_digits() == limit


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


DECIMAL_NEEDS_A_RATIONAL = "--decimal needs numeric f and t"
NO_DIR = "/nonexistent/d/x.csv"


def _bad_table(name):
    """A triangle command over the table file ``name`` of tests/data, whose one
    entry that is not a number or a string makes it malformed, and its message."""
    f = "table:" + os.path.join(ROOT, "tests", "data", name)
    with pytest.raises(TypeError) as reason:  # the interpreter's wording
        Fraction(None)
    return ["triangle", "--f", f, "--rows", "2"], f"malformed fspec {f!r}: {reason.value}"


# Table files the test writes to its working directory; the deep one is too
# large to keep in tests/data.
TABLE_FILES = {"bool.json": "[true, 2, 3]", "infinity.json": "[Infinity, 2]",
               "deep.json": "[" * 100_000 + "]" * 100_000,
               "exponent.json": "[1e200000, 2]", "exponent-text.json": '["1e200000", 2]'}
# An exponent is held to the int-to-string digit limit, as a digit string is.
PAST_THE_LIMIT = f"exponent 200000 exceeds the limit ({sys.get_int_max_str_digits()} digits)"


def _written_table(name, message):
    return ["triangle", "--f", f"table:{name}", "--rows", "2"], message


def _too_deep():
    with pytest.raises(RecursionError) as reason:  # the interpreter's wording
        json.loads(TABLE_FILES["deep.json"])
    return _written_table("deep.json", f"malformed fspec 'table:deep.json': {reason.value}")


@pytest.mark.parametrize("argv,message", [
    (["triangle", "--f", "linear:1,0", "--t", "0", "--rows", "3"], "t must be nonzero"),
    (["harmonic", "--f", "linear:1,0", "--p", "0", "--n", "3"], "order p must be >= 1"),
    (["harmonic", "--f", "linear:1,0", "--p", "0", "--n", "3", "--method", "roots"],
     "order p must be >= 1"),
    (["eulersum", "--f", "linear:1,0", "--r", "2", "--N", "0"], "N must be >= 1"),
    (["convpoly", "--f", "linear:2,1", "--n-max", "1", "--x-max", "3", "--format", "json",
      "--decimal", "4"], "--decimal applies only to --format csv"),
    (["convpoly", "--f", "linear:1,0", "--t", "symbolic", "--n-max", "1", "--x-max", "3",
      "--decimal", "3"], DECIMAL_NEEDS_A_RATIONAL),
    (["convpoly", "--f", "qpow:1", "--n-max", "1", "--x-max", "3", "--decimal", "3"],
     DECIMAL_NEEDS_A_RATIONAL),
    (["harmonic", "--f", "linear:1,0", "--t", "symbolic", "--p", "2", "--n", "3",
      "--decimal", "3"], DECIMAL_NEEDS_A_RATIONAL),
    (["harmonic", "--f", "qpow:1", "--p", "2", "--n", "0", "--decimal", "3"],
     DECIMAL_NEEDS_A_RATIONAL),
    (["triangle", "--f", "linear:1,0", "--rows", "3", "--output", NO_DIR],
     f"cannot write {NO_DIR}: No such file or directory"),
    (["verify", "--suite", "all", "--f", "linear:1,0", "--output", os.curdir],
     f"cannot write {os.curdir}: Is a directory"),
    _bad_table("table_null.json"),
    _bad_table("table_list.json"),
    _bad_table("table_object.json"),
    _written_table("bool.json", "table contains a boolean value"),
    _written_table("infinity.json",
                   "malformed fspec 'table:infinity.json': Infinity is not a rational number"),
    _too_deep(),
    (["triangle", "--f", "linear:1,0", "--t", "1e200000", "--rows", "2"],
     f"bad t value '1e200000': {PAST_THE_LIMIT}"),
    (["triangle", "--f", "linear:1e200000,0", "--rows", "2"],
     f"malformed fspec 'linear:1e200000,0': {PAST_THE_LIMIT}"),
    _written_table("exponent.json", f"malformed fspec 'table:exponent.json': {PAST_THE_LIMIT}"),
    _written_table("exponent-text.json",
                   f"malformed fspec 'table:exponent-text.json': {PAST_THE_LIMIT}"),
    # f(1) = 2^(1 + offset) is judged from bit lengths, before the power is built.
    (["triangle", "--f", "qpow:2,300000", "--t", "1", "--rows", "2"],
     f"f(1) of qpow:2,300000 exceeds the limit ({sys.get_int_max_str_digits()} digits)"),
    (["triangle", "--f", "qpow:2,-300000", "--t", "1", "--rows", "2"],
     f"f(1) of qpow:2,-300000 exceeds the limit ({sys.get_int_max_str_digits()} digits)"),
], ids=["t-zero", "harmonic-p", "roots-p", "eulersum-N", "convpoly-json-decimal",
        "convpoly-decimal-symbolic-t", "convpoly-decimal-symbolic-f",
        "harmonic-decimal-symbolic-t", "harmonic-decimal-symbolic-f", "triangle-output-missing-dir",
        "verify-output-is-a-directory", "table-null-entry", "table-list-entry",
        "table-object-entry", "table-bool-entry", "table-infinity-entry",
        "table-deep-nesting", "t-exponent", "linear-exponent", "table-float-exponent",
        "table-string-exponent", "qpow-exponent", "qpow-negative-exponent"])
def test_bad_input_is_a_usage_error(argv, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in TABLE_FILES.items():
        (tmp_path / name).write_text(text)
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("text,entry", [("[0.1, 2, 3]", "1/10"), ("[1e400, 2]", str(10 ** 400))],
                         ids=["decimal", "exponent"])
def test_table_numbers_are_read_from_their_text(text, entry, tmp_path, capsys):
    """A JSON number in a table file is the rational its text writes, as a
    number in the DSL is, not the float nearest to it."""
    table = tmp_path / "table.json"
    table.write_text(text)
    code, out, err = run_cli(["triangle", "--f", f"table:{table}", "--rows", "2"], capsys)
    assert (code, err) == (0, "")
    assert f"2,1,{entry}" in out.splitlines()


def test_a_library_value_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(*args):
        raise ValueError("internal fault")

    monkeypatch.setattr(fharmonic, "fharmonic_direct", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["harmonic", "--f", "linear:1,0", "--p", "2", "--n", "3"])


@pytest.mark.parametrize("existed", [False, True], ids=["new-path", "existing-file"])
def test_a_command_that_fails_removes_only_the_output_file_it_created(
        existed, tmp_path, capsys, monkeypatch):
    """verify opens --output before its first suite runs. When a later suite
    fails with an error, it removes a file it created and leaves a file that
    was already there."""
    def broken(*args):
        raise ValueError("internal fault")

    monkeypatch.setattr(fharmonic, "corollary_expansions_check", broken)
    report = tmp_path / "report.json"
    if existed:
        report.write_text("[]\n")
    with pytest.raises(ValueError, match="internal fault"):
        main(["verify", "--suite", "all", "--f", "linear:1,0", "--output", str(report)])
    assert capsys.readouterr().out.splitlines()[-1].split()[1] == "wf"
    assert report.exists() == existed


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
    ["eulersum", "--help"],
], ids=["fails-at-exit-flush", "fails-mid-write", "help-fails-at-exit-flush"])
def test_a_closed_pipe_exits_141_without_a_traceback(argv):
    """As `fstirling triangle ... | head` does once head has exited."""
    for lead in ENTRIES.values():
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, *lead, *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, env=BUFFERED_ENV)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")


def test_a_reader_that_leaves_mid_write_ends_the_command_with_141():
    """As `fstirling eulersum ... | head -c 1` does: the reader takes one byte
    of the 104 KB value and closes the pipe while the command still writes."""
    argv = ["eulersum", "--f", "linear:1,0", "--r", "2", "--N", "30000"]
    for lead in ENTRIES.values():
        proc = subprocess.Popen([sys.executable, *lead, *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=BUFFERED_ENV)
        assert len(proc.stdout.read(1)) == 1
        proc.stdout.close()
        code = proc.wait(timeout=60)
        with proc.stderr:
            assert (code, proc.stderr.read()) == (141, b"")


@pytest.mark.parametrize("argv,code", [
    (["eulersum", "--f", "linear:2,1", "--r", "2", "--N", "3000", "--decimal", "7"], 0),
    (["verify", "--suite", "wf", "--f", "linear:2,1", "--t", "3/2", "--output"], 0),
    (["verify", "--suite", "prop1", "--f", "linear:1,0", "--max-n", "4", "--output"], 1),
    (["eulersum", "--f", "linear:1", "--r", "2", "--N", "5", "--output"], 2),
    (["verify", "--suite", "all", "--f", "linear:2,1", "--output", os.curdir], 2),
    # argparse prints the help text and ends the command with nothing flushed.
    (["eulersum", "--help"], 0),
], ids=["exit-0", "verify-exit-0", "verify-prop1-exit-1", "bad-spec-exit-2",
        "verify-output-is-a-directory-exit-2", "help-exit-0"])
def test_both_entries_and_main_give_the_same_exit(argv, code, tmp_path, capsys):
    """Exit code, stdout, stderr and --output file of each entry, and of
    `main(argv)`, which returns its code in-process."""
    def argv_for(name):
        return [*argv, str(tmp_path / name)] if argv[-1] == "--output" else argv

    def report(name):
        path = tmp_path / name
        return path.read_text() if path.exists() else None

    results = []
    for name, lead in ENTRIES.items():
        proc = subprocess.run([sys.executable, *lead, *argv_for(name)],
                              capture_output=True, text=True, env=BUFFERED_ENV)
        results.append((proc.returncode, proc.stdout, proc.stderr, report(name)))
    results.append((*run_cli(argv_for("main"), capsys), report("main")))
    assert results[0][0] == code
    assert results[0] == results[1] == results[2]


# Makes the `wf` suite raise, then starts the command as the given entry does.
FAULT = """
import runpy, sys
from fstirling import fharmonic
def broken(*args):
    raise ZeroDivisionError("internal fault")
fharmonic.s1_from_wf_check = broken
if sys.argv.pop(1) == "module":
    runpy.run_module("fstirling.cli", run_name="__main__")
else:
    from fstirling.cli import console_main
    console_main()
"""


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_a_program_fault_exits_1_with_its_traceback(entry):
    proc = subprocess.run(
        [sys.executable, "-c", FAULT, entry, "verify", "--suite", "wf", "--f", "linear:1,0"],
        capture_output=True, text=True, env=BUFFERED_ENV)
    assert proc.returncode == 1
    assert proc.stderr.startswith("Traceback (most recent call last)")
    assert proc.stderr.endswith("ZeroDivisionError: internal fault\n")


def _modules_loaded_by(argv):
    """The module names a fresh interpreter holds after running one command, as
    the command runs it: ``main()`` reads the arguments from ``sys.argv``."""
    script = ("import sys\nfrom fstirling.cli import main\nmain()\n"
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
      "fstirling.cyclotomic", "fstirling.pool"}),
    (["triangle", "--f", "linear:1,0", "--rows", "0"],
     {"csv", "fstirling.fharmonic", "fstirling.convpoly", "fstirling.cyclotomic",
      "fstirling.pool"}),
    (["convpoly", "--f", "linear:2,1", "--n-max", "2", "--x-max", "4"],
     {"csv", "fstirling.fharmonic", "fstirling.cyclotomic", "fstirling.eulersum",
      "fstirling.pool"}),
    (["harmonic", "--f", "linear:2,1", "--t", "3/2", "--p", "4", "--n", "5", "--method", "ftilde"],
     {"fstirling.series", "fstirling.convpoly", "fstirling.pool"}),
    # One suite never forks, so it does not load the worker pool.
    (["verify", "--suite", "euler-sum-numeric", "--f", "linear:2,1"], {"fstirling.pool"}),
], ids=["eulersum", "triangle", "convpoly", "harmonic-ftilde", "verify-one-suite"])
def test_a_command_loads_only_the_modules_it_runs(argv, absent):
    loaded = _modules_loaded_by(argv)
    assert "fstirling.cli" in loaded
    assert loaded & (absent | {"dataclasses"}) == set()


def test_verify_loads_every_module_the_tracer_wraps():
    loaded = _modules_loaded_by(["verify", "--suite", "s1-oracle", "--f", "linear:1,0",
                                 "--max-n", "2"])
    assert _tracer_target_modules() - loaded == set()


TABLE = "table:" + os.path.join(ROOT, "tests", "data", "table12.json")


@pytest.mark.parametrize("f", ["qpow:1/3,0", "qpow:1/5,0"])
def test_euler_sum_numeric_beyond_the_float_range(f, tmp_path, capsys):
    # The sums pass 10^308; for qpow:1/5,0 their integer parts have 5600 digits.
    report = tmp_path / "report.json"
    code, out, err = run_cli(["verify", "--suite", "euler-sum-numeric", "--f", f, "--t", "1",
                              "--output", str(report)], capsys)
    assert (code, out, err) == (0, "pass  euler-sum-numeric    (1 cells)\n", "")
    assert json.loads(report.read_text())[0]["cells"][0]["note"].startswith("partial sum ")


def test_euler_sum_numeric_note_is_the_eulersum_decimal_digits(tmp_path, capsys):
    report = tmp_path / "report.json"
    run_cli(["verify", "--suite", "euler-sum-numeric", "--f", "linear:2,1",
             "--output", str(report)], capsys)
    note = json.loads(report.read_text())[0]["cells"][0]["note"]
    code, digits, _ = run_cli(["eulersum", "--f", "linear:2,1", "--r", "2", "--N", "2000",
                               "--decimal", "7"], capsys)
    assert (code, digits) == (0, "0.0346177\n")
    assert note == f"partial sum {digits.strip()} vs zeta-form {digits.strip()}"


@pytest.mark.parametrize("suite,f,t,note", [
    ("s2star-ogf", "qpow:1", "3/2", "modified-number transforms need numeric f values"),
    ("s2star-egf", "qpow:1", "3/2", "modified-number transforms need numeric f values"),
    ("prop1", "qpow:1", "3/2", "substitution parameter requires numeric f values"),
    ("experimental-fit", "qpow:1", "3/2", "experimental fit requires numeric f and t"),
    ("euler-sum-numeric", "qpow:1", "3/2", "numeric series require numeric f values"),
    ("euler-sum-numeric", TABLE, "1", "finite f table cannot support the series truncation"),
    ("experimental-fit", "linear:2,1", "symbolic", "experimental fit requires numeric f and t"),
])
def test_a_suite_that_does_not_apply_writes_one_skip_cell(suite, f, t, note):
    spec = parse_fspec(f)
    reports = cli.run_suite(suite, spec, check_config(spec, t), 8)
    assert [r.to_json() for r in reports] == [{
        "identity": suite,
        # str(tp) of the checked t: the same text as given, "t" for symbolic
        "params": {"f": spec.render(), "t": "t" if t == "symbolic" else t},
        "pass": True,
        "cells": [{"indices": [], "lhs": "None", "rhs": "None", "residual": None,
                   "pass": True, "note": note}],
    }]


def test_each_suite_runs_to_the_depth_of_its_table_entry():
    spec, tp = linear(2, 1), LaurentPoly.constant(Fraction(3, 2))

    def cells(name, max_n):
        with digits_unlimited():
            return [c.to_json() for r in cli.run_suite(name, spec, tp, max_n) for c in r.cells]

    for name, (cap, _, _) in cli.SUITE_TABLE.items():
        if cap is None:  # a fixed depth of its own
            assert cells(name, 0) == cells(name, 8), name
        elif cap == cli.NO_CAP:  # runs to --max-n itself, past every cap
            assert len(cells(name, 12)) < len(cells(name, 15)), name
        else:
            assert cells(name, cap) == cells(name, cap + 3), name
            assert len(cells(name, cap - 1)) < len(cells(name, cap)), name
    # Each suite records the depth it ran to, not --max-n as given.
    assert cli.run_suite("harmonic-routes", spec, tp, 13)[0].params["max_n"] == 10
    assert cli.run_suite("s1-oracle", spec, tp, 15)[0].params["N"] == 12


# Random configurations: f is linear, poly of degree <= 2, a 20-entry table, or
# q-power with a numeric base or symbolic; t is a nonzero rational or symbolic.
RATIO = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 5))
F_DRAWS = st.one_of(
    st.tuples(st.just("linear"), st.tuples(RATIO, RATIO)),
    st.tuples(st.just("poly"), st.lists(RATIO, min_size=1, max_size=3).map(tuple)),
    st.tuples(st.just("table"), st.lists(RATIO, min_size=20, max_size=20).map(tuple)),
    st.tuples(st.just("qpow"), st.tuples(RATIO, st.integers(-2, 2))),
    st.tuples(st.just("qpow"), st.tuples(st.integers(-2, 2))),
)
T_DRAWS = st.one_of(RATIO.filter(bool), st.just("symbolic"))


def _f_text(kind, params, table_path):
    if kind == "table":
        with open(table_path, "w") as fh:
            json.dump([str(v) for v in params], fh)
        return f"table:{table_path}"
    return f"{kind}:" + ",".join(map(str, params))


def _rejects(kind, params, t) -> bool:
    """Whether f takes the value 0 (or 0 to a negative power) at some n <= 2000,
    or the configuration has two formal variables: the two FSpecErrors."""
    if kind == "qpow":
        return params[0] == 0 if len(params) == 2 else t == "symbolic"
    if kind == "table":
        return 0 in params
    coeffs = params[::-1] if kind == "linear" else params
    return any(not sum(c * n ** i for i, c in enumerate(coeffs)) for n in range(1, 2001))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(F_DRAWS, T_DRAWS)
# Sums past the float range once crashed the euler-sum-numeric note.
@example(("qpow", (Fraction(1, 3), 0)), Fraction(1))
def test_random_configurations_fail_only_the_as_printed_prop1_cells(f, t):
    kind, params = f
    with tempfile.TemporaryDirectory() as tmp:
        try:
            spec = parse_fspec(_f_text(kind, params, os.path.join(tmp, "f.json")))
            tp = check_config(spec, str(t))
            reports = [r for name in cli.SUITES for r in cli.run_suite(name, spec, tp, 4)]
        except FSpecError as exc:
            assert _rejects(kind, params, t), exc
            return
    failing = {(r.identity, c.indices) for r in reports for c in r.failures}
    assert all(identity == "prop1-recurrence" and "as-printed" in indices
               for identity, indices in failing), failing


@settings(max_examples=8, derandomize=True, deadline=None)
@given(F_DRAWS, T_DRAWS)
def test_random_configurations_exit_0_1_or_2(f, t):
    kind, params = f
    with tempfile.TemporaryDirectory() as tmp:
        f_text = _f_text(kind, params, os.path.join(tmp, "f.json"))
        # `--t=-2/5`: argparse takes a separate "-2/5" for an option
        code = main(["verify", "--suite", "all", "--f", f_text, f"--t={t}", "--max-n", "4"])
    assert code in (0, 1, 2)
    assert (code == 2) == _rejects(kind, params, t)


def test_the_readme_suite_table_is_the_code_table():
    with open(os.path.join(ROOT, "README.md")) as fh:
        rows = [line.split(" | ") for line in fh if line.startswith("| `")]
    # "| `s1-oracle`" -> "s1-oracle"; the f-spec table's rows name no suite.
    documented = {row[0][3:-1]: row[1] for row in rows if row[0][3:-1] in cli.SUITE_TABLE}

    def depth(cap):
        return ("fixed" if cap is None else "`--max-n`, no cap" if cap == cli.NO_CAP
                else f"`--max-n`, at most {cap}")

    assert list(documented) == cli.SUITES
    assert all(documented[name].startswith(depth(cap))
               for name, (cap, _, _) in cli.SUITE_TABLE.items())
