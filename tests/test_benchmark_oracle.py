"""The benchmark's independent oracle as a differential test.

``perfbench/oracles.py`` recomputes what a command must print from the
definitions alone, with no import of fstirling.  Here hypothesis draws
commands inside its domain (f ``linear``, the 12-entry table or a symbolic
``qpow:offset``; t rational or symbolic; first-kind ``triangle`` in CSV and
JSON, ``convpoly``, ``harmonic`` by each method and ``verify`` with
``--output``), runs each through ``cli.main`` in-process, and hands the exit
code and outputs to ``oracles.classify``.  An answer (exit 0 or 1) must be
``ok``; a usage error (exit 2), such as f(n) = 0 or an n past the table's
end, is allowed, as long as it is not a crash.
"""

import contextlib
import io
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fstirling.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import oracles  # noqa: E402
from workloads import Op  # noqa: E402

TABLE = "table:" + str(ROOT / "tests" / "data" / "table12.json")
RATIO = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
F_TEXT = st.one_of(
    st.builds("linear:{},{}".format, RATIO, RATIO),
    st.just(TABLE),
    st.integers(-2, 2).map("qpow:{}".format),
)
T_TEXT = st.one_of(RATIO.filter(bool).map(str), st.just("symbolic"))
# Each command without its --f and --t; the sizes reach past the table's end.
COMMANDS = st.one_of(
    st.tuples(st.integers(0, 13), st.sampled_from(["csv", "json"])).map(
        lambda c: ["triangle", "--rows", c[0], "--format", c[1]]),
    st.tuples(st.integers(0, 4), st.integers(0, 13)).map(
        lambda c: ["convpoly", "--n-max", c[0], "--x-max", c[1]]),
    st.tuples(st.integers(1, 6), st.integers(0, 13), st.sampled_from(["direct", "ftilde", "roots"]))
    .map(lambda c: ["harmonic", "--p", c[0], "--n", c[1], "--method", c[2]]),
    st.tuples(st.sampled_from(("all",) + oracles.SUITES), st.integers(0, 5)).map(
        lambda c: ["verify", "--suite", c[0], "--max-n", c[1]]),
)


def _run(op):
    """(code, stdout, stderr, --output text) of ``op`` through ``cli.main``;
    a verify op writes its report, as the benchmark's ops do."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp, "report.json")
        argv = list(op.argv) + (["--output", str(report)] if op.command == "verify" else [])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        text = report.read_text() if report.exists() else None
    return code, out.getvalue(), err.getvalue(), text


@settings(max_examples=60, derandomize=True, deadline=None)
@given(F_TEXT, T_TEXT, COMMANDS)
def test_every_answer_is_what_the_oracle_recomputes(f, t, command):
    op = Op(tuple(map(str, [command[0], "--f", f, "--t", t, *command[1:]])))
    code, out, err, report = _run(op)
    assert code in (0, 1, 2) and "Traceback" not in err, (code, err)
    status, reason, _ = oracles.classify(op, ROOT, code, out, err, report)
    assert status == ("error" if code == 2 else "ok"), (str(op), reason)


def test_the_oracle_rejects_a_corrupted_answer():
    """The harness is live: one changed digit of a real answer is ``wrong``."""
    op = Op(("harmonic", "--f", TABLE, "--t", "3/2", "--p", "2", "--n", "9",
             "--method", "roots"))
    code, out, err, _ = _run(op)
    assert oracles.classify(op, ROOT, code, out, err, None)[0] == "ok"
    digit = max(i for i, ch in enumerate(out) if ch.isdigit())
    bad = out[:digit] + str((int(out[digit]) + 1) % 10) + out[digit + 1:]
    assert oracles.classify(op, ROOT, code, bad, err, None)[0] == "wrong"
