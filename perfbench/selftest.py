"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs small real ops in-process, checks that each oracle accepts the real
output and counts the op failed for every deliberately corrupted copy of it,
checks the prop1 rule against the table in KNOWN_ISSUES.md, checks that two
traced runs repeat every count, and checks that the metric names a run
prints are exactly those of BENCHMARK.json.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import oracles
import run
import tracer as tracing
import workloads

sys.path.insert(0, str(run.ROOT / "src"))
from fstirling import cli  # noqa: E402

FAILURES: list = []


def expect(cond: bool, what: str):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def bump_last_digit(text: str) -> str:
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def edit_report(fn):
    """A corruption that edits the parsed --output report with ``fn``."""
    def corrupt(code, out, err, report):
        data = json.loads(report)
        fn(data)
        return code, out, err, json.dumps(data)
    return corrupt


def _cells(data, failing):
    """Checked (not skipped) cells that fail, or that pass."""
    return [c for r in data for c in r["cells"] if c["pass"] is not failing and c["lhs"] != "None"]


def _flip_passing(data):
    _cells(data, False)[0]["pass"] = False


def _pass_failing(data):
    cell = _cells(data, True)[0]
    cell["pass"], cell["rhs"], cell["residual"] = True, cell["lhs"], "0"


def _bump_residual(data):
    cell = _cells(data, True)[-1]
    terms = cell["residual"]["terms"]
    first = next(iter(terms))
    terms[first] = str(Fraction(terms[first]) * 2)


def _change_rhs(data):
    cell = _cells(data, False)[-1]
    cell["rhs"] = cell["rhs"] + "1" if isinstance(cell["rhs"], str) else "12345"


def _triangle_entry(code, out, err, report):
    data = json.loads(out)
    terms = data["rows"][4][2]["terms"]
    first = next(iter(terms))
    terms[first] = str(Fraction(terms[first]) + 1)
    return code, json.dumps(data), err, report


def crash(code, out, err, report):
    return 2, "", "error: something broke\n", None


def timeout(code, out, err, report):
    return None, out, err, report


def exit_code(new):
    def corrupt(code, out, err, report):
        return new, out, err, report
    return corrupt


def bump_stdout(code, out, err, report):
    return code, bump_last_digit(out), err, report


def drop_summary_line(code, out, err, report):
    return code, "\n".join(ln for ln in out.splitlines() if "prop2 " not in ln), err, report


CASES = (
    ("verify --suite all --f linear:1,0 --t 1 --max-n 8",
     (exit_code(0), edit_report(_flip_passing), edit_report(_pass_failing),
      edit_report(_bump_residual), edit_report(_change_rhs), drop_summary_line, crash)),
    ("verify --suite prop1 --f qpow:1 --t 1", (exit_code(1), timeout)),
    ("harmonic --f linear:2,1 --t symbolic --p 3 --n 6 --method roots",
     (bump_stdout, exit_code(1))),
    ("harmonic --f table:tests/data/table12.json --t 3/2 --p 2 --n 5", (bump_stdout,)),
    ("triangle --f linear:2,1 --t symbolic --rows 6 --format json", (_triangle_entry,)),
    ("triangle --f linear:1,0 --t 3/2 --rows 0", (bump_stdout, crash)),
    ("convpoly --f linear:2,1 --t symbolic --n-max 3 --x-max 6", (bump_stdout,)),
    ("eulersum --f linear:1,0 --r 2 --N 1000 --decimal 7", (bump_stdout, timeout)),
    ("eulersum --f linear:2,1 --r 2 --N 50 --mode fzeta2r", (bump_stdout,)),
)


def check_oracles(runner):
    for text, corruptions in CASES:
        op = workloads.Op(tuple(text.split()))
        _, code, out, err = runner.call(op, cli)
        report = runner.report.read_text() if runner.report.exists() else None
        status, reason, _ = oracles.classify(op, run.ROOT, code, out, err, report)
        expect(status == "ok", f"real output accepted: {text} {reason}")
        for corrupt in corruptions:
            status, reason, _ = oracles.classify(op, run.ROOT, *corrupt(code, out, err, report))
            expect(status != "ok", f"corrupted output counted failed ({status}: {reason[:60]}): {text}")


def check_known_issues_table():
    """The prop1 rule and residual formula against KNOWN_ISSUES.md (f(n) = n)."""
    text = (run.ROOT / "KNOWN_ISSUES.md").read_text()
    rows = re.findall(r"^\| (\d) \| (\d) \| `([^`]+)` \|$", text, re.MULTILINE)
    f = oracles.FValues("linear:1,0", run.ROOT)
    table = {("prop1-recurrence", (int(p), int(n), "as-printed")): oracles.parse_poly(r, "u")
             for p, n, r in rows}
    expect(set(table) == oracles.expected_verify_failures(f, "all", 8),
           "prop1 failing cells are those KNOWN_ISSUES.md tabulates")
    expect(all(oracles.prop1_residual(f, key[1][0], key[1][1]) == want
               for key, want in table.items()),
           "prop1 residual formula reproduces the KNOWN_ISSUES.md residuals")


def check_trace_repeats(runner):
    ops = [workloads.Op(tuple(t.split())) for t in (
        "verify --suite prop1 --f linear:2,1 --t 3/2 --max-n 5",
        "harmonic --f linear:2,1 --t symbolic --p 5 --n 6 --method roots",
        "eulersum --f linear:1,0 --r 2 --N 200",
    )]
    from fstirling import laurent
    original = laurent.LaurentPoly.__mul__
    counts = []
    for _ in range(2):
        trace = tracing.Tracer()
        with trace.installed():
            results = [runner.in_process(op, cli) for op in ops]
        counts.append(trace.layer_counts())
        expect(all(r.status == "ok" for r in results), "traced ops pass their oracles")
    expect(counts[0] == counts[1], "two traced runs repeat every count")
    expect(counts[0]["laurent.mul.calls"] > 0 and counts[0]["fspec.eval_f.calls"] > 0,
           "wrappers were called")
    expect(laurent.LaurentPoly.__mul__ is original and laurent.LaurentPoly.__rmul__ is original,
           "originals restored after tracing")


def check_metric_names():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    fake = run.OpResult("op", "verify", 1.0, 0, "ok", "", cells=10, maxrss_kb=2048)
    e2e = run.select_metrics(run.end_to_end([fake], [[fake]]), declared["end_to_end"])
    expect(list(e2e) == [m["name"] for m in declared["end_to_end"]],
           "end-to-end metrics printed are those of BENCHMARK.json")
    trace = tracing.Tracer()
    layers = run.per_layer([fake], [1.0], [1.2], [(trace.layer_counts(), trace.layer_times())])
    layer = run.select_metrics(layers, declared["per_layer"])
    expect(list(layer) == [m["name"] for m in declared["per_layer"]],
           "per-layer metrics printed are those of BENCHMARK.json")
    try:
        run.select_metrics(layers, declared["per_layer"] + [{"name": "no.such", "unit": "s"}])
        expect(False, "an unknown metric name is refused")
    except RuntimeError:
        expect(True, "an unknown metric name is refused")
    name_ok = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in declared[key]]
    expect(all(name_ok.fullmatch(n) for n in names) and len(set(names)) == len(names),
           "metric names are well formed and unique")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        runner = run.Runner(Path(tmp), time.monotonic() + 600)
        check_oracles(runner)
        check_trace_repeats(runner)
    check_known_issues_table()
    check_metric_names()
    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
