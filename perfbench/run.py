"""Benchmark of the ``fstirling`` batch CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  With ``--trace 0`` it times the workload's
ops, each as its own ``python -m fstirling.cli`` subprocess, one at a time (a
closed loop with one client), repeating passes until ``--seconds`` have gone
by, and prints the end-to-end metrics of BENCHMARK.json.  With ``--trace 1``
it runs one subprocess pass for the process-layer figures, then alternates
untraced and traced in-process passes through ``fstirling.cli.main`` and
prints the per-layer metrics.  Every output is checked by ``oracles``; the
last stdout line is the JSON result.  A record of the run, with the
environment it ran in, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import re
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import oracles
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# Either would change what is measured: the first silently shrinks verify
# sweeps, the second hides the known N=3000 digit-limit defect.
STRIPPED_ENV = ("FSTIRLING_MAX_N", "PYTHONINTMAXSTRDIGITS")
OP_TIMEOUT_S = 60.0
RUN_BUDGET_S = 165.0


@dataclass
class OpResult:
    op: str
    command: str
    wall_s: float
    code: int | None
    status: str
    reason: str
    cells: int = 0
    maxrss_kb: int = 0
    cpu_s: float = 0.0
    output_bytes: int = 0


class Runner:
    """Runs ops and checks their outputs; ``deadline`` caps the whole run."""

    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.report = tmp / "report.json"
        self.verdicts: dict = {}

    def _argv(self, op) -> list:
        extra = ["--output", str(self.report)] if op.command == "verify" else []
        return list(op.argv) + extra

    def _finish(self, op, wall, code, stdout, stderr, **usage) -> OpResult:
        report_text = self.report.read_text() if self.report.exists() else None
        # Passes repeat ops; an output seen before gets the verdict it got then.
        key = (op, code, stderr, hashlib.sha256(stdout.encode()).digest(),
               report_text and hashlib.sha256(report_text.encode()).digest())
        if key not in self.verdicts:
            self.verdicts[key] = oracles.classify(op, ROOT, code, stdout, stderr, report_text)
        status, reason, cells = self.verdicts[key]
        return OpResult(str(op), op.command, wall, code, status, reason, cells, **usage)

    def _out_of_time(self, op):
        if time.monotonic() < self.deadline:
            return None
        return OpResult(str(op), op.command, 0.0, None, "error", "run time budget spent")

    def child(self, op) -> OpResult:
        """One op as a ``python -m fstirling.cli`` subprocess."""
        late = self._out_of_time(op)
        if late:
            return late
        self.report.unlink(missing_ok=True)
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        timeout = max(0.0, min(OP_TIMEOUT_S, self.deadline - time.monotonic()))
        argv = [sys.executable, "-m", "fstirling.cli", *self._argv(op)]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            pidfd = os.pidfd_open(proc.pid)
            status = None
            try:
                exited = select.select([pidfd], [], [], timeout)[0]
                wall = time.perf_counter() - start
                if not exited:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                if status is None:  # interrupted: never leave the child running
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                    os.wait4(proc.pid, 0)
                os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = proc.returncode if exited else None
        output_bytes = out_path.stat().st_size + (
            self.report.stat().st_size if self.report.exists() else 0)
        return self._finish(
            op, wall, code, out_path.read_text(), err_path.read_text(),
            maxrss_kb=usage.ru_maxrss, cpu_s=usage.ru_utime + usage.ru_stime,
            output_bytes=output_bytes)

    def call(self, op, cli) -> tuple:
        """One op through ``cli.main``, looked up at call time so a tracer's
        wrapper is used while one is installed: (wall, code, stdout, stderr)."""
        self.report.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(self._argv(op))
        except Exception:  # a crash in the program is a failed op, not a benchmark error
            err.write(traceback.format_exc())
            code = 1
        return time.perf_counter() - start, code, out.getvalue(), err.getvalue()

    def in_process(self, op, cli) -> OpResult:
        return self._out_of_time(op) or self._finish(op, *self.call(op, cli))


# -- metrics ---------------------------------------------------------------------


def end_to_end(setup: list, passes: list) -> dict:
    """Each op counts at its fastest over the run's passes.  CPU speed on a
    shared host drops by up to ~70% in phases lasting seconds; the fastest of
    several repeats is the op's time when it was not slowed, and it repeats
    run to run where a median over so few passes does not."""
    fastest = [min((r.wall_s for r in samples if r.wall_s > 0), default=0.0)
               for samples in zip(*passes)]
    first = passes[0]
    verify = [i for i, r in enumerate(first) if r.command == "verify"]
    pass_ops = [r for p in passes for r in p]
    return {
        "setup_s": statistics.median(r.wall_s for r in setup),
        "wall_s": sum(fastest),
        "cells_per_s": sum(first[i].cells for i in verify) / sum(fastest[i] for i in verify),
        "peak_rss_mb": statistics.median(max(r.maxrss_kb for r in p) / 1024 for p in passes),
        "ok_ratio": sum(r.status == "ok" for r in pass_ops) / len(pass_ops),
    }


def known_layer_metrics() -> set:
    names = {n for n, _, _ in tracing.TARGETS}
    known = {f"{n}.{kind}" for n in names for kind in ("calls", "self_s")}
    known |= {f"cli.run_suite.{s}.{kind}" for s in oracles.SUITES for kind in ("s", "cells")}
    known |= set(tracing.Tracer().counts)
    known |= {"laurent.mul.const_share", "stirling.s1_triangle.distinct_share",
              "process.cpu_s", "process.output_bytes", "trace.overhead"}
    return known


def per_layer(process_pass: list, untraced_s: list, traced_s: list, layers: list) -> dict:
    """Counts from the traced passes (identical in each), times as medians.

    ``layers`` holds one ``(counts, times)`` pair per traced pass."""
    counts = [c for c, _ in layers]
    if any(c != counts[0] for c in counts):
        raise RuntimeError("traced passes disagree on counts")
    metrics = dict(counts[0])
    times = [t for _, t in layers]
    for key in set().union(*times):
        metrics[key] = statistics.median(t.get(key, 0.0) for t in times)
    metrics["process.cpu_s"] = sum(r.cpu_s for r in process_pass)
    metrics["process.output_bytes"] = sum(r.output_bytes for r in process_pass)
    metrics["trace.overhead"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1
    return metrics


def select_metrics(values: dict, declared: list) -> dict:
    """The declared metrics, in order; a layer metric that saw no calls is 0."""
    unknown = {m["name"] for m in declared} - set(values) - known_layer_metrics()
    if unknown:
        raise RuntimeError(f"BENCHMARK.json names metrics this benchmark does not make: {unknown}")
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}


# -- the two kinds of run -------------------------------------------------------


def timed_run(ops, runner: Runner, seconds: float):
    """Passes over ``ops`` until ``seconds`` have gone by.  A setup op runs
    before each op, cycling over the workload's (f, t) pairs, so its samples
    spread over the whole run instead of one stretch of it."""
    setup_ops = itertools.cycle(workloads.setup_ops(ops))
    setup, passes = [], []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        results = []
        for op in ops:
            setup.append(runner.child(next(setup_ops)))
            results.append(runner.child(op))
        passes.append(results)
    return end_to_end(setup, passes), setup + [r for p in passes for r in p], {}


def traced_run(ops, runner: Runner, seconds: float, spans_path: Path):
    sys.path.insert(0, str(ROOT / "src"))
    from fstirling import cli

    start = time.monotonic()
    process_pass = [runner.child(op) for op in ops]
    results = list(process_pass)
    untraced_s, traced_s, layers, layout = [], [], [], None
    while not layers or time.monotonic() - start < seconds:
        plain = [runner.in_process(op, cli) for op in ops]
        trace = tracing.Tracer()
        with trace.installed():
            traced = []
            for i, op in enumerate(ops):
                trace.op = i
                traced.append(runner.in_process(op, cli))
        if layout is None:
            layout = trace.write_spans(spans_path)
        untraced_s.append(sum(r.wall_s for r in plain))
        traced_s.append(sum(r.wall_s for r in traced))
        layers.append((trace.layer_counts(), trace.layer_times()))
        results += plain + traced
    return per_layer(process_pass, untraced_s, traced_s, layers), results, {"spans": layout}


def environment(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    version = re.search(r'^version = "([^"]+)"', (ROOT / "pyproject.toml").read_text(), re.M)
    return {
        "python": sys.version,
        "executable": sys.executable,
        "platform": platform.platform(),
        "fstirling": version and version.group(1),
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "stripped_env": [k for k in STRIPPED_ENV if k in os.environ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its child and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "fstirling" / "cli.py").is_file():
        print(f"error: no fstirling sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]

    env = environment(args)
    for key in STRIPPED_ENV:
        os.environ.pop(key, None)
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    ops = workloads.build(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        runner = Runner(Path(tmp), time.monotonic() + RUN_BUDGET_S)
        if args.trace:
            values, results, extra = traced_run(ops, runner, args.seconds, OUT / f"{stem}.spans")
        else:
            values, results, extra = timed_run(ops, runner, args.seconds)
    metrics = select_metrics(values, declared)
    summary = {
        "correct": not any(r.status == "wrong" for r in results),
        "attempted": len(results),
        "failed": sum(r.status != "ok" for r in results),
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": env, **summary, "values": values,
              **extra, "ops": [asdict(r) for r in results]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for r in results:
        if r.status != "ok":
            print(f"{r.status}: {r.op}: {r.reason}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
