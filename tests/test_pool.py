"""`verify` as its own process spreads its suites over forked workers.

In-process calls (`main(argv)`) never fork, so these tests run the command as
a subprocess and compare it with the single-process run of the same argv.
"""

import contextlib
import os
import signal
import subprocess
import sys

import pytest

from fstirling import cli, pool
from fstirling.fspec import FSpecError

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC_ENV = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
TABLE = "table:" + os.path.join(ROOT, "tests", "data", "table12.json")
SEVERAL_CPUS = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the worker pool needs two CPUs in the affinity mask")

# Runs `main()` as the command does, with `run_suite` patched for one suite.
PATCHED = """
import os, sys, time
from fstirling import cli
from fstirling.fspec import FSpecError
mode, victim = sys.argv[1:3]
run_suite = cli.run_suite
def patched(name, *args):
    if name == victim and mode == "exit":
        os._exit(9)
    if name == victim and mode == "fspec":
        raise FSpecError("f(3) = 0 is not allowed here")
    if name == victim and mode == "fault":
        raise ZeroDivisionError("internal fault")
    if mode == "json":
        os.write(2, f"json loaded: {'json' in sys.modules}\\n".encode())  # one write: no interleaving
    if name == victim and mode == "hang":
        print("started", file=sys.stderr, flush=True)
        time.sleep(120)
    return run_suite(name, *args)
cli.run_suite = patched
sys.argv[:3] = ["fstirling"]
code = cli.main(sys.argv[1:]) if mode == "in-process" else cli.main()
if mode in ("modules", "in-process"):
    print("pool loaded:", "fstirling.pool" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_command(argv, tmp_path, preexec_fn=None, script=None):
    """(exit code, stdout, stderr, report text) of the command as a subprocess."""
    report = tmp_path / "subprocess.json"
    lead = ["-c", script] if script else ["-m", "fstirling.cli"]
    proc = subprocess.run([sys.executable, *lead, *argv, "--output", str(report)],
                          capture_output=True, text=True, env=SRC_ENV, timeout=120,
                          preexec_fn=preexec_fn)
    text = report.read_text() if report.exists() else None
    return proc.returncode, proc.stdout, proc.stderr, text


def run_in_process(argv, tmp_path, capsys):
    report = tmp_path / "in-process.json"
    code = cli.main(argv + ["--output", str(report)])
    out, err = capsys.readouterr()
    return code, out, err, report.read_text() if report.exists() else None


def test_more_workers_than_cpus_give_every_result_in_order():
    names = [f"task-{i}" for i in range(40)]
    order = list(range(39, -1, -1))
    assert list(pool.run(str.upper, names, order, 6)) == [n.upper() for n in names]


CONFIGS = [(f, t) for f in ("linear:1,0", "linear:2,1", TABLE) for t in ("1", "3/2", "symbolic")]
CONFIGS += [("qpow:1", "1"), ("qpow:1", "3/2")]


@pytest.mark.parametrize("f,t", CONFIGS)
def test_the_pool_gives_the_single_process_bytes(f, t, tmp_path, capsys):
    argv = ["verify", "--suite", "all", "--f", f, "--t", t, "--max-n", "8"]
    expected = run_in_process(argv, tmp_path, capsys)
    assert expected[0] in (0, 1) and expected[3]
    assert run_command(argv, tmp_path) == expected


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity control")
@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all", "--f", "linear:2,1", "--t", "3/2", "--max-n", "8"],
    ["verify", "--suite", "all", "--f", "linear:1,0", "--t", "symbolic", "--max-n", "5"],
    ["verify", "--suite", "wf", "--f", "linear:2,1", "--t", "symbolic"],
], ids=["all-numeric", "all-symbolic", "one-suite"])
def test_one_cpu_and_one_suite_give_the_same_bytes(argv, tmp_path, capsys):
    expected = run_in_process(argv, tmp_path, capsys)
    assert run_command(argv, tmp_path) == expected
    assert run_command(argv, tmp_path, preexec_fn=one_cpu) == expected


def test_a_bad_configuration_exits_2_before_any_worker_starts(tmp_path):
    argv = ["modules", "-", "verify", "--suite", "all", "--f", "qpow:1", "--t", "symbolic"]
    code, out, err, report = run_command(argv, tmp_path, script=PATCHED)
    assert (code, out, report) == (2, "", None)
    assert err == ("error: symbolic q-power f requires numeric t (bivariate coefficients "
                   "rejected)\npool loaded: False\n")


def test_an_in_process_call_never_forks(tmp_path):
    argv = ["in-process", "-", "verify", "--suite", "all", "--f", "linear:2,1", "--t", "3/2"]
    code, _, err, _ = run_command(argv, tmp_path, script=PATCHED)
    assert (code, err) == (1, "pool loaded: False\n")


def test_a_closed_pipe_exits_141_and_leaves_no_process():
    """`verify ... | head -1` once head has gone: the workers go with the command."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "fstirling.cli", "verify", "--suite", "all",
             "--f", "linear:2,1", "--t", "3/2"],
            stdout=write_end, stderr=subprocess.PIPE, env=SRC_ENV, start_new_session=True)
    finally:
        os.close(write_end)
    err = proc.communicate(timeout=120)[1]
    assert (proc.returncode, err) == (141, b"")
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


@SEVERAL_CPUS
def test_an_interrupted_command_leaves_no_worker():
    proc = subprocess.Popen(
        [sys.executable, "-c", PATCHED, "hang", "wf", "verify", "--suite", "all",
         "--f", "linear:2,1", "--t", "3/2"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=SRC_ENV,
        start_new_session=True)
    try:
        assert proc.stderr.readline() == b"started\n"
        proc.send_signal(signal.SIGINT)  # to the command alone, not to its workers
        # The command ends at once, long before the hung worker would.
        assert proc.wait(timeout=30) != 2
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        assert b"KeyboardInterrupt" in proc.stderr.read()
    finally:
        proc.stderr.close()
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)


@SEVERAL_CPUS
def test_a_worker_that_dies_is_a_program_fault_naming_its_suites(tmp_path):
    argv = ["exit", "wf", "verify", "--suite", "all", "--f", "linear:2,1", "--t", "3/2"]
    code, out, err, report = run_command(argv, tmp_path, script=PATCHED)
    assert code not in (0, 2)
    assert "before reporting suites" in err and "wf" in err.splitlines()[-1]
    assert report is None
    # The suites before the first lost one are printed, in order.
    assert run_command(argv[2:], tmp_path)[1].startswith(out)


@SEVERAL_CPUS
def test_the_workers_find_json_imported_when_reports_are_written(tmp_path):
    """verify --output imports json once, before the fork, not in each worker."""
    argv = ["json", "-", "verify", "--suite", "all", "--f", "linear:2,1", "--t", "3/2"]
    code, _, err, report = run_command(argv, tmp_path, script=PATCHED)
    assert code == 1 and report
    assert err.splitlines() == ["json loaded: True"] * len(cli.SUITES)


@SEVERAL_CPUS
def test_a_worker_exception_is_a_program_fault(tmp_path):
    argv = ["fault", "prop2", "verify", "--suite", "all", "--f", "linear:2,1", "--t", "3/2"]
    code, out, err, report = run_command(argv, tmp_path, script=PATCHED)
    assert code not in (0, 2)
    assert "suite prop2 failed in a worker process" in err
    assert "ZeroDivisionError: internal fault" in err
    assert [line.split()[1] for line in out.splitlines() if line[:1] != " "] == \
        cli.SUITES[:cli.SUITES.index("prop2")]
    assert report is None


@SEVERAL_CPUS
def test_a_usage_error_in_a_worker_exits_2_with_the_serial_message(tmp_path, capsys,
                                                                   monkeypatch):
    argv = ["verify", "--suite", "all", "--f", "linear:2,1", "--t", "3/2"]
    run_suite = cli.run_suite

    def patched(name, *args):
        if name == "wf":
            raise FSpecError("f(3) = 0 is not allowed here")
        return run_suite(name, *args)

    monkeypatch.setattr(cli, "run_suite", patched)
    expected = run_in_process(argv, tmp_path, capsys)
    assert expected[0] == 2 and expected[2] == "error: f(3) = 0 is not allowed here\n"
    assert run_command(["fspec", "wf", *argv], tmp_path, script=PATCHED) == expected
