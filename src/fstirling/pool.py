"""Forked worker processes for ``verify``, whose suites share no state.

A pipe filled up front with one byte per task is the queue.  Each worker
reads the next task index from it until it is empty, so the tasks spread
over the workers by how long each one takes.  A worker keeps its results
until the queue is empty and only then sends them, marshalled, down a pipe
of its own: it never waits on the parent while tasks remain.  The parent
only collects, so a worker that crashes, even in C code, cannot take the
command's report with it.  Only the ``verify`` command imports this module.
"""

from __future__ import annotations

import marshal
import os

SIGKILL = 9  # the same on every POSIX system; importing ``signal`` costs 1 ms


def processes_for(count: int) -> int:
    """Processes for ``count`` tasks: one per CPU this process may run on,
    and just this one where ``os.fork`` or the affinity mask is unavailable."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), count)


def run(task, names: list, order: list, processes: int, passthrough: tuple = ()):
    """``task(name)`` for each of ``names``, yielded in that order, computed by
    ``processes`` forked workers, which start the tasks in ``order`` (a
    permutation of ``range(len(names))``; one byte per index, so at most 256
    tasks).  Results must be marshallable.

    As in a serial loop, the first task in ``names`` order that did not return
    ends the iteration: an exception of a ``passthrough`` type is raised again
    as that type with the same message; any other exception, or a worker that
    ended without reporting, raises ``RuntimeError`` naming the tasks.  Every
    worker has been reaped by the time this returns.
    """
    outcomes, ended = _gather(task, names, order, processes, passthrough)
    return _in_order(outcomes, ended, names, passthrough)


def _drain(queue: int, task, names: list, passthrough: tuple, parent: int) -> dict:
    """Run the tasks this worker draws from ``queue``, index -> outcome, until
    the queue is empty or the parent is gone."""
    outcomes = {}
    while os.getppid() == parent:
        drawn = os.read(queue, 1)
        if not drawn:
            break
        i = drawn[0]
        try:
            outcomes[i] = ("ok", task(names[i]))
        except passthrough as exc:
            kind = next(k for k, cls in enumerate(passthrough) if isinstance(exc, cls))
            outcomes[i] = ("raise", kind, str(exc))
        except Exception:
            import traceback

            outcomes[i] = ("fault", traceback.format_exc())
    return outcomes


def _work(queue: int, out: int, others: list, task, names: list, passthrough: tuple,
          parent: int):
    """A worker's whole life, from just after the fork.  It first closes
    ``others``, the pipe ends that are not its own, and it leaves through
    ``os._exit``, so it never runs the parent's exit handlers or flushes the
    parent's stdio buffers."""
    code = 1
    try:
        for fd in others:
            os.close(fd)
        with open(out, "wb", closefd=False) as pipe:
            marshal.dump(_drain(queue, task, names, passthrough, parent), pipe)
        code = 0
    finally:
        os._exit(code)


def _gather(task, names: list, order: list, processes: int, passthrough: tuple):
    """Outcomes by task index, and the exit codes of workers that failed."""
    queue, fill = os.pipe()
    os.write(fill, bytes(order))
    os.close(fill)
    parent = os.getpid()
    workers = {}  # pid -> read end of the worker's result pipe
    ended = []
    try:
        for _ in range(processes):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(queue, write_end, [read_end, *workers.values()], task, names,
                      passthrough, parent)
            os.close(write_end)
            workers[pid] = read_end
        outcomes = {}
        for pid in list(workers):
            with open(workers[pid], "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            os.close(workers.pop(pid))
            if status == 0:
                outcomes.update(marshal.loads(data))
            else:
                ended.append(os.waitstatus_to_exitcode(status))
        return outcomes, ended
    finally:
        os.close(queue)
        for pid, fd in workers.items():
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)


def _in_order(outcomes: dict, ended: list, names: list, passthrough: tuple):
    for i, name in enumerate(names):
        outcome = outcomes.get(i)
        if outcome is None:
            missing = ", ".join(n for k, n in enumerate(names) if k not in outcomes)
            statuses = ", ".join(map(str, ended))
            raise RuntimeError(f"a worker process ended (exit status {statuses}) "
                               f"before reporting suites {missing}")
        if outcome[0] == "raise":
            raise passthrough[outcome[1]](outcome[2])
        if outcome[0] == "fault":
            raise RuntimeError(f"suite {name} failed in a worker process:\n{outcome[1]}")
        yield outcome[1]
