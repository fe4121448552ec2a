"""One fork helper behind the split kernel and the split parses (POSIX)."""

from __future__ import annotations

import gc
import os
import signal
import threading
from array import array
from typing import NoReturn


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _threads() -> int:
    """Threads of this process: the OS's list where there is one, else threading's count."""
    task = "/proc/self/task"  # threading does not count _thread or C-extension threads
    return len(os.listdir(task)) if os.path.isdir(task) else threading.active_count()


def in_runs(most: int, run, last, out: array | None = None) -> list[tuple]:
    """run(i, w) for i = 0, 1, ..., w - 1 in order, up to the first result r with last(r).

    w is most capped at the CPUs, or 1 without os.fork or with a second thread
    (a fork copies one thread, maybe mid-lock).  run returns a tuple of ints
    and may append items to out, which then holds them in run order.  Run 0 is
    done here and each later run in a forked child, which replies with a line
    of ints (its item count, then its result) and its items, then os._exit()s,
    never flushing stdio.  A run whose fork failed, whose child died or raised,
    or whose reply is short is done again here, so every exception is this
    process's own, in run order.  No child outlives the call.
    """
    out = array("I") if out is None else out
    forks = most > 1 and hasattr(os, "fork") and _threads() == 1
    w = min(most, _cpus()) if forks else 1
    children = []  # (pid, read end of its pipe), in run order
    try:
        for i in range(1, w):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: this run and the later ones are done here
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                _child(write, run, i, w, out)
            os.close(write)
            children.append((pid, read))
        results = [run(0, w)]
        for i in range(1, w):
            if last(results[-1]):
                break
            result = _reply(children[i - 1][1], out) if i <= len(children) else None
            results.append(run(i, w) if result is None else result)
        return results
    finally:
        for pid, read in children:
            os.kill(pid, signal.SIGKILL)  # a child that replied has exited already
            os.waitpid(pid, 0)
            os.close(read)


def _reply(read: int, out: array) -> tuple | None:
    """A child's result, its items appended to out; None, out as it was, if the reply is short."""
    with open(read, "rb", closefd=False) as pipe:
        line = pipe.readline()
        if not line.endswith(b"\n"):  # the child died or raised before replying
            return None
        size, *result = map(int, line.split())
        mark = len(out)
        try:
            for at in range(0, size, 1 << 14):  # 64 KiB of "I" items a read
                out.fromfile(pipe, min(size - at, 1 << 14))
        except (EOFError, ValueError):  # fewer items, or a part of one, than declared
            del out[mark:]
            return None
    return tuple(result)


def _child(write: int, run, i: int, w: int, out: array) -> NoReturn:
    """A forked child's whole life: do run i, reply, os._exit."""
    status = 1
    try:
        gc.disable()  # a collection would write to every tracked object's page
        mark = len(out)
        result = run(i, w)
        with open(write, "wb") as pipe:
            pipe.write(" ".join(map(str, (len(out) - mark, *result))).encode() + b"\n")
            pipe.write(memoryview(out)[mark:])
        status = 0
    finally:
        os._exit(status)
