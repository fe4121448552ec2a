"""The fork helper's lifecycle (partite._runs.in_runs), driven through the split parses.

With the parse threshold at 0 and three CPUs a body is cut into three spans,
and forked children parse the later two.  A line cut short is shown through
the kernel, whose reply is its line alone, and streaming through the helper
itself.  Each test ends with no child left.
"""

import _thread
import os
import signal
import threading
import time
import tracemalloc
from array import array

import pytest

from test_verify import (
    assert_no_child_left,
    picked_columns,
    refuse_fork,
    serial_witness,
)

from partite import _runs, construct, extract_cubes, formats, is_l_extendable, verify
from partite.formats import format_blocks, format_cubes, parse_blocks, parse_cubes

BLOCKS = format_blocks(construct(4, 11, 3))  # 1,331 lines, 11 KB
CUBES = format_cubes(extract_cubes(construct(5, 11, 3)))  # 2,662 values, 8 KB
PARSES = pytest.mark.parametrize(
    "parse, text", [(parse_blocks, BLOCKS), (parse_cubes, CUBES)], ids=["blocks", "cubes"]
)


@pytest.fixture
def split(monkeypatch):
    monkeypatch.setattr(formats, "_SPLIT_CHARS", 0)
    monkeypatch.setattr(_runs, "_cpus", lambda: 3)


def serial(parse, text):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_SPLIT_CHARS", float("inf"))
        return parse(text)


def replies(monkeypatch, items: list | None = None) -> list:
    """The list that each child's reply, as this process reads it, is appended to.

    If given, items gets the count of items each reply appended to out.
    """
    seen, real_reply = [], _runs._reply

    def reply(read, out):
        mark = len(out)
        seen.append(real_reply(read, out))
        if items is not None:
            items.append(len(out) - mark)
        return seen[-1]

    monkeypatch.setattr(_runs, "_reply", reply)
    return seen


class DyingPipe:
    """A child's write end that passes its first writes, keeps keep(data) of the last, and dies."""

    def __init__(self, fd, writes, keep):
        self.fd, self.writes, self.keep = fd, writes, keep

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def write(self, data):
        data = memoryview(data).cast("B")
        self.writes -= 1
        os.write(self.fd, data if self.writes else data[: self.keep(len(data))])
        if not self.writes:
            os.kill(os.getpid(), signal.SIGKILL)


def dying_children(monkeypatch, writes, keep):
    """Make every child's reply die in its writes-th write, after keep(len(data)) bytes of it."""
    parent, real_open = os.getpid(), open

    def dying_open(file, mode="r", **kwargs):
        if mode == "wb" and os.getpid() != parent:
            return DyingPipe(file, writes, keep)
        return real_open(file, mode, **kwargs)

    monkeypatch.setattr(_runs, "open", dying_open, raising=False)


# the items of a (5,25,3) span are about 104 KB, of a (4,49,3) cube's span
# 157 KB: over the 64 KiB a read takes, so some items are in the array when
# the reply falls short, by a part of an item or by whole items
@pytest.mark.parametrize("short", [3, 4])
@pytest.mark.parametrize("parse, text", [
    (parse_blocks, format_blocks(construct(5, 25, 3))),
    (parse_cubes, format_cubes(extract_cubes(construct(4, 49, 3)))),
], ids=["blocks", "cubes"])
def test_a_child_killed_mid_reply_has_its_span_redone_here(
    split, monkeypatch, capfd, parse, text, short
):
    dying_children(monkeypatch, 2, lambda size: size - short)  # the line, then the items
    seen = replies(monkeypatch)
    assert parse(text) == serial(parse, text)
    assert seen == [None, None]  # both replies were short, so both spans were parsed here
    assert_no_child_left()
    assert capfd.readouterr() == ("", "")


def test_a_child_killed_mid_line_has_its_run_redone_here(monkeypatch):
    # the kernel's reply is its line alone: (5, 5, 2) fails only in the second
    # child's run, whose half line would name a wrong witness or none
    monkeypatch.setattr(verify, "_SPLIT_CELLS", 0)
    monkeypatch.setattr(_runs, "_cpus", lambda: 3)
    dying_children(monkeypatch, 1, lambda size: size // 2)
    seen = replies(monkeypatch)
    family = picked_columns(0, 1, 2, 3, 3)
    assert is_l_extendable(family).witness == serial_witness(family)
    assert seen == [None, None]
    assert_no_child_left()


def test_a_reply_streams_into_out(monkeypatch):
    # a child's 8 MiB of items reach out a read at a time; a joined reply
    # would hold them twice
    monkeypatch.setattr(_runs, "_cpus", lambda: 2)
    out, size = array("I"), 1 << 21

    def run(i, w):
        if i:
            out.frombytes(bytes(4 * size))
        return ()

    tracemalloc.start()
    try:
        assert _runs.in_runs(2, run, bool, out) == [(), ()]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_no_child_left()
    assert len(out) == size and not any(out[:: 1 << 12])
    assert peak < 1.25 * 4 * size


@PARSES
def test_a_failed_second_fork_leaves_the_parse_to_this_process(split, monkeypatch, parse, text):
    forks, real_fork = [], os.fork

    def second_fork_fails():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    seen = replies(monkeypatch)
    assert parse(text) == serial(parse, text)
    assert len(forks) == 2
    assert len(seen) == 1 and seen[0] is not None  # the first child replied; no second to read
    assert_no_child_left()


@PARSES
def test_one_cpu_parses_in_one_process(monkeypatch, parse, text):
    monkeypatch.setattr(formats, "_SPLIT_CHARS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    refuse_fork(monkeypatch)
    assert parse(text) == serial(parse, text)


@PARSES
def test_a_second_thread_keeps_the_parse_in_one_process(split, monkeypatch, parse, text):
    refuse_fork(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert parse(text) == serial(parse, text)
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no OS thread list")
def test_a_thread_outside_threading_keeps_the_runs_in_one_process(monkeypatch):
    # threading.active_count() does not count a thread started through _thread
    monkeypatch.setattr(_runs, "_cpus", lambda: 2)
    refuse_fork(monkeypatch)
    asleep, woken = _thread.allocate_lock(), _thread.allocate_lock()
    asleep.acquire()
    woken.acquire()
    _thread.start_new_thread(lambda: asleep.acquire() and woken.release(), ())
    try:
        assert threading.active_count() == 1
        # run i of w sums its share of 0..9: serially one run sums all ten
        assert _runs.in_runs(2, lambda i, w: (sum(range(10 * i // w, 10 * (i + 1) // w)),),
                             lambda r: False) == [(45,)]
    finally:
        asleep.release()
        assert woken.acquire(timeout=10)
    deadline = time.monotonic() + 10  # later tests fork only once the thread is gone
    while _runs._threads() > 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _runs._threads() == 1
    assert_no_child_left()


@PARSES
def test_a_text_below_the_threshold_parses_in_one_process(monkeypatch, parse, text):
    monkeypatch.setattr(_runs, "_cpus", lambda: 3)
    refuse_fork(monkeypatch)
    assert len(text) < formats._SPLIT_CHARS
    assert parse(text) == serial(parse, text)


# "x" as the first body token: this process's own span fails, and it must not
# wait for the children, which sleep 10 s before they parse anything
@PARSES
def test_a_failure_in_this_process_span_kills_the_children(split, monkeypatch, parse, text):
    parent, real_pieces = os.getpid(), formats._pieces

    def slow_in_children(*args):
        if os.getpid() != parent:
            time.sleep(10)
        return real_pieces(*args)

    monkeypatch.setattr(formats, "_pieces", slow_in_children)
    lines = text.split("\n")
    text = "\n".join([lines[0], "x" + lines[1][lines[1].index(" ") :], *lines[2:]])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^invalid literal for int\\(\\) with base 10: 'x'$"):
        parse(text)
    assert time.perf_counter() - start < 5
    assert_no_child_left()


# a bad token in the last line, the second child's span: the child replies ()
# and none of the items it converted, which ends the runs, and this process
# names the token as the serial parse does, without parsing that span again
@pytest.mark.parametrize("token", ["x", "-3", str(2**32)])
@PARSES
def test_a_bad_token_in_a_childs_span_is_replied_as_no_result(
    split, monkeypatch, parse, text, token
):
    text = text[: text.rstrip().rindex(" ") + 1] + token + "\n"
    with pytest.raises(ValueError) as serial_error:
        serial(parse, text)
    items = []
    seen = replies(monkeypatch, items)
    with pytest.raises(ValueError) as split_error:
        parse(text)
    assert str(split_error.value) == str(serial_error.value)
    assert len(seen) == 2 and seen[0] and seen[1] == ()
    assert items[0] > 0 and items[1] == 0  # the failing span replied none of its items
    assert_no_child_left()
