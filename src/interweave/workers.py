"""An ordered map over forked worker processes, on pipes.

:func:`ordered_map` runs a function over a list of items on forked
workers and yields the results in the items' order.  The workers
inherit the function and the items, so nothing is pickled on the way
out: the parent writes 4-byte item indices to one task pipe that every
worker reads, and each worker writes its results back, one
length-framed pickle per item, on a result pipe of its own.  Reads of
at most ``PIPE_BUF`` bytes from a pipe are atomic, so each index
reaches one worker, and a worker takes its next index only when it is
free: hand-out is dynamic.

The caller must run no other thread: a forked worker holds only the
thread that forked it, and a lock another thread held stays locked in
the worker for good.

The module is imported only by runs that fork, so a one-process run
neither compiles it nor imports what it imports.
"""

from __future__ import annotations

import gc
import os
import pickle
import select
import signal
import traceback
from typing import Callable, Iterator


class RemoteTraceback(Exception):
    """A worker's formatted traceback, chained as the cause of the
    exception the worker raised, so that printing the exception prints
    where in the worker it was raised."""

    def __str__(self):
        return f'\n"""\n{self.args[0]}"""'


def _write_all(fd: int, data: bytes) -> None:
    """Write all of ``data`` to the file descriptor ``fd``."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _read_exactly(fd: int, size: int) -> bytearray:
    """``size`` bytes read from the pipe ``fd``, or fewer if it ends first."""
    data = bytearray()
    while len(data) < size and (chunk := os.read(fd, size - len(data))):
        data += chunk
    return data


def _read_frame(fd: int):
    """The next length-framed message read from the pipe ``fd``, or None
    if the pipe ends before the message does."""
    header = _read_exactly(fd, 8)
    if len(header) == 8:
        size = int.from_bytes(header, "little")
        frame = _read_exactly(fd, size)
        if len(frame) == size:
            return frame
    return None


def _failure(exc: Exception) -> tuple:
    """``exc`` as a worker sends it back, with its traceback text: ``exc``
    itself, or a ``RuntimeError`` holding its repr if ``exc`` does not
    survive a pickle round trip."""
    text = "".join(traceback.format_exception(exc))
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = RuntimeError(repr(exc))
    return exc, text


def _work(function: Callable, items: list, task_r: int, result_w: int, inherited):
    """The life of a forked worker; it never returns.

    It closes the pipe ends it ``inherited`` and does not use: left
    open, the task pipe's write end would keep it from seeing that pipe
    end, and another worker's result pipe would keep that worker from
    seeing its reader go.  Then it reads 4-byte item indices from the
    task pipe ``task_r`` until the pipe ends.  Index i runs
    ``function(items[i])`` and writes ``(i, True, result)``, or
    ``(i, False, failure)`` (see :func:`_failure`), as one length-framed
    pickle to the result pipe ``result_w``.  The worker ends with
    ``os._exit``, so no ``finally`` of its caller's stack, no exit hook
    and no flush of an inherited buffer runs in it.
    """
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        while len(index := os.read(task_r, 4)) == 4:
            i = int.from_bytes(index, "little")
            try:
                frame = pickle.dumps((i, True, function(items[i])))
            except Exception as exc:
                frame = pickle.dumps((i, False, _failure(exc)))
            _write_all(result_w, len(frame).to_bytes(8, "little") + frame)
        status = 0
    finally:
        os._exit(status)


def ordered_map(function: Callable, items: list, jobs: int) -> Iterator:
    """``function``'s results over ``items``, in order, computed by
    ``min(jobs, len(items))`` forked workers.

    The workers are forked on the first ``next``, with the garbage
    collector's objects frozen (``gc.freeze``), so the workers'
    collections skip the heap they inherit.  At most ``2 * jobs`` items
    are handed out and not yet yielded: an index goes out only after the
    result before it has been yielded, so finished results wait here
    only that many at a time.

    An item whose call raised raises in its turn: the worker's exception,
    or a ``RuntimeError`` holding its repr if it does not pickle, caused
    by a :class:`RemoteTraceback` that holds the worker's traceback.  A
    result pipe that ends means its worker died, and the first item in
    order without a result then raises ``RuntimeError``.  However the
    generator ends, done, failed or closed, the task pipe is closed and
    every worker is killed and reaped, so none outlives it.
    """
    task_r, task_w = os.pipe()
    pids, readers = [], []  # the workers, and their open result pipes
    done = {}  # item index -> (ok, result or failure), not yet yielded
    handed = taken = 0
    try:
        gc.freeze()
        try:
            for _ in range(min(jobs, len(items))):
                result_r, result_w = os.pipe()
                readers.append(result_r)
                try:
                    pid = os.fork()
                    if pid == 0:
                        _work(function, items, task_r, result_w, (task_w, *readers))
                finally:
                    os.close(result_w)
                pids.append(pid)
        finally:
            gc.unfreeze()
        lost = False  # a result pipe has ended
        while taken < len(items):
            while handed < min(len(items), taken + 2 * jobs):
                os.write(task_w, handed.to_bytes(4, "little"))
                handed += 1
            while taken not in done:
                if lost:
                    raise RuntimeError("a worker died before returning this item")
                for fd in select.select(readers, [], [])[0]:
                    frame = _read_frame(fd)
                    if frame is None:
                        lost = True
                        readers.remove(fd)
                        os.close(fd)
                    else:
                        i, ok, value = pickle.loads(frame)
                        done[i] = ok, value
            ok, value = done.pop(taken)
            if not ok:
                exc, text = value
                raise exc from RemoteTraceback(text)
            yield value
            taken += 1
    finally:
        os.close(task_w)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
        for fd in (task_r, *readers):
            os.close(fd)
