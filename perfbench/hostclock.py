"""A reference clock that cancels the drift of the host's speed.

On a shared host the speed of a CPU wanders by 20% and more over
minutes, so the time of one run does not compare with the time of a run
made minutes later.  Tick processes run a fixed pure-Python loop and
count their passes (ticks); ``TICK_S`` is the median CPU time of one
pass on the reference host.  An operation's *reference time* is the
time it would have taken at that host's median speed.  No change to the
program moves the loop.

* An operation that keeps one CPU busy shares one CPU with one tick
  process.  Both get slices of the same CPU in turn, so both see the
  same speed: the operation's CPU seconds times ``TICK_S`` times the
  loop's ticks per CPU second give its reference time.
* An operation that keeps more CPUs busy runs a child process group.
  Every ``SLICE_S`` the group is stopped for ``GAP_S``.  In the gap, a
  tick process runs on each CPU the group was running on just before,
  so the ticks see the load the group puts on the host: one busy CPU or
  both.  The ticks' mean rate over the gaps scales the wall time the
  group spent running.

Either way no more processes are busy at once than there are CPUs.

The tick processes are plain forks that share an anonymous memory map
with this process and take orders through a pipe each.  They end when
the pipe closes, so they end with this process whatever way it ends,
and they start no helper process of their own.
"""

from __future__ import annotations

import mmap
import os
import select
import signal
import struct
import time
from typing import NamedTuple

TICK_LOOP = 5_000
# Median CPU time of one pass on the reference host: a 2-CPU Intel Xeon
# virtual machine with Python 3.11.
TICK_S = 3.9e-4
SLICE_S = 0.08
GAP_S = 0.02
# A tick process's slot in the shared map: passes, and its CPU seconds.
SLOT = struct.Struct("qd")
GO, HALT = b"g", b"h"


class Timing(NamedTuple):
    """Wall and CPU seconds of one operation, as measured and at reference speed."""

    wall: float
    cpu: float
    ref_elapsed: float
    ref_cpu: float


def fixed_loop(steps: int) -> int:
    """Pure-Python work that no change to the program moves."""
    x = 0
    for i in range(steps):
        x += i * i
    return x


def _tick(cpu: int, slots: mmap.mmap, slot: int, orders: int) -> None:
    """Count passes of the fixed loop while the last order is ``GO``;
    return when the order pipe closes."""
    os.sched_setaffinity(0, {cpu})
    ticks, running = 0, False
    while True:
        if select.select([orders], [], [], 0 if running else None)[0]:
            got = os.read(orders, 64)
            if not got:
                return  # the clock closed the pipe, or this process's parent ended
            running = got[-1:] == GO
        if running:
            fixed_loop(TICK_LOOP)
            ticks += 1
            SLOT.pack_into(slots, slot * SLOT.size, ticks, time.process_time())


def _fork_tick(cpu: int, slots: mmap.mmap, slot: int, orders: int, fds: list) -> int:
    """Fork a tick process that reads ``orders`` and closes the other ``fds``."""
    pid = os.fork()
    if pid:
        return pid
    try:  # the child: never returns into the caller
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        for fd in fds:
            if fd != orders:
                os.close(fd)
        _tick(cpu, slots, slot, orders)
    finally:
        os._exit(0)


def process_tree(pid: int) -> list[int]:
    """``pid`` and its live descendants."""
    tree, todo = [], [pid]
    while todo:
        p = todo.pop()
        tree.append(p)
        try:
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children", encoding="ascii") as kids:
                    todo += map(int, kids.read().split())
        except OSError:
            pass  # the process ended while we read it
    return tree


def _running_on(group: int) -> list[int]:
    """The CPU of each process under ``group`` that is running now."""
    cpus = []
    for pid in process_tree(group):
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended while we read it
        if fields[0] == "R":
            cpus.append(int(fields[36]))  # field 39 of proc(5): processor
    return cpus


class HostClock:
    """Context manager owning the tick processes.

    ``busy`` is the number of CPUs each measured operation keeps busy.
    With one, this process (and so every child it starts) is pinned to
    the one tick process's CPU for the life of the clock.  With more,
    there is a tick process per CPU, and each operation must hand
    ``pace`` its process group while it runs.
    """

    def __init__(self, busy: int):
        self._affinity = os.sched_getaffinity(0)
        cpus = sorted(self._affinity)
        self.shared = busy == 1
        self._cpu = cpus[-1]
        self._cpus = [self._cpu] if self.shared else cpus
        self._slots = mmap.mmap(-1, SLOT.size * len(self._cpus))
        self._reads, self._writes = {}, {}  # cpu: the ends of its order pipe
        for cpu in self._cpus:
            self._reads[cpu], self._writes[cpu] = os.pipe()
        self._pids: list[int] = []
        self._paused = 0.0
        self._last_gap = 0.0

    def _order(self, cpus, order: bytes) -> None:
        for cpu in cpus:
            os.write(self._writes[cpu], order)

    @staticmethod
    def _close(fds: dict) -> None:
        while fds:
            os.close(fds.popitem()[1])

    def __enter__(self) -> "HostClock":
        if self.shared:
            os.sched_setaffinity(0, {self._cpu})
        fds = [*self._reads.values(), *self._writes.values()]
        try:
            for slot, cpu in enumerate(self._cpus):
                self._pids.append(_fork_tick(cpu, self._slots, slot, self._reads[cpu], fds))
            self._close(self._reads)
            self._order(self._cpus, GO)
            while any(SLOT.unpack_from(self._slots, i * SLOT.size)[0] == 0
                      for i in range(len(self._cpus))):
                time.sleep(0.001)
            if not self.shared:
                self._order(self._cpus, HALT)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        """Close the order pipes, so that every tick process ends, and reap them."""
        self._close(self._reads)
        self._close(self._writes)
        deadline = time.monotonic() + 5
        for pid in self._pids:
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.001)
        self._pids = []
        os.sched_setaffinity(0, self._affinity)

    def pace(self, group: int) -> None:
        """Called often while ``group`` runs: every ``SLICE_S``, stop it
        for ``GAP_S`` and run a tick on each CPU it was running on."""
        if self.shared or time.perf_counter() - self._last_gap < SLICE_S:
            return
        start = time.perf_counter()
        cpus = {cpu for cpu in _running_on(group) if cpu in self._writes}
        if not cpus:
            return  # the group is waiting, or has ended
        try:
            os.killpg(group, signal.SIGSTOP)
        except ProcessLookupError:
            return  # the group has ended
        try:
            self._order(cpus, GO)
            time.sleep(GAP_S)
            self._order(cpus, HALT)
            time.sleep(TICK_S * 2)  # let each tick finish its pass
        finally:
            try:
                os.killpg(group, signal.SIGCONT)
            except ProcessLookupError:
                pass  # killed while stopped
            self._last_gap = time.perf_counter()
            self._paused += self._last_gap - start

    def _totals(self) -> tuple:
        slots = [SLOT.unpack_from(self._slots, i * SLOT.size) for i in range(len(self._cpus))]
        return sum(ticks for ticks, _ in slots), sum(cpu for _, cpu in slots)

    def _speed(self, before) -> float:
        """Reference seconds per CPU second of the ticks since ``before``
        (since the clock started, if no tick ran since then)."""
        passes, seconds = self._totals()
        if seconds == before[1]:
            before = (0, 0.0)
        return (passes - before[0]) / (seconds - before[1]) * TICK_S

    def measure(self, name: str, fn, *args):
        """``(result, Timing)`` of ``fn(*args)``, which returns
        ``(result, cpu seconds)``; ``name`` labels the operation in a
        traced run and is unused here."""
        before = self._totals()
        self._paused = 0.0
        start = time.perf_counter()
        result, cpu = fn(*args)
        wall = time.perf_counter() - start - self._paused
        speed = self._speed(before)
        if self.shared:
            return result, Timing(wall, cpu, cpu * speed, cpu * speed)
        return result, Timing(wall, cpu, wall * speed, cpu * speed)
