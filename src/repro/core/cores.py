"""A sequential SOI call on every usable CPU.

A sequential SOI call is cut into independent *units* by one rule: a
vector spanning at least two fft-p panels shares its panels (the
convolution + fft-p front half, :meth:`ConvolveKernel.panel_units`) and
row blocks (the fft-m + demodulation back half); otherwise each vector
of a batch is one unit, running its whole chain on the workspace its
thread already holds (:func:`repro.core.soi.soi_fft`).  The caller runs
the units together with a process-wide pool of helper threads, one per
other usable CPU.  Units are handed out one at a time, so a helper that
starts late or runs slow simply takes fewer.

**The budget is the kernel's workspaces.**  A plan's
:class:`~repro.core.convolve.ConvolveKernel` keeps one workspace per
usable CPU.  The caller checks one out as it always did (waiting if
none is free); a helper joins a call only if it can check one out
*without waiting*, and holds it until it leaves.  So the threads
computing on one plan never outnumber the CPUs, and when every
workspace is busy — eight rank threads, two serve workers, another
large call — the caller does every unit alone: the single-threaded
behaviour, with nothing to wait for and no oversubscription.

**Never inside an SPMD rank** (``execution_context()[0] == "world"``):
the ranks already are the parallel decomposition on the same cores.

**Bits.**  A unit's values do not depend on which thread computes it
or on how the work is cut: each vector is transformed on its own, the
convolution grid is anchored at global chunk 0, fft-p transforms each
column alone and fft-m each row alone — the contracts that make a
distributed run bitwise equal to the sequential one.  The result is
therefore bitwise independent of the number of CPUs and of the schedule.
"""

from __future__ import annotations

import os
import queue
import threading
from typing import Any, Callable, Sequence

from ..exectx import execution_context

__all__ = ["shared", "fan_out"]

_jobs: "queue.SimpleQueue[_Job]" = queue.SimpleQueue()
_start_lock = threading.Lock()
_helpers = 0  # helper threads started in this process


def shared(kernel: Any, units: Sequence) -> bool:
    """Whether *units* are worth sharing: two or more of them, a kernel
    with more than one workspace, and a caller outside any SPMD rank."""
    return (
        len(units) > 1
        and kernel.cpus > 1
        and execution_context()[0] != "world"
    )


def fan_out(kernel: Any, units: Sequence, run: Callable[[Any, Any], None]) -> None:
    """Call ``run(ws, unit)`` once for every unit, with *ws* a workspace
    of *kernel* checked out by the thread running it: this one, and —
    when the units are :func:`shared` — every helper that can check one
    out without waiting.  Returns when every unit is done; the first
    exception any thread raised is re-raised here, after every
    workspace is back."""
    if not units:
        return
    job = _Job(kernel, units, run)
    ws = kernel.checkout()
    try:
        if shared(kernel, units):
            _start_helpers(kernel.cpus - 1)
            for _ in range(min(kernel.cpus, len(units)) - 1):
                _jobs.put(job)
        job.work(ws)
    finally:
        kernel.checkin(ws)
        job.close()
    if job.error is not None:
        raise job.error


def _start_helpers(want: int) -> None:
    """Start helper threads until there are at least *want*."""
    global _helpers
    with _start_lock:
        while _helpers < want:
            threading.Thread(target=_helper, name=f"repro-core-{_helpers}", daemon=True).start()
            _helpers += 1


def _helper() -> None:
    while True:
        _jobs.get().help()


def _after_fork() -> None:
    """A forked child inherits the count but not the threads."""
    global _jobs, _start_lock, _helpers
    _jobs, _start_lock, _helpers = queue.SimpleQueue(), threading.Lock(), 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork)


class _Job:
    """The units of one call, handed out one at a time."""

    __slots__ = ("kernel", "units", "run", "next", "busy", "error", "cond")

    def __init__(self, kernel, units, run) -> None:
        self.kernel, self.units, self.run = kernel, units, run
        self.next = 0      # index of the next unit to hand out
        self.busy = 0      # helpers inside work()
        self.error: BaseException | None = None
        self.cond = threading.Condition()

    def work(self, ws) -> None:
        """Run units until none is left (or one has failed)."""
        while True:
            with self.cond:
                i = self.next
                if i >= len(self.units):
                    return
                self.next = i + 1
            try:
                self.run(ws, self.units[i])
            except BaseException as exc:
                with self.cond:
                    if self.error is None:
                        self.error = exc
                    self.next = len(self.units)   # hand out nothing more
                return

    def help(self) -> None:
        """A helper's turn: join only with a workspace free right now."""
        with self.cond:
            if self.next >= len(self.units):
                return
            try:
                ws = self.kernel.checkout(block=False)
            except MemoryError:   # no room for another workspace: stay out
                return
            if ws is None:
                return
            self.busy += 1
        try:
            self.work(ws)
        finally:
            self.kernel.checkin(ws)
            with self.cond:
                self.busy -= 1
                self.cond.notify_all()

    def close(self) -> None:
        """Wait for every helper to leave; keep nothing alive for the
        copies of this job still queued."""
        with self.cond:
            self.next = len(self.units)
            while self.busy:
                self.cond.wait()
        self.kernel, self.units, self.run = None, (), None
