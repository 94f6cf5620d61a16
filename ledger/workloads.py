"""The five workloads: what one op is, its numpy twin, and how it is checked.

Every workload is a closed loop driven from one generator thread (callers
wait for replies).  Each class imports the program inside
:meth:`Workload.construct`, so a fresh interpreter can time ``import
repro`` and construction separately from input generation.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
import traceback
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .inputs import (
    DIST, KERNEL_SHAPES, SEQ_1D, SEQ_BATCH, SERVE_KINDS, SERVE_WINDOW, make_inputs,
)
from .trace import Tracer

EPS64 = float(np.finfo(np.float64).eps)
EPS32 = float(np.finfo(np.float32).eps)
TICKET_TIMEOUT_S = 60.0


def rel_l2(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(np.ravel(got) - np.ravel(ref)) / np.linalg.norm(np.ravel(ref)))


def dft_tolerance(n: int, single: bool = False) -> float:
    return (64 * EPS32 if single else 32 * EPS64) * math.log2(n)


def soi_tolerance(plan) -> float:
    from repro.core import error_budget

    return 10.0 * error_budget(plan)["modelled_relative_error"]


_FFT_HAS_OUT = "out" in inspect.signature(np.fft.fft).parameters   # numpy >= 2.0


def numpy_twin(fn, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The numpy.fft reference of an op, written into a preallocated,
    already-touched *out*.  A fresh 16 MB result costs 21 or 38 ms for the
    same 2^20 transform depending on whether the allocator hands numpy
    recycled or unfaulted pages, which would make the ratio depend on the
    harness's own allocation pattern."""
    return fn(x, axis=-1, out=out) if _FFT_HAS_OUT else fn(x, axis=-1)


def touched(shape, dtype=np.complex128) -> np.ndarray:
    return np.zeros(shape, dtype=dtype) + 0


def default_backend(fn) -> str:
    """The library's own default for *fn*'s ``backend=`` (follows the code)."""
    return inspect.signature(fn).parameters["backend"].default


@dataclass
class Burst:
    ops: int = 0
    wall: float = 0.0       # seconds the program was busy (numpy twins and checks excluded)
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    #: program seconds/op over numpy.fft seconds/op on the same inputs: one
    #: value per op where the twin runs right after its op, one per burst
    #: for serve_mix (the twin pass follows the drained burst).
    ratios: list[float] = field(default_factory=list)
    submit: list[float] = field(default_factory=list)   # serve_mix: seconds inside submit()


class Workload:
    name = ""
    #: Ops of one block of the traced run (fixed, so span counts repeat exactly).
    traced_ops = 0

    def __init__(self, seed: int) -> None:
        self.inputs = make_inputs(self.name, seed)

    def construct(self) -> None:
        """Build plans / servers and warm them (timed as set-up)."""
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def traced_op(self, i: int, tracer: Tracer):
        raise NotImplementedError

    def allocate_twins(self) -> None:
        """Allocate and touch the output buffers of :meth:`numpy_op` (only
        runs that time the numpy twins need them)."""
        raise NotImplementedError

    def numpy_op(self, i: int) -> None:
        raise NotImplementedError

    def check(self, i: int, out) -> bool:
        raise NotImplementedError

    def first_op(self):
        return self.op(0)

    def check_first(self, out) -> bool:
        return self.check(0, out)

    def close(self) -> None:
        pass

    def _checked(self, i: int, out) -> int:
        """1 if op *i* failed verification (or produced nothing), else 0."""
        try:
            ok = out is not None and self.check(i, out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            print(f"ledger: {self.name}: op {i} failed verification", file=sys.stderr)
        return 0 if ok else 1

    def burst(self, start: int, seconds: float = math.inf, max_ops: int | None = None,
              check_all: bool = False, tracer: Tracer | None = None, twin: bool = False) -> Burst:
        """Run ops ``start, start+1, ...`` until the program has been busy
        for *seconds* or *max_ops* ran.

        With ``twin`` each op is followed by its numpy.fft twin on the
        same input, so the pair sees the same machine state.  The last op
        is verified after the clock stops; ``check_all`` verifies every
        op as it completes (warm-up only).
        """
        b = Burst()
        i, out = start, None
        while True:
            t0 = time.perf_counter()
            try:
                out = self.op(i) if tracer is None else self.traced_op(i, tracer)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out = None
                b.failed += 1
            t1 = time.perf_counter()
            if twin:
                self.numpy_op(i)
                b.ratios.append((t1 - t0) / (time.perf_counter() - t1))
            b.latencies.append(t1 - t0)
            b.wall += t1 - t0
            b.ops += 1
            if check_all and out is not None:
                b.failed += self._checked(i, out)
            i += 1
            if b.wall >= seconds or b.ops == max_ops:
                break
        if not check_all and out is not None:
            b.failed += self._checked(i - 1, out)
        return b


class KernelMix(Workload):
    name = "kernel_mix"
    traced_ops = 2

    def allocate_twins(self) -> None:
        self._twin_out = {
            label: touched((batch, n // 2 + 1)) if kind == "real"
            else touched((batch, n), self.inputs[label].dtype)
            for label, (n, batch, kind) in KERNEL_SHAPES.items()
        }

    def construct(self) -> None:
        from repro import dft

        self._dft = dft
        for label, (_, _, kind) in KERNEL_SHAPES.items():
            if kind != "real":
                self._plan(label)
        self._refs: dict[str, np.ndarray] = {}

    def _plan(self, label: str):
        n, _, kind = KERNEL_SHAPES[label]
        return self._dft.plan_for(n, precision="single" if kind == "c64" else None)

    def _one(self, label: str) -> np.ndarray:
        x = self.inputs[label]
        if KERNEL_SHAPES[label][2] == "real":
            return self._dft.rfft(x)
        return self._plan(label).execute(x)

    def op(self, i: int):
        return {label: self._one(label) for label in KERNEL_SHAPES}

    def traced_op(self, i: int, tracer: Tracer):
        out = {}
        with tracer.span("harness.op", op=i):
            for label in KERNEL_SHAPES:
                with tracer.span(f"dft.execute.{label}"):
                    out[label] = self._one(label)
        return out

    def numpy_one(self, label: str) -> None:
        fn = np.fft.rfft if KERNEL_SHAPES[label][2] == "real" else np.fft.fft
        numpy_twin(fn, self.inputs[label], self._twin_out[label])

    def numpy_op(self, i: int) -> None:
        for label in KERNEL_SHAPES:
            self.numpy_one(label)

    def check(self, i: int, out) -> bool:
        ok = True
        for label, (n, _, kind) in KERNEL_SHAPES.items():
            if label not in self._refs:
                x = self.inputs[label]
                self._refs[label] = (
                    np.fft.rfft(x, axis=-1) if kind == "real"
                    else np.fft.fft(x.astype(np.complex128), axis=-1)
                )
            ok &= rel_l2(out[label], self._refs[label]) <= dft_tolerance(n, kind == "c64")
        return bool(ok)


def soi_stages_1d(plan, be, x: np.ndarray, span) -> np.ndarray:
    """``soi_fft``'s 1-D hot path replayed stage by stage through public
    plan / backend methods; bitwise equal to ``soi_fft(x, plan, backend=be)``."""
    from repro.dft.backends import backend_fft_tt

    with span("core.window"):
        winb = plan.window_view(x, x[: plan.b * plan.p], plan.q_chunks)
    with span("core.convolve"):
        z_t = plan.contract_windows_t(winb).reshape(plan.p, plan.m_over)
    with span("dft.fft_p"):
        segments = backend_fft_tt(be, z_t)
    with span("dft.fft_m"):
        yt = be.fft(segments)
    with span("core.demod"):
        y = (yt[..., : plan.m] * plan.demod_recip).reshape(plan.n)
    return y


def soi_stages_batch(plan, be, x: np.ndarray, span) -> np.ndarray:
    """The generic batched ``soi_fft`` path (``soi_convolve`` + swapaxes),
    stage by stage; bitwise equal to ``soi_fft(x, plan, backend=be)``."""
    from repro.core import soi_convolve

    with span("core.convolve"):
        z = soi_convolve(x, plan)
    with span("dft.fft_p"):
        v = be.fft(z)
    with span("core.transpose"):
        segments = np.ascontiguousarray(np.swapaxes(v, -1, -2))
    with span("dft.fft_m"):
        yt = be.fft(segments)
    with span("core.demod"):
        y = (yt[..., : plan.m] * plan.demod_recip).reshape(*x.shape[:-1], plan.n)
    return y


def soi_inverse_stages_batch(plan, be, y: np.ndarray, span) -> np.ndarray:
    """``soi_ifft`` on the batched path: conj, forward stages, conj and 1/N."""
    with span("core.conj"):
        c = np.conj(y)
    out = soi_stages_batch(plan, be, c, span)
    with span("core.conj"):
        np.conjugate(out, out=out)
        out /= plan.n
    return out


class SeqSoi1d(Workload):
    name = "seq_soi_1d"
    traced_ops = 5

    def allocate_twins(self) -> None:
        self._twin_out = touched(SEQ_1D["n"])

    def construct(self) -> None:
        from repro.core import SoiPlan, soi_fft
        from repro.dft.backends import get_backend

        self._soi_fft = soi_fft
        self.plan = SoiPlan(n=SEQ_1D["n"], p=SEQ_1D["p"])
        self.backend = get_backend(default_backend(soi_fft))
        self._tol = soi_tolerance(self.plan)
        self._refs: dict[int, np.ndarray] = {}

    def x(self, i: int) -> np.ndarray:
        return self.inputs["x"][i % SEQ_1D["pool"]]

    def op(self, i: int):
        return self._soi_fft(self.x(i), self.plan)

    def traced_op(self, i: int, tracer: Tracer):
        with tracer.span("harness.op", op=i):
            return soi_stages_1d(self.plan, self.backend, self.x(i), tracer.span)

    def numpy_op(self, i: int) -> None:
        numpy_twin(np.fft.fft, self.x(i), self._twin_out)

    def check(self, i: int, out) -> bool:
        k = i % SEQ_1D["pool"]
        if k not in self._refs:
            self._refs[k] = np.fft.fft(self.x(i))
        return rel_l2(out, self._refs[k]) <= self._tol


class SeqSoiBatch(Workload):
    name = "seq_soi_batch"
    traced_ops = 2
    LIBRARY = "repro"   # the kernel tier inside SOI (serve's default library)

    def allocate_twins(self) -> None:
        shape = (SEQ_BATCH["batch"], SEQ_BATCH["n"])
        self._twin_out = touched(shape), touched(shape)

    def construct(self) -> None:
        from repro.core import SoiPlan, soi_fft, soi_ifft
        from repro.dft.backends import get_backend

        self._soi_fft, self._soi_ifft = soi_fft, soi_ifft
        self.plan = SoiPlan(n=SEQ_BATCH["n"], p=SEQ_BATCH["p"])
        self.backend = get_backend(self.LIBRARY)
        self._tol = soi_tolerance(self.plan)
        self._refs: dict[int, np.ndarray] = {}

    def x(self, i: int) -> np.ndarray:
        return self.inputs["x"][i % SEQ_BATCH["pool"]]

    def op(self, i: int):
        y = self._soi_fft(self.x(i), self.plan, backend=self.LIBRARY)
        return y, self._soi_ifft(y, self.plan, backend=self.LIBRARY)

    def traced_op(self, i: int, tracer: Tracer):
        with tracer.span("harness.op", op=i):
            y = soi_stages_batch(self.plan, self.backend, self.x(i), tracer.span)
            return y, soi_inverse_stages_batch(self.plan, self.backend, y, tracer.span)

    def numpy_op(self, i: int) -> None:
        fwd, back = self._twin_out
        numpy_twin(np.fft.ifft, numpy_twin(np.fft.fft, self.x(i), fwd), back)

    def check(self, i: int, out) -> bool:
        k = i % SEQ_BATCH["pool"]
        if k not in self._refs:
            self._refs[k] = np.fft.fft(self.x(i), axis=-1)
        y, back = out
        return rel_l2(y, self._refs[k]) <= self._tol and rel_l2(back, self.x(i)) <= 2 * self._tol


def dist_rank(comm, blocks, plan, fn):
    return fn(comm, blocks[comm.rank], plan)


def dist_rank_traced(comm, blocks, plan, fn, tracer, parent):
    with tracer.span("parallel.soi_fft_distributed", parent=parent, lane=comm.rank + 1):
        return fn(comm, blocks[comm.rank], plan)


class DistSoi(Workload):
    name = "dist_soi"
    traced_ops = 20

    def allocate_twins(self) -> None:
        self._twin_out = touched(DIST["n"])

    def construct(self) -> None:
        from repro.core import SoiPlan, soi_fft
        from repro.parallel import soi_fft_distributed, split_blocks
        from repro.simmpi import run_spmd

        self._run_spmd, self._rank_program, self._soi_fft = run_spmd, soi_fft_distributed, soi_fft
        self.plan = SoiPlan(n=DIST["n"], p=DIST["p"])
        self.blocks = [split_blocks(x, DIST["ranks"]) for x in self.inputs["x"]]
        self._refs: dict[int, np.ndarray] = {}

    def x(self, i: int) -> np.ndarray:
        return self.inputs["x"][i % DIST["pool"]]

    def op(self, i: int):
        res = self._run_spmd(
            DIST["ranks"], dist_rank, self.blocks[i % DIST["pool"]], self.plan, self._rank_program
        )
        return res.values

    def traced_op(self, i: int, tracer: Tracer):
        with tracer.span("harness.op", op=i):
            with tracer.span("simmpi.run_spmd") as launch:
                res = self._run_spmd(
                    DIST["ranks"], dist_rank_traced, self.blocks[i % DIST["pool"]],
                    self.plan, self._rank_program, tracer, launch,
                )
        return res.values

    def numpy_op(self, i: int) -> None:
        numpy_twin(np.fft.fft, self.x(i), self._twin_out)

    def reference(self, i: int) -> np.ndarray:
        k = i % DIST["pool"]
        if k not in self._refs:
            self._refs[k] = self._soi_fft(self.x(i), self.plan)
        return self._refs[k]

    def check(self, i: int, out) -> bool:
        return np.array_equal(np.concatenate(out), self.reference(i))


class ServeMix(Workload):
    name = "serve_mix"
    traced_ops = 200
    KINDS = tuple(SERVE_KINDS)
    TWIN_MIN_S = 0.1    # whole numpy passes over a burst's requests last at least this long

    def allocate_twins(self) -> None:
        self._twin_out = {kind: touched(n) for kind, (_, n, _, _) in SERVE_KINDS.items()}

    def construct(self) -> None:
        from repro.serve import ServeConfig, TransformServer

        soi_n, soi_p = SERVE_KINDS["soi"][1], SERVE_KINDS["soi"][3]["p"]
        self.server = TransformServer(ServeConfig(
            workers=2,
            warm_shapes=[SERVE_KINDS["dft"][1], SERVE_KINDS["transpose"][1]],
            warm_soi=[(soi_n, soi_p)],
        ))
        t0 = time.perf_counter()
        self.server.start()
        self.start_s = time.perf_counter() - t0
        self.stop_s = 0.0
        self._refs: dict[tuple[str, int], np.ndarray] = {}
        self._soi_tol: float | None = None

    def close(self) -> None:
        t0 = time.perf_counter()
        self.server.stop()
        self.stop_s = time.perf_counter() - t0

    def request(self, i: int) -> tuple[str, int]:
        """Request *i* of the seeded sequence: ``(kind, pool index)``."""
        order = self.inputs["order"]
        kind = self.KINDS[order[i % len(order)]]
        return kind, i % SERVE_KINDS[kind][2]

    def payload(self, i: int) -> np.ndarray:
        kind, k = self.request(i)
        return self.inputs[kind][k]

    def _submit(self, i: int):
        kind, _ = self.request(i)
        return self.server.submit(
            self.payload(i), backend=kind, priority="batch", **SERVE_KINDS[kind][3]
        )

    def first_op(self):
        """One request of each kind, awaited in turn (the cold path of all three)."""
        firsts = [next(i for i in range(len(self.inputs["order"])) if self.request(i)[0] == kind)
                  for kind in self.KINDS]
        return [(i, self._submit(i).result(TICKET_TIMEOUT_S)) for i in firsts]

    def check_first(self, out) -> bool:
        return all(self.check(i, y) for i, y in out)

    def numpy_op(self, i: int) -> None:
        numpy_twin(np.fft.fft, self.payload(i), self._twin_out[self.request(i)[0]])

    def check(self, i: int, out) -> bool:
        kind, k = self.request(i)
        if (kind, k) not in self._refs:
            self._refs[kind, k] = np.fft.fft(self.inputs[kind][k])
        if kind == "soi":
            if self._soi_tol is None:
                from repro.core import soi_plan_for

                self._soi_tol = soi_tolerance(soi_plan_for(SERVE_KINDS["soi"][1], **SERVE_KINDS["soi"][3]))
            tol = self._soi_tol
        else:
            tol = dft_tolerance(SERVE_KINDS[kind][1])
        return rel_l2(out, self._refs[kind, k]) <= tol

    def burst(self, start: int, seconds: float = math.inf, max_ops: int | None = None,
              check_all: bool = False, tracer: Tracer | None = None, twin: bool = False) -> Burst:
        """Keep ``SERVE_WINDOW`` tickets outstanding, wait in submit order,
        then drain.  Latency runs from submit until completion is observed.
        The drained tail is verified after the clock stops; with ``twin``
        the burst's requests are then replayed through numpy.fft."""
        b = Burst()
        if tracer is None:
            def span(name, parent):
                return nullcontext()
        else:
            def span(name, parent):
                return tracer.span(name, parent=parent)
        window: deque = deque()
        tail: list[tuple[int, np.ndarray]] = []
        i, submitting = start, True
        t0 = time.perf_counter()
        while window or submitting:
            while submitting and len(window) < SERVE_WINDOW:
                # One lane per window slot: op k+16 is submitted only after op k ended.
                op_span = None if tracer is None else tracer.begin(
                    "harness.op", op=i, lane=1 + len(b.submit) % SERVE_WINDOW
                )
                ticket = None
                ts = time.perf_counter()
                try:
                    with span("serve.submit", op_span):
                        ticket = self._submit(i)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                b.submit.append(time.perf_counter() - ts)
                window.append((i, ts, ticket, op_span))
                i += 1
                submitting = len(b.submit) != max_ops
            j, ts, ticket, op_span = window.popleft()
            out = None
            if ticket is not None:
                try:
                    with span("serve.wait", op_span):
                        out = ticket.result(TICKET_TIMEOUT_S)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
            now = time.perf_counter()
            if tracer is not None:
                tracer.end(op_span)
            b.latencies.append(now - ts)
            b.ops += 1
            if out is None:
                b.failed += 1
            elif check_all:
                b.failed += self._checked(j, out)
            elif not submitting:
                tail.append((j, out))
            if now - t0 >= seconds:
                submitting = False
        b.wall = time.perf_counter() - t0
        b.failed += sum(self._checked(j, out) for j, out in tail)
        if twin:
            passes, t0 = 0, time.perf_counter()
            while passes == 0 or time.perf_counter() - t0 < self.TWIN_MIN_S:
                for j in range(start, start + b.ops):
                    self.numpy_op(j)
                passes += 1
            b.ratios.append(b.wall / ((time.perf_counter() - t0) / passes))
        return b


WORKLOADS = {cls.name: cls for cls in (KernelMix, SeqSoi1d, SeqSoiBatch, DistSoi, ServeMix)}
