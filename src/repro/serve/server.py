"""The persistent transform server: request loop, worker pool, warm caches.

Architecture (the panda-yoda ``MPIService`` / ``EventServerJobManager``
request-loop shape, in-process)::

    callers ──submit()──► AdmissionController ──select()──► workers
       ▲                   (bounded priority      │   (coalesced
       │                    queue, deadline       │    execute_batch)
       └──Ticket.result()◄──── fulfil ◄───────────┘

- ``submit`` validates, builds a :class:`TransformRequest`, offers it
  to the admission controller under the server's one condition lock,
  and wakes a worker.
- Each worker loops: wait for work (or the earliest queued deadline, so
  expiry never needs polling), form a coalesced batch, execute it
  OUTSIDE the lock, fulfil every ticket, record metrics.
- ``start()`` warms the plan caches first — from explicit dft shapes
  and SOI configurations — so the first requests hit warm plans.

One lock guards admission state; execution and fulfilment run outside
it.  Tickets resolve exactly once on every path (result, shed,
deadline, shutdown, executor error) — the no-hangs/no-silent-drops
guarantee the overload tests pin down.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..dft.backends import DEFAULT_BACKEND, UnknownBackendError, get_backend
from ..dft.cache import warm_plan_cache
from ..utils import check_positive_int
from .admission import AdmissionController
from .batcher import execute_batch
from .errors import ServerClosed
from .metrics import MetricsLog
from .request import BACKENDS, Ticket, TransformRequest, resolve_priority

__all__ = ["ServeConfig", "TransformServer"]


@dataclass(frozen=True)
class ServeConfig:
    """Frozen server configuration.

    ``max_batch=1, batch_linger_s=0.0`` serves strictly one request at
    a time; everything else (admission, metrics, workers) is the same
    as a coalescing server, so the two differ only in the batching.
    """

    workers: int = 2
    max_queue: int = 256
    max_batch: int = 64
    #: Batch-formation window: with fewer than ``max_batch`` requests
    #: queued, a worker waits up to this long for more arrivals before
    #: dispatching.  Trades bounded per-batch latency for larger
    #: coalesced batches under closed-loop load; 0 dispatches eagerly.
    batch_linger_s: float = 0.0
    age_promote_s: float = 0.05
    #: Node-local FFT library of a request without ``library=``: the
    #: one default every entry point shares (``numpy.fft``, picked by
    #: measurement); ``library="repro"`` opts in to this repo's engine.
    default_library: str = DEFAULT_BACKEND
    #: Lengths (or ``(n, dtype)`` pairs) to warm the dft plan cache with
    #: (the plans ``library="repro"`` requests run on).
    warm_shapes: Sequence = ()
    #: SOI configurations ``(n, p)`` to warm the SOI plan cache with.
    warm_soi: Sequence[tuple[int, int]] = ()

    def __post_init__(self) -> None:
        check_positive_int(self.workers, "workers")
        check_positive_int(self.max_queue, "max_queue")
        check_positive_int(self.max_batch, "max_batch")


class TransformServer:
    """Long-lived FFT service over every backend in the repo.

    Use as a context manager (``with TransformServer() as srv:``) or
    call :meth:`start` / :meth:`stop` explicitly.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.metrics = MetricsLog()
        self._cond = threading.Condition()
        self._admission = AdmissionController(
            self.config.max_queue,
            age_promote_s=self.config.age_promote_s,
            on_shed=self._on_shed,
        )
        self._workers: list[threading.Thread] = []
        self._next_rid = 0
        self._next_batch = 0
        self._state = "new"        # new | running | draining | stopped
        self._warmup_info: dict[str, Any] = {}

    # -- lifecycle ----------------------------------------------------
    def start(self) -> "TransformServer":
        with self._cond:
            if self._state != "new":
                raise ServerClosed(f"cannot start a {self._state} server")
            self._state = "running"
        self._warm()
        for i in range(self.config.workers):
            t = threading.Thread(
                target=self._worker_loop, args=(i,),
                name=f"serve-w{i}", daemon=True,
            )
            t.start()
            self._workers.append(t)
        return self

    def _warm(self) -> None:
        info: dict[str, Any] = {}
        if self.config.warm_shapes:
            info["shapes"] = warm_plan_cache(self.config.warm_shapes)
        if self.config.warm_soi:
            from ..core.plan import soi_plan_for

            for n, p in self.config.warm_soi:
                soi_plan_for(n, p)
            info["soi"] = {"warmed": len(tuple(self.config.warm_soi))}
        self._warmup_info = info

    def stop(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting work; finish (``drain=True``) or fail the queue.

        Every pending ticket resolves: drained tickets get results,
        non-drained ones fail with :class:`ServerClosed`.
        """
        with self._cond:
            if self._state in ("stopped", "new"):
                self._state = "stopped"
                return
            self._state = "draining" if drain else "stopped"
            if not drain:
                now = time.monotonic()
                self._admission.drain(lambda req: self._finish_unexecuted(
                    req, ServerClosed("server stopped before execution"),
                    "closed", now,
                ))
            self._cond.notify_all()
        for t in self._workers:
            t.join(timeout)
        with self._cond:
            self._state = "stopped"

    def __enter__(self) -> "TransformServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop(drain=True)

    # -- submission ---------------------------------------------------
    def submit(
        self,
        x: np.ndarray,
        *,
        direction: str = "forward",
        backend: str = "dft",
        library: str | None = None,
        priority: int | str = "batch",
        deadline_s: float | None = None,
        **params: Any,
    ) -> Ticket:
        """Submit one transform; returns a :class:`Ticket` immediately.

        Raises :class:`~repro.serve.errors.AdmissionRejected`
        synchronously when the admission controller refuses the request,
        and :class:`ServerClosed` when the server is not running.
        Backend-specific parameters ride in ``params`` (SOI:
        ``p``/``beta``/``window``; transpose: ``nranks``;
        NUFFT: ``points``/``k_modes``/``kind``).  *library* is the name
        of the node-local FFT backend (``"numpy"`` or ``"repro"``);
        ``None`` takes ``config.default_library``.
        """
        req = self._build_request(
            x, direction, backend, library, priority, deadline_s, params
        )
        with self._cond:
            if self._state != "running":
                raise ServerClosed(f"server is {self._state}")
            req.rid = self._next_rid = self._next_rid + 1
            req.ticket.rid = req.rid
            try:
                self._admission.offer(req, time.monotonic())
            except Exception:
                self.metrics.record(
                    self.metrics.span_for(req, "rejected", time.monotonic())
                )
                raise
            self._cond.notify()
        return req.ticket

    def _build_request(
        self, x, direction, backend, library, priority, deadline_s, params,
    ) -> TransformRequest:
        if direction not in ("forward", "inverse"):
            raise ValueError(f"direction must be forward|inverse, got {direction!r}")
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        lib = library or self.config.default_library
        if not isinstance(lib, str):
            raise TypeError(f"library must be a backend name, got {type(lib).__name__}")
        try:
            get_backend(lib)
        except UnknownBackendError as exc:
            raise UnknownBackendError(f"library={lib!r}: {exc}") from None
        arr = np.asarray(x)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"payload must be a non-empty 1-D array, got {arr.shape}")
        prio = resolve_priority(priority)
        cfg = self._backend_params(backend, arr, direction, params)
        now = time.monotonic()
        deadline = None
        if deadline_s is not None:
            if deadline_s <= 0:
                raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
            deadline = now + deadline_s
        req = TransformRequest(
            rid=0,
            payload=arr,
            n=int(arr.shape[-1]),
            direction=direction,
            backend=backend,
            library=lib,
            priority=prio,
            deadline=deadline,
            params=cfg,
            ticket=Ticket(0, prio),
            t_submit=now,
        )
        return req

    def _backend_params(self, backend, arr, direction, params) -> dict[str, Any]:
        known = {
            "dft": set(),
            "soi": {"p", "beta", "window"},
            "transpose": {"nranks"},
            "nufft": {"points", "k_modes", "kind"},
        }[backend]
        extra = set(params) - known
        if extra:
            raise TypeError(f"unexpected {backend} parameters: {sorted(extra)}")
        if backend == "soi":
            from fractions import Fraction

            return {
                "p": int(params.get("p", 8)),
                "beta": params.get("beta", Fraction(1, 4)),
                "window": params.get("window", "full"),
            }
        if backend == "transpose":
            if direction != "forward":
                raise ValueError("transpose backend serves forward transforms only")
            return {"nranks": int(params.get("nranks", 4))}
        if backend == "nufft":
            points = np.asarray(params["points"], dtype=np.float64)
            kind = int(params.get("kind", 1))
            if kind not in (1, 2):
                raise ValueError(f"nufft kind must be 1 or 2, got {kind}")
            if direction != "forward":
                raise ValueError("nufft backend serves forward transforms only")
            return {
                "points": points,
                "k_modes": int(params["k_modes"]),
                "kind": kind,
            }
        return {}

    # -- worker loop --------------------------------------------------
    def _worker_loop(self, worker: int) -> None:
        max_batch = self.config.max_batch
        linger = self.config.batch_linger_s
        while True:
            with self._cond:
                while not len(self._admission):
                    if self._state == "stopped":
                        return
                    if self._state == "draining":
                        return
                    deadline = self._admission.next_deadline()
                    wait = None
                    if deadline is not None:
                        wait = max(0.0, deadline - time.monotonic()) + 1e-4
                    self._cond.wait(wait)
                queued = len(self._admission)
                draining = self._state == "draining"
            if linger > 0.0 and queued < max_batch and not draining:
                # Batch-formation window, OUTSIDE the lock: callers keep
                # submitting while this worker waits for the batch to
                # fill.  (A cond.wait here would return on the first
                # submit's notify and never actually hold the window.)
                time.sleep(linger)
            with self._cond:
                batch = self._admission.select(time.monotonic(), max_batch)
                if not batch:
                    continue  # raced another worker, or all expired
                batch_id = self._next_batch = self._next_batch + 1
            self._run_batch(worker, batch_id, batch)

    def _run_batch(
        self, worker: int, batch_id: int, batch: list[TransformRequest]
    ) -> None:
        t_exec0 = time.monotonic()
        try:
            outputs = execute_batch(batch)
            error: BaseException | None = None
        except Exception as exc:
            outputs, error = [], exc
        t_exec1 = time.monotonic()
        # Fulfil without the lock: Event.set never blocks, and waking
        # K callers from one batch is the throughput-critical path.
        status = "ok" if error is None else "error"
        if error is None:
            for req, out in zip(batch, outputs):
                req.ticket._fulfill(out)
        else:
            for req in batch:
                req.ticket._fail(error)
        # One clock read and one metrics lock for the whole batch: the
        # per-request bookkeeping is exactly what coalescing amortises.
        now = time.monotonic()
        size = len(batch)
        self.metrics.record_many([
            self.metrics.span_for(
                req, status, now,
                worker=worker, batch_id=batch_id, batch_size=size,
                t_exec0=t_exec0, t_exec1=t_exec1,
            )
            for req in batch
        ])
        self.metrics.record_batch(batch_id, worker, batch[0].batch_key, size, t_exec0, t_exec1)

    # -- shed / close bookkeeping -------------------------------------
    def _on_shed(self, req: TransformRequest, err: Exception) -> None:
        # Called by the admission controller with the lock held.
        from .errors import DeadlineExceeded

        status = "deadline" if isinstance(err, DeadlineExceeded) else "shed"
        self.metrics.record(self.metrics.span_for(req, status, time.monotonic()))

    def _finish_unexecuted(
        self, req: TransformRequest, err: Exception, status: str, now: float
    ) -> None:
        req.ticket._fail(err)
        self.metrics.record(self.metrics.span_for(req, status, now))

    # -- observability ------------------------------------------------
    def admission_counters(self) -> dict[str, int]:
        with self._cond:
            return self._admission.counters()

    def warmup_info(self) -> dict[str, Any]:
        """What ``start()`` warmed (per source): plan-cache build counts."""
        return dict(self._warmup_info)

    def metrics_report(self) -> dict:
        """The SLO report plus admission counters and plan-cache stats."""
        from ..core.plan import soi_plan_cache_info
        from ..dft.cache import plan_cache_info

        report = self.metrics.slo_report(self.admission_counters())
        report["plan_cache"] = plan_cache_info()
        report["soi_plan_cache"] = soi_plan_cache_info()
        return report
