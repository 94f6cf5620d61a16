"""SPMD launcher: run one function on every rank of a simulated world.

:func:`run_spmd` is the ``mpiexec`` of this package: it spins up one
thread per rank, hands each a :class:`~repro.simmpi.comm.Communicator`,
and collects per-rank return values.  NumPy kernels release the GIL, so
ranks genuinely overlap; but the point of the substrate is *semantic*
fidelity (real message passing, real data distribution, byte-accurate
traffic), not wall-clock parallel speedup — modelled cluster timing
comes from :mod:`repro.cluster`.

Failure semantics: if any rank raises, the world's abort flag is set,
blocked receives/barriers on other ranks unwind, and the first original
exception is re-raised in the caller — mirroring how an MPI job aborts.

Robustness options: ``faults=`` attaches a deterministic
:class:`~repro.simmpi.faults.FaultPlan`/``ChaosSchedule``;
``transport=`` layers the reliable
:class:`~repro.simmpi.transport.TransportPolicy` over every channel; and
``max_restarts=`` bounds automatic re-execution after an injected rank
kill.  Restart re-runs the *whole world* — on this substrate (as in a
real MPI job) a half-dead world cannot resynchronise its collectives,
so recovery is job-level — which is only sound when the rank program is
idempotent (a pure function of its inputs, as the distributed FFTs
are).  Consumed one-shot faults stay consumed across restarts, so a
bounded plan converges.
"""

from __future__ import annotations

import math
import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..exectx import reset_execution_context, set_execution_context
from ..utils import check_positive_int
from .comm import Communicator
from .errors import InjectedFault, RankFailedError, SimMpiError, SpmdError
from .faults import FaultPlan
from .stats import TrafficStats
from .transport import TransportPolicy, World

_ENGINES = ("thread", "des")

__all__ = ["SpmdResult", "current_rank", "run_spmd"]

_tls = threading.local()


def current_rank() -> int | None:
    """The simmpi rank of the calling thread, or None outside a rank.

    Set by the SPMD launcher for the lifetime of each rank thread.  Used
    by observers (e.g. the happens-before checker of
    :mod:`repro.check.hb`) to attribute shared-state accesses to ranks.
    """
    return getattr(_tls, "rank", None)


@dataclass
class SpmdResult:
    """Return values of one SPMD run plus its traffic statistics.

    ``failures`` is non-empty only for ``resilient=True`` runs that
    survived rank deaths: ``[(rank, exception), ...]`` in rank order,
    with ``values[rank] is None`` for each casualty.  Fault-free runs
    (and all non-resilient runs, which raise instead) leave it empty.
    """

    values: list[Any]
    stats: TrafficStats
    restarts: int = 0  # world re-executions consumed recovering rank kills
    failures: list[tuple[int, BaseException]] = field(default_factory=list)
    #: Virtual makespan of the run in modelled seconds (DES engine only;
    #: None under the thread engine, which has no virtual clock).
    virtual_time_s: float | None = None

    @property
    def degraded(self) -> bool:
        """Whether this result was produced despite rank failures."""
        return bool(self.failures)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, rank: int) -> Any:
        return self.values[rank]


def _default_restartable(exc: BaseException) -> bool:
    return isinstance(exc, InjectedFault)


def _check_timeout(timeout: Any) -> float:
    """*timeout* as a ``float`` after checking it is finite and > 0."""
    numeric = (int, float, np.integer, np.floating)
    if isinstance(timeout, bool) or not isinstance(timeout, numeric):
        raise TypeError(
            f"timeout must be a number of seconds, got {type(timeout).__name__}"
        )
    if not math.isfinite(timeout) or timeout <= 0:
        raise ValueError(f"timeout must be finite and > 0, got {timeout}")
    return float(timeout)


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = 120.0,
    faults: FaultPlan | None = None,
    transport: TransportPolicy | None = None,
    trace: Any | None = None,
    schedule: Any | None = None,
    max_restarts: int = 0,
    restartable: Callable[[BaseException], bool] | None = None,
    resilient: bool = False,
    ranks_per_node: int | None = None,
    alltoall_algorithm: str = "pairwise",
    engine: str = "thread",
    cost_model: Any | None = None,
    **kwargs: Any,
) -> SpmdResult:
    """Execute ``fn(comm, *args, **kwargs)`` on *nranks* ranks.

    Parameters
    ----------
    nranks:
        World size: a positive ``int`` (NumPy integers too; ``bool``,
        ``float`` and ``str`` raise :class:`TypeError`).
    fn:
        The rank program; receives its :class:`Communicator` first.
    timeout:
        Seconds a receive/barrier may block before the run is declared
        deadlocked: a finite number > 0 (NumPy scalars too; ``bool``
        raises :class:`TypeError`).
    faults:
        A :class:`~repro.simmpi.faults.FaultPlan` or ``ChaosSchedule``
        injecting deterministic wire faults and phase-boundary rank
        kills.  Per-run delivery counters are reset on every (re)start;
        consumed one-shot faults are not.
    transport:
        A :class:`~repro.simmpi.transport.TransportPolicy` enabling the
        reliable transport (checksums, sequence numbers, bounded
        retransmission) on every channel.
    trace:
        A :class:`repro.trace.TraceRecorder` capturing per-rank spans
        (compute, send/recv, collectives, waits, retransmissions) for
        virtual-timeline analysis.  Zero-cost when None; bit-transparent
        when set (identical results and traffic statistics).  Restart
        attempts reset the recorder so the timeline describes the
        successful attempt.
    schedule:
        A :class:`repro.check.ScheduleController` perturbing message
        delivery and thread start order along a seeded interleaving.
        Like *trace* it must be bit-transparent: a correct (race-free)
        rank program produces identical results, traffic statistics and
        trace structure under every schedule — the fuzzer in
        :mod:`repro.check.schedules` asserts exactly that.  Per-run
        state is reset on every (re)start attempt.
    max_restarts:
        How many times the whole world may be re-executed after a
        failure whose root cause satisfies *restartable* (default:
        injected rank kills).  Requires *fn* to be idempotent.
    restartable:
        Predicate over the root-cause exception deciding whether a
        failed attempt may be retried.
    resilient:
        ULFM-style survival mode.  A dying rank is *marked* failed
        instead of aborting the world: survivors keep running, blocked
        operations on the casualty raise
        :class:`~repro.simmpi.errors.RankFailedError`, and
        ``comm.shrink()`` yields a survivors-only communicator.  The run
        returns a partial :class:`SpmdResult` (``failures`` lists the
        casualties) as long as at least one rank completed; it raises
        :class:`~repro.simmpi.errors.SpmdError` only when every rank
        failed.
    ranks_per_node:
        Node topology of the simulated cluster: R consecutive ranks
        share each node (see :class:`~repro.simmpi.nodes.NodeMap`), a
        positive ``int``.  Same-node messages ride the zero-copy node
        pool (and, under DES, pay no wire time); traffic statistics
        split bytes into intra-node vs inter-node.  ``None`` keeps the
        historical flat world (every rank its own node).
    alltoall_algorithm:
        The world's exchange schedule, run by every
        :meth:`~repro.simmpi.comm.Communicator.alltoall_matrix` —
        ``"pairwise"`` or ``"hierarchical"`` (see
        :mod:`repro.simmpi.alltoall`).  This is the one place it is
        set.
    engine:
        Execution substrate.  ``"thread"`` (default) runs one
        free-running OS thread per rank on the wall clock — the
        historical backend.  ``"des"`` runs ranks as cooperative fibers
        under the deterministic virtual-time scheduler of
        :mod:`repro.simmpi.des`: worlds of thousands of ranks execute in
        seconds, timeouts/deadlocks resolve at virtual speed, and the
        run is a pure function of (program, seed).  The two engines are
        pinned together by the zero-tolerance ``des`` conformance group:
        identical outputs (bitwise) and traffic statistics
        (byte-for-byte) wherever both can run.
    cost_model:
        DES engine only: the :class:`repro.trace.TraceCostModel`
        advancing virtual clocks (compute flops, wire/NIC, barrier).
        Defaults to the standard model.  It is the one definition of
        the virtual wire: its ``latency_s`` and ``fabric`` price every
        off-node message (the world's node map decides which are).
        A traced run's timeline is stamped by this clock.  The thread
        engine delivers at post time.

    Returns an :class:`SpmdResult` with ``values[rank]``, the shared
    :class:`TrafficStats` of the successful attempt, and the number of
    restarts consumed.  A failed run raises
    :class:`~repro.simmpi.errors.SpmdError` carrying *every* rank's
    exception and formatted traceback (``failures``/``tracebacks``),
    with ``rank``/``original`` still naming the selected root cause.
    """
    nranks = check_positive_int(nranks, "nranks")
    timeout = _check_timeout(timeout)
    if ranks_per_node is not None:
        ranks_per_node = check_positive_int(ranks_per_node, "ranks_per_node")
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
    can_restart = restartable if restartable is not None else _default_restartable
    attempt = 0
    while True:
        if faults is not None:
            faults.new_run()
        if trace is not None:
            trace.new_run()
        if schedule is not None:
            schedule.new_run()
        failure = _run_once(
            nranks, fn, args, kwargs, timeout, faults, transport, trace,
            schedule, resilient, ranks_per_node, alltoall_algorithm, engine,
            cost_model,
        )
        if isinstance(failure, SpmdResult):
            failure.restarts = attempt
            return failure
        if attempt < max_restarts and can_restart(failure.original):
            attempt += 1
            continue
        raise failure from failure.original


def _run_once(
    nranks: int,
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    timeout: float,
    faults: FaultPlan | None,
    transport: TransportPolicy | None,
    trace: Any | None = None,
    schedule: Any | None = None,
    resilient: bool = False,
    ranks_per_node: int | None = None,
    alltoall_algorithm: str = "pairwise",
    engine: str = "thread",
    cost_model: Any | None = None,
) -> SpmdResult | SpmdError:
    if engine == "des":
        from .des import DesWorld

        world = DesWorld(
            nranks,
            timeout=timeout,
            faults=faults,
            transport=transport,
            resilient=resilient,
            ranks_per_node=ranks_per_node,
            alltoall_algorithm=alltoall_algorithm,
            cost_model=cost_model,
        )
    else:
        world = World(
            nranks,
            timeout=timeout,
            faults=faults,
            transport=transport,
            resilient=resilient,
            ranks_per_node=ranks_per_node,
            alltoall_algorithm=alltoall_algorithm,
        )
    if trace is not None:
        trace.attach(world)
    if schedule is not None:
        world.scheduler = schedule
    values: list[Any] = [None] * nranks
    completed: list[bool] = [False] * nranks
    errors: list[tuple[int, BaseException]] = []
    tracebacks: dict[int, str] = {}
    errors_lock = threading.Lock()

    def runner(rank: int) -> None:
        _tls.rank = rank
        prev_ctx = set_execution_context(("world", world.ctx_token, rank))
        comm = Communicator(world, rank)
        try:
            values[rank] = fn(comm, *args, **kwargs)
            completed[rank] = True
        except BaseException as exc:  # noqa: BLE001 - must propagate everything
            with errors_lock:
                errors.append((rank, exc))
                tracebacks[rank] = traceback.format_exc()
            world.mark_failed(rank, exc)
        finally:
            _tls.rank = None
            reset_execution_context(prev_ctx)

    start_order = range(nranks)
    if schedule is not None:
        # Seeded start-order perturbation: under threads the OS scheduler
        # sees a different arrival pattern; under DES the deterministic
        # ready queue is seeded in this order.
        start_order = schedule.start_order(nranks)
    if engine == "des":
        world.des.execute(list(start_order), runner)
    else:
        threads = [
            threading.Thread(target=runner, args=(rank,), name=f"spmd-rank-{rank}")
            for rank in range(nranks)
        ]
        for rank in start_order:
            threads[rank].start()
        for t in threads:
            t.join()
    virtual_time_s = world.des.max_clock() if engine == "des" else None

    if errors:
        errors.sort(key=lambda e: e[0])
        if resilient and any(completed):
            # Survival mode: at least one rank finished despite the
            # casualties — hand back the partial result and the failure
            # report; the caller decides whether degraded is acceptable.
            return SpmdResult(
                values,
                world.stats,
                failures=list(errors),
                virtual_time_s=virtual_time_s,
            )

        def is_secondary(exc: BaseException) -> bool:
            # Plain SimMpiError ("aborted: ...") and RankFailedError
            # (a peer's death observed by a survivor) are consequences
            # of some other rank's failure, not root causes.  Other
            # subclasses raised by user code or fault plans (e.g.
            # InjectedFault) ARE root causes.
            return type(exc) is SimMpiError or isinstance(exc, RankFailedError)

        rank, original = errors[0]
        if is_secondary(original):
            for r, e in errors:
                if not is_secondary(e):
                    rank, original = r, e
                    break
        return SpmdError(rank, original, errors, tracebacks)
    return SpmdResult(values, world.stats, virtual_time_s=virtual_time_s)
