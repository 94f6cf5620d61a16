"""Exception types of the simulated message-passing runtime."""

from __future__ import annotations

__all__ = [
    "SimMpiError",
    "DeadlockError",
    "CollectiveTimeoutError",
    "RankFailure",
    "RankFailedError",
    "SpmdError",
    "InjectedFault",
    "CorruptMessageError",
    "RetryExhaustedError",
    "VerificationError",
]


class SimMpiError(RuntimeError):
    """Base class for all simulated-MPI errors."""


class DeadlockError(SimMpiError):
    """A receive (or barrier) waited past the runtime's timeout.

    In a real MPI job this is the hang you attach a debugger to; here it
    is turned into a hard error so the test suite stays honest about
    matching sends and receives.
    """


class CollectiveTimeoutError(DeadlockError):
    """An explicitly bounded wait (``timeout=``) expired with no peer dead.

    The failure-detection layer raises :class:`RankFailedError` the
    moment a peer is *known* dead and its channel is drained; this error
    is the wall-clock backstop for the remaining case — the operation
    simply did not complete within the caller's deadline and no failure
    has been attributed.  Subclasses :class:`DeadlockError` so existing
    deadlock handling (root-cause selection, restart predicates) treats
    it identically.
    """

    def __init__(self, what: str, timeout: float, waiting_on: str = ""):
        detail = f" (waiting on {waiting_on})" if waiting_on else ""
        super().__init__(f"{what} timed out after {timeout}s{detail}")
        self.what = what
        self.timeout = timeout
        self.waiting_on = waiting_on


class RankFailure(SimMpiError):
    """Raised on surviving ranks when another rank died with an exception."""

    def __init__(self, rank: int, original: BaseException):
        super().__init__(f"rank {rank} failed: {original!r}")
        self.rank = rank
        self.original = original


class RankFailedError(SimMpiError):
    """A blocked operation can never complete: the peer rank(s) are dead.

    The mini-ULFM error of the failure-detection layer.  Raised
    *deterministically* — a waiter only declares a peer dead after the
    world has marked it failed AND every message the peer physically put
    on the wire has been drained, so the set of delivered messages (and
    therefore every survivor's observable state) is independent of
    thread interleaving.  ``ranks`` names the dead peers blocking this
    operation; ``world.failed_ranks()`` gives the full agreed set.
    """

    def __init__(self, ranks: tuple[int, ...] | list[int], where: str = ""):
        self.ranks = tuple(sorted(set(int(r) for r in ranks)))
        names = ", ".join(str(r) for r in self.ranks)
        detail = f" during {where}" if where else ""
        super().__init__(f"peer rank(s) {names} failed{detail}")
        self.where = where


class SpmdError(RankFailure):
    """Aggregate failure report of one SPMD run (every rank's traceback).

    Subclasses :class:`RankFailure`, keeping its root-cause contract:
    ``rank``/``original`` still name the selected root cause (first
    non-secondary failure in rank order), so existing handlers and
    restart predicates are unchanged.  Additionally carries *every*
    rank's failure — ``failures`` is ``[(rank, exception), ...]`` in
    rank order and ``tracebacks`` maps rank to the formatted traceback
    captured on the worker thread — so a multi-rank crash no longer
    silently drops all but one error.
    """

    def __init__(
        self,
        rank: int,
        original: BaseException,
        failures: list[tuple[int, BaseException]],
        tracebacks: dict[int, str] | None = None,
    ):
        super().__init__(rank, original)
        self.failures = list(failures)
        self.tracebacks = dict(tracebacks or {})
        if len(self.failures) > 1:
            lines = [f"rank {rank} failed: {original!r}",
                     f"({len(self.failures)} ranks failed in total)"]
            for r, exc in self.failures:
                lines.append(f"  rank {r}: {type(exc).__name__}: {exc}")
            self.args = ("\n".join(lines),)


class InjectedFault(SimMpiError):
    """Raised by a fault-injection hook (tests of failure handling)."""


class CorruptMessageError(SimMpiError):
    """A received message failed its transport-level integrity check.

    Raised when :class:`~repro.simmpi.transport.TransportPolicy` has
    checksums enabled but retransmission exhausted or disabled
    (``max_retries=0``: detect-only mode) — the corruption is reported
    instead of silently delivered.
    """

    def __init__(self, src: int, dst: int, tag: int, seq: int, reason: str):
        super().__init__(
            f"corrupt message {src}->{dst} (tag={tag}, seq={seq}): {reason}"
        )
        self.src = src
        self.dst = dst
        self.tag = tag
        self.seq = seq
        self.reason = reason


class RetryExhaustedError(SimMpiError):
    """Reliable transport gave up redelivering a message.

    The receiver requested retransmission ``attempts`` times (bounded by
    ``TransportPolicy.max_retries``) and never obtained an intact copy —
    the simulated link is effectively down.
    """

    def __init__(self, src: int, dst: int, tag: int, seq: int, attempts: int):
        super().__init__(
            f"retransmit of {src}->{dst} (tag={tag}, seq={seq}) "
            f"abandoned after {attempts} attempts"
        )
        self.src = src
        self.dst = dst
        self.tag = tag
        self.seq = seq
        self.attempts = attempts


class VerificationError(SimMpiError):
    """An ABFT checksum did not match its block.

    Raised by the ``resilience=`` rank program of
    :func:`repro.parallel.soi_fft_distributed` when a received
    all-to-all block disagrees with the checksum vector that travelled
    beside it, so a corrupted result is never returned silently.
    Message-level corruption is the reliable transport's to repair
    (:class:`CorruptMessageError`, :class:`RetryExhaustedError`).
    """
