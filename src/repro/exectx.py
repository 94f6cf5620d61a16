"""Execution-context identity for per-context buffer pools.

Several hot paths keep reusable scratch buffers "per thread"
(``threading.local`` / ``threading.get_ident()`` keys).  That identity
is wrong on two execution substrates this package supports:

- The discrete-event simmpi backend (``run_spmd(..., engine="des")``)
  recycles a completed rank's OS thread as the vessel for a
  not-yet-started rank, so ``get_ident()`` aliases *across ranks*.
  A pool keyed on the thread would hand rank 7's half-written scratch
  buffer to rank 3000.
- Conversely, one logical rank always runs on one vessel for its whole
  life, but two *worlds* (e.g. the serve layer running concurrent SPMD
  jobs) may both contain a "rank 0" — so the rank number alone is not
  unique either.

The stable identity is ``(world, rank)``.  :func:`execution_context`
returns ``("world", token, rank)`` inside an SPMD rank (the token is a
process-unique per-:class:`~repro.simmpi.transport.World` ordinal) and falls
back to ``("thread", get_ident())`` for ordinary threads, which keeps
single-process callers exactly as isolated as before.

This module is a dependency leaf (stdlib only) so that both the simmpi
runtime (which *sets* the context) and the kernel layers in
:mod:`repro.dft` / :mod:`repro.core` (which *key pools* on it) can
import it without layering cycles.
"""

from __future__ import annotations

import threading
from typing import Any, Tuple

__all__ = ["execution_context", "set_execution_context", "reset_execution_context"]

_tls = threading.local()


def execution_context() -> Tuple[Any, ...]:
    """A hashable identity for "who is running on this thread right now".

    Distinct SPMD ranks — even when hosted by the same recycled OS
    thread — get distinct contexts; the same rank keeps the same context
    for its whole life.  Outside any SPMD rank this degrades to the
    calling thread's identity.
    """
    ctx = getattr(_tls, "ctx", None)
    if ctx is not None:
        return ctx
    return ("thread", threading.get_ident())


def set_execution_context(ctx: Tuple[Any, ...] | None) -> Tuple[Any, ...] | None:
    """Install *ctx* for the calling thread; returns the previous value."""
    prev = getattr(_tls, "ctx", None)
    _tls.ctx = ctx
    return prev


def reset_execution_context(prev: Tuple[Any, ...] | None) -> None:
    """Restore a value previously returned by :func:`set_execution_context`."""
    _tls.ctx = prev
