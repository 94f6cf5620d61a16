"""Timeline exporters: Chrome trace-event JSON and ASCII rendering.

The Chrome trace-event format (the ``chrome://tracing`` / Perfetto
"JSON Object Format") is the lingua franca of timeline tooling; one
``X`` (complete) event per span with microsecond timestamps makes every
simulated run inspectable in a real trace viewer.  The ASCII renderer
serves the CLI: one row per rank, one glyph per time bucket, so the
one-versus-three all-to-all structure is visible in a terminal.
"""

from __future__ import annotations

import json
from typing import IO, Any

from .spans import VirtualTimeline

__all__ = [
    "ascii_timeline",
    "chrome_trace",
    "write_chrome_trace",
]

#: Glyph per span kind for the ASCII timeline (later = higher priority).
_GLYPHS = {
    "wait": ".",
    "recv": "<",
    "send": ">",
    "compute": "#",
    "retransmit": "!",
    "collective": "|",
}


def chrome_trace(tl: VirtualTimeline) -> dict[str, Any]:
    """Render the timeline as a Chrome trace-event JSON object.

    One process (pid 0 = the simulated world), one thread per rank, one
    complete (``ph: "X"``) event per span with ``ts``/``dur`` in
    microseconds of virtual time.  Collective epochs come first at equal
    timestamps so viewers nest them around their constituent transfers.
    """
    events: list[dict[str, Any]] = []
    for rank in tl.ranks:
        events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": rank,
                "name": "thread_name",
                "args": {"name": f"rank {rank}"},
            }
        )
    for rank in tl.ranks:
        for s in tl.rank_spans(rank):
            args: dict[str, Any] = {"phase": s.phase}
            if s.nbytes:
                args["nbytes"] = s.nbytes
            if s.flops:
                args["flops"] = s.flops
            if s.peer >= 0:
                args["peer"] = s.peer
            events.append(
                {
                    "ph": "X",
                    "pid": 0,
                    "tid": rank,
                    "ts": s.t0 * 1e6,
                    "dur": s.duration * 1e6,
                    "name": s.name,
                    "cat": s.kind,
                    "args": args,
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.trace",
            "makespan_s": tl.makespan,
            "ranks": len(tl.ranks),
        },
    }


def write_chrome_trace(tl: VirtualTimeline, path_or_file: str | IO[str]) -> None:
    """Write :func:`chrome_trace` JSON to *path_or_file*."""
    doc = chrome_trace(tl)
    if hasattr(path_or_file, "write"):
        json.dump(doc, path_or_file)  # type: ignore[arg-type]
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def ascii_timeline(tl: VirtualTimeline, width: int = 72) -> str:
    """Terminal rendering: one row per rank over *width* time buckets.

    Glyphs: ``#`` compute, ``>`` send, ``<`` recv, ``.`` wait,
    ``!`` retransmit, ``|`` barrier; all-to-all epochs are marked in a
    header row spanning their virtual-time extent.
    """
    makespan = tl.makespan
    if makespan <= 0.0 or not tl.ranks:
        return "(empty timeline)"
    scale = width / makespan

    def bucket(t: float) -> int:
        return min(width - 1, max(0, int(t * scale)))

    # Header row: all-to-all epochs (union over ranks).
    header = [" "] * width
    for s in tl.spans:
        if s.kind == "collective" and not s.leaf and s.name == "alltoall":
            for i in range(bucket(s.t0), bucket(s.t1) + 1):
                header[i] = "A"
    rows = [f"{'a2a':>8} {''.join(header)}"]

    priority = {k: i for i, k in enumerate(_GLYPHS)}
    for rank in tl.ranks:
        row = [" "] * width
        row_prio = [-1] * width
        for s in tl.rank_spans(rank, leaf_only=True):
            glyph = _GLYPHS.get(s.kind)
            if glyph is None:
                continue
            prio = priority[s.kind]
            for i in range(bucket(s.t0), bucket(s.t1) + 1):
                if prio >= row_prio[i]:
                    row[i] = glyph
                    row_prio[i] = prio
        rows.append(f"{f'rank {rank}':>8} {''.join(row)}")
    rows.append(
        f"{'':8} 0{'-' * (width - 2)}> {makespan * 1e3:.3f} ms virtual"
    )
    rows.append(
        f"{'':8} # compute   > send   < recv   . wait   ! retransmit   | barrier   A all-to-all epoch"
    )
    return "\n".join(rows)
