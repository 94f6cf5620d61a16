"""Seeded inputs of the five workloads.  The program only ever sees the arrays.

Everything here is a pure function of ``(workload, seed)`` and needs
numpy only, so input generation stays outside the timed set-up.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: ``kernel_mix`` shapes: label -> (n, batch, kind).  ``kind`` picks the
#: entry point: complex128 / complex64 ``plan_for(...).execute`` or ``rfft``.
KERNEL_SHAPES = {
    "p2_4096x64": (4096, 64, "c128"),
    "p2_65536x8": (65536, 8, "c128"),
    "p2_1048576x1": (1 << 20, 1, "c128"),
    "p2_256x512": (256, 512, "c128"),
    "mr_3000x64": (3000, 64, "c128"),
    "mr_60000x8": (60000, 8, "c128"),
    "bs_4099x8": (4099, 8, "c128"),
    "c64_65536x8": (65536, 8, "c64"),
    "rfft_65536x8": (65536, 8, "real"),
}

SEQ_1D = {"n": 1 << 20, "p": 64, "pool": 4}
SEQ_BATCH = {"n": 1 << 16, "p": 16, "batch": 8, "pool": 4}
DIST = {"n": 1 << 18, "p": 64, "ranks": 8, "pool": 4}

#: ``serve_mix``: kind -> (share of requests, n, pool size, submit params).
SERVE_KINDS = {
    "dft": (0.7, 1024, 8, {}),
    "soi": (0.2, 65536, 4, {"p": 16}),
    "transpose": (0.1, 4096, 4, {"nranks": 4}),
}
SERVE_ORDER_LEN = 4096
SERVE_WINDOW = 16

_STREAM = {"kernel_mix": 1, "seq_soi_1d": 2, "seq_soi_batch": 3, "dist_soi": 4, "serve_mix": 5}


def _complex(rng: np.random.Generator, shape, dtype=np.complex128) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)


def make_inputs(workload: str, seed: int) -> dict[str, np.ndarray]:
    """The named arrays of *workload* for *seed* (same seed, same bytes)."""
    rng = np.random.default_rng([seed, _STREAM[workload]])
    if workload == "kernel_mix":
        out = {}
        for label, (n, batch, kind) in KERNEL_SHAPES.items():
            if kind == "real":
                out[label] = rng.standard_normal((batch, n))
            else:
                out[label] = _complex(
                    rng, (batch, n), np.complex64 if kind == "c64" else np.complex128
                )
        return out
    if workload == "seq_soi_1d":
        return {"x": _complex(rng, (SEQ_1D["pool"], SEQ_1D["n"]))}
    if workload == "seq_soi_batch":
        return {"x": _complex(rng, (SEQ_BATCH["pool"], SEQ_BATCH["batch"], SEQ_BATCH["n"]))}
    if workload == "dist_soi":
        return {"x": _complex(rng, (DIST["pool"], DIST["n"]))}
    out = {kind: _complex(rng, (pool, n)) for kind, (_, n, pool, _) in SERVE_KINDS.items()}
    shares = [share for share, *_ in SERVE_KINDS.values()]
    out["order"] = rng.choice(len(shares), size=SERVE_ORDER_LEN, p=shares).astype(np.uint8)
    return out


def digest(inputs: dict[str, np.ndarray]) -> str:
    """One hash over every array (and the request order) of a workload."""
    h = hashlib.sha256()
    for name in sorted(inputs):
        arr = np.ascontiguousarray(inputs[name])
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()
