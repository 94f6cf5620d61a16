"""Differential conformance registry: every transform path vs its oracle.

The repo's transform surface has grown to many entry points — one-shot
and planned, forward and inverse, three execute layouts, sequential and
distributed, the reliable transport and ``trace=`` on and off.  Each
one carries the same promise: it approximates the NumPy oracle within a
*modelled* bound (Theorem 2 for SOI paths, an ulp budget for the
exact-FFT kernels), and the distributed paths are additionally
*bitwise* equal to their sequential counterparts.  This module turns
that promise into a machine-checkable registry: :func:`run_conformance`
executes every registered entry point against its oracle and emits a
JSON-safe report (``python -m repro check`` and the CI ``check-smoke``
job consume it).

Tolerances
----------

Exact kernels (radix-2 / mixed-radix / Bluestein, rfft/irfft, the
distributed six-step transform) are held to ``32 * eps * log2(n)``
relative l2 error — measured worst case across the kernels is
~``0.6 * eps * log2(n)``, so the factor-32 margin flags real defects
(a wrong twiddle is orders of magnitude out) without flapping on
benign summation-order noise.

SOI paths are held to ``10 x`` the plan's Theorem-2 budget
(``error_budget(plan)["modelled_relative_error"]``).  The safety
factor is calibrated against the edge-geometry sweep of
:func:`edge_geometries`: the worst observed error/budget ratio across
windows x beta x odd segment counts at minimal N is 4.73 (digits6,
beta=1/4, P=7), so 10x passes every legitimate geometry with ~2x
headroom while still failing on any systematic accuracy regression.

Bitwise rows (seq vs dist, transport/``trace=`` transparency, dtype
normalisation) record ``error 0.0, tolerance 0.0`` — equality is the
contract, not closeness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from ..core.accuracy import error_budget
from ..core.design import preset_design
from ..core.plan import SoiPlan
from ..core.soi import soi_fft, soi_fft2, soi_ifft, soi_segment
from ..dft import FftPlan, irfft, plan_for, rfft
from ..dft import fft as dft_fft
from ..dft.backends import DEFAULT_BACKEND
from ..dft import ifft as dft_ifft
from ..nufft import nudft1, nudft2, nufft1, nufft2, NufftPlan
from ..parallel.distribution import split_blocks
from ..parallel.real_dist import rfft_distributed
from ..parallel.resilience import SoiResilience
from ..parallel.soi_dist import soi_fft_distributed, soi_ifft_distributed
from ..parallel.transpose import transpose_fft_distributed
from ..simmpi.alltoall import ALGORITHMS, predicted_inter_node_messages
from ..simmpi.faults import FaultPlan
from ..simmpi.runtime import run_spmd
from ..simmpi.transport import TransportPolicy
from ..trace import TraceRecorder
from .schedules import span_structure

__all__ = [
    "ConformanceRow",
    "ConformanceReport",
    "EXACT_ULP_FACTOR",
    "SOI_BUDGET_SAFETY",
    "exact_tolerance",
    "soi_tolerance",
    "edge_geometries",
    "run_conformance",
]

#: Multiplier on ``eps * log2(n)`` for exact-FFT oracle rows (see module
#: docstring for the calibration).
EXACT_ULP_FACTOR = 32.0

#: Multiplier on the Theorem-2 modelled relative error for SOI oracle
#: rows.  Worst observed error/budget ratio over the edge-geometry
#: sweep is 4.73 — see the module docstring.
SOI_BUDGET_SAFETY = 10.0

_EPS = float(np.finfo(np.float64).eps)


def exact_tolerance(n: int) -> float:
    """Relative-l2 bound for an exact (non-SOI) n-point FFT path."""
    return EXACT_ULP_FACTOR * _EPS * max(math.log2(max(n, 2)), 1.0)


def single_tolerance(n: int) -> float:
    """Relative-l2 bound for a complex64 path: a float32 ulp budget (the
    Theorem-2 bound is double-precision; fp32 rounding dominates it by
    ~4 orders)."""
    return 64.0 * float(np.finfo(np.float32).eps) * math.log2(n)


def soi_tolerance(plan: SoiPlan) -> float:
    """Relative-l2 bound for an SOI path: safety x Theorem-2 budget."""
    return SOI_BUDGET_SAFETY * error_budget(plan)["modelled_relative_error"]


def _rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    """Relative l2 error, the metric of the paper's accuracy model."""
    denom = float(np.linalg.norm(ref))
    if denom == 0.0:
        return float(np.linalg.norm(got))
    return float(np.linalg.norm(np.asarray(got) - np.asarray(ref)) / denom)


def _rng(label: str) -> np.random.Generator:
    """A deterministic per-row generator (rows are order-independent)."""
    seed = int.from_bytes(label.encode(), "big") % (2**63)
    return np.random.default_rng(seed)


def _signal(label: str, n: int) -> np.ndarray:
    gen = _rng(label)
    return gen.standard_normal(n) + 1j * gen.standard_normal(n)


@dataclass(frozen=True)
class ConformanceRow:
    """One entry-point-vs-oracle result."""

    name: str
    group: str
    n: int
    error: float
    tolerance: float
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        # Coerce numpy scalars (a size computed from a design table can
        # arrive as int64) so the payload is json.dumps-safe.
        return {
            "name": self.name,
            "group": self.group,
            "n": int(self.n),
            "error": float(self.error),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            "detail": self.detail,
        }


class ConformanceReport:
    """Collected rows plus a pass/fail summary (JSON-safe)."""

    def __init__(self, size: str) -> None:
        self.size = size
        self.rows: list[ConformanceRow] = []

    def add(self, row: ConformanceRow) -> None:
        self.rows.append(row)

    @property
    def ok(self) -> bool:
        return bool(self.rows) and all(r.passed for r in self.rows)

    def summary(self) -> dict:
        groups: dict[str, dict[str, int]] = {}
        for r in self.rows:
            g = groups.setdefault(r.group, {"total": 0, "passed": 0})
            g["total"] += 1
            g["passed"] += int(r.passed)
        return {
            "entry_points": len(self.rows),
            "passed": sum(int(r.passed) for r in self.rows),
            "failed": sum(int(not r.passed) for r in self.rows),
            "groups": groups,
        }

    def as_dict(self) -> dict:
        return {
            "schema": "repro.check.conformance/1",
            "size": self.size,
            "ok": self.ok,
            "summary": self.summary(),
            "rows": [r.as_dict() for r in self.rows],
        }

    def failures(self) -> list[ConformanceRow]:
        return [r for r in self.rows if not r.passed]


def _oracle_row(
    report: ConformanceReport,
    name: str,
    group: str,
    n: int,
    tolerance: float,
    compute: Callable[[], tuple[np.ndarray, np.ndarray]],
    detail: str = "",
) -> None:
    """Run *compute* -> (got, oracle) and record the relative error."""
    try:
        got, ref = compute()
        err = _rel_err(got, ref)
        report.add(
            ConformanceRow(
                name, group, n, err, float(tolerance), bool(err <= tolerance), detail
            )
        )
    except Exception as exc:  # a crash is a conformance failure, not a skip
        report.add(
            ConformanceRow(
                name, group, n, float("inf"), tolerance, False, f"raised: {exc!r}"
            )
        )


def _bitwise_row(
    report: ConformanceReport,
    name: str,
    group: str,
    n: int,
    compute: Callable[[], tuple[np.ndarray, np.ndarray]],
    detail: str = "",
) -> None:
    """Run *compute* -> (got, ref) and require bit-for-bit equality."""
    try:
        got, ref = compute()
        same = (
            got.shape == ref.shape
            and got.dtype == ref.dtype
            and bool(np.array_equal(got, ref))
        )
        err = 0.0 if same else _rel_err(got, ref)
        report.add(ConformanceRow(name, group, n, err, 0.0, same, detail))
    except Exception as exc:
        report.add(
            ConformanceRow(name, group, n, float("inf"), 0.0, False, f"raised: {exc!r}")
        )


# --------------------------------------------------------------------------
# edge geometries (satellite: odd segment counts, every beta, minimal N)
# --------------------------------------------------------------------------

def edge_geometries(
    windows: tuple[str, ...] = ("full", "digits10", "digits6"),
    betas: tuple[Fraction, ...] = (
        Fraction(1, 8),
        Fraction(1, 4),
        Fraction(1, 2),
    ),
    segment_counts: tuple[int, ...] = (3, 5, 7),
) -> Iterator[dict]:
    """Every boundary SOI geometry: minimal N per (window, beta, odd P).

    The minimal admissible segment length is ``M = nu * ceil(B / nu)``
    (M must be a multiple of nu and the stencil must fit in a segment),
    giving ``N = M * P``.  Odd segment counts exercise the non-power-of-
    two backend dispatch inside the pipeline (F_P falls to mixed-radix
    or Bluestein kernels) and minimal N maximises the halo-to-block
    ratio — the regime where truncation error is least flattered.
    """
    for window in windows:
        for beta in betas:
            nu = (Fraction(beta) + 1).denominator
            b = preset_design(window, beta=float(beta)).b
            m = nu * math.ceil(b / nu)
            for p in segment_counts:
                yield {
                    "window": window,
                    "beta": beta,
                    "p": p,
                    "n": m * p,
                    "b": b,
                    "nu": nu,
                }


def _edge_rows(report: ConformanceReport, backend: str) -> None:
    for geo in edge_geometries():
        plan = SoiPlan(n=geo["n"], p=geo["p"], beta=geo["beta"], window=geo["window"])
        label = (
            f"soi_fft[{geo['window']},beta={geo['beta']},P={geo['p']},"
            f"n={geo['n']},{backend}]"
        )
        x = _signal(label, plan.n)
        _oracle_row(
            report,
            label,
            "soi-edge",
            plan.n,
            soi_tolerance(plan),
            lambda x=x, plan=plan: (soi_fft(x, plan, backend=backend), np.fft.fft(x)),
            detail=f"minimal-N geometry, B={geo['b']}, nu={geo['nu']}",
        )


# --------------------------------------------------------------------------
# the registry
# --------------------------------------------------------------------------

_SIZES = {
    # soi_n must satisfy: p=8 segments, nu=4 (beta=1/4), 4 ranks ->
    # block multiple of nu*P=32; both sizes are standard suite sizes.
    # nufft_k must leave room for the full window's spread width (~49
    # fine-grid points) inside the oversampled grid K * 5/4.  dist_n
    # must keep the halo (B - nu) * P = 592 within the per-rank block
    # (dist_n / 4), so the distributed rows use the next size up.
    # serve_n must fit the full-window SOI stencil (B*P = 624) and be
    # divisible by nranks^2 = 16 for the served six-step transform.
    "small": {
        "soi_n": 2048, "dist_n": 4096, "transpose_n": 512, "nufft_k": 128,
        "serve_n": 1024,
    },
    "default": {
        "soi_n": 4096, "dist_n": 8192, "transpose_n": 1024, "nufft_k": 256,
        "serve_n": 4096,
    },
}

_DIST_RANKS = 4
_DIST_P = 8


def _dft_rows(report: ConformanceReport) -> None:
    # One-shot helpers (radix-2 dispatch) against the NumPy oracle.
    x256 = _signal("dft.fft[256]", 256)
    _oracle_row(report, "dft.fft[n=256,radix2]", "dft", 256, exact_tolerance(256),
                lambda: (dft_fft(x256), np.fft.fft(x256)))
    _oracle_row(report, "dft.ifft[n=256,radix2]", "dft", 256, exact_tolerance(256),
                lambda: (dft_ifft(x256), np.fft.ifft(x256)))

    # Planned execution, one row per kernel and direction.
    for n, kernel in ((360, "mixed_radix"), (97, "bluestein")):
        plan = FftPlan(n)
        assert plan.kernel == kernel
        x = _signal(f"dft.plan[{n}]", n)
        _oracle_row(
            report, f"FftPlan.execute[n={n},{kernel}]", "dft", n,
            exact_tolerance(n),
            lambda plan=plan, x=x: (plan.execute(x), np.fft.fft(x)),
        )
        _oracle_row(
            report, f"FftPlan.execute[n={n},{kernel},inverse]", "dft", n,
            exact_tolerance(n),
            lambda plan=plan, x=x: (plan.execute(x, inverse=True), np.fft.ifft(x)),
        )

    # Column layout: oracle accuracy plus the documented bitwise
    # equivalence to execute() with explicit transposes, for a length
    # that runs down the columns (64) and one that runs along the rows.
    for n in (64, 512):
        plan = FftPlan(n)
        xt = _signal(f"dft.execute_tt[{n}]", 4 * n).reshape(n, 4)
        _oracle_row(
            report, f"FftPlan.execute_tt[n={n},radix2]", "dft", n,
            exact_tolerance(n),
            lambda plan=plan, xt=xt: (plan.execute_tt(xt), np.fft.fft(xt.T).T),
        )
        _bitwise_row(
            report, f"FftPlan.execute_tt==execute(.T).T[n={n}]", "dft", n,
            lambda plan=plan, xt=xt: (
                plan.execute_tt(xt),
                np.ascontiguousarray(plan.execute(xt.T).T),
            ),
        )

    # Real-input pair.
    xr = _rng("dft.rfft[512]").standard_normal(512)
    _oracle_row(report, "dft.rfft[n=512]", "dft", 512, exact_tolerance(512),
                lambda: (rfft(xr), np.fft.rfft(xr)))
    spec = np.fft.rfft(xr)
    _oracle_row(report, "dft.irfft[n=512]", "dft", 512, exact_tolerance(512),
                lambda: (irfft(spec, n=512), np.fft.irfft(spec, n=512)))
    xodd = _rng("dft.rfft[255]").standard_normal(255)
    _oracle_row(report, "dft.rfft[n=255,odd]", "dft", 255,
                exact_tolerance(255),
                lambda: (rfft(xodd), np.fft.rfft(xodd)),
                detail="odd lengths take the full-transform fallback")
    _oracle_row(report, "dft.irfft[n=255,odd]", "dft", 255,
                exact_tolerance(255),
                lambda: (irfft(np.fft.rfft(xodd), n=255), xodd))

    # The explicit single-precision opt-in: native complex64 kernels,
    # held to a float32 ulp budget.
    x64 = _signal("dft.c64[1024]", 1024).astype(np.complex64)
    _oracle_row(
        report, "plan_for[single].execute[n=1024]", "dft", 1024,
        single_tolerance(1024),
        lambda: (plan_for(1024, precision="single").execute(x64),
                 np.fft.fft(x64.astype(np.complex128))),
    )

    # Dtype normalisation at the plan-cache boundary (satellite 1): a
    # float32 caller must execute the identical complex128 kernel.
    xf32 = _rng("dft.fft[f32]").standard_normal(256).astype(np.float32)
    _bitwise_row(
        report, "dft.fft[float32]==fft[complex128-of-f32]", "dft", 256,
        lambda: (dft_fft(xf32), dft_fft(xf32.astype(np.complex128))),
        detail="shared plan-cache entry, cast at the plan boundary",
    )


def _nufft_rows(report: ConformanceReport, k_modes: int) -> None:
    plan = NufftPlan(k_modes=k_modes, window="full")
    t = _rng(f"nufft.t[{k_modes}]").uniform(0.0, 1.0, size=3 * k_modes)
    a = _signal(f"nufft.a[{k_modes}]", t.size)
    c = _signal(f"nufft.c[{k_modes}]", k_modes)
    # The "full" window is designed for ~14.5 digits; 1e-12 is the
    # established accuracy-ladder bound for it (tests/nufft).
    _oracle_row(report, f"nufft1[K={k_modes},full]", "nufft", k_modes, 1e-12,
                lambda: (nufft1(t, a, plan), nudft1(t, a, k_modes)))
    _oracle_row(report, f"nufft2[K={k_modes},full]", "nufft", k_modes, 1e-12,
                lambda: (nufft2(t, c, plan), nudft2(t, c, k_modes)))


def _soi_seq_rows(report: ConformanceReport, n: int) -> None:
    plan = SoiPlan(n=n, p=_DIST_P)
    tol = soi_tolerance(plan)
    x = _signal(f"soi.seq[{n}]", n)
    for backend in ("numpy", "repro"):
        _oracle_row(
            report, f"soi_fft[n={n},P={_DIST_P},{backend}]", "soi", n, tol,
            lambda backend=backend: (soi_fft(x, plan, backend=backend), np.fft.fft(x)),
        )
    _oracle_row(report, f"soi_ifft[n={n},P={_DIST_P},numpy]", "soi", n, tol,
                lambda: (soi_ifft(x, plan), np.fft.ifft(x)))
    _oracle_row(
        report, f"soi_segment[n={n},s=1]", "soi", n, tol,
        lambda: (soi_segment(x, plan, 1), np.fft.fft(x)[plan.m : 2 * plan.m]),
        detail="single-segment pursuit (Section 5)",
    )
    # 2-D: combined window error of two passes -> sum the budgets.
    # 512 is the smallest power of two that fits the full window's
    # stencil (B*P = 312) with P=4 segments.
    n2 = 512
    plan2 = SoiPlan(n=n2, p=4)
    x2 = _signal(f"soi.fft2[{n2}]", n2 * n2).reshape(n2, n2)
    _oracle_row(
        report, f"soi_fft2[{n2}x{n2}]", "soi", n2, 2.0 * soi_tolerance(plan2),
        lambda: (soi_fft2(x2, plan2), np.fft.fft2(x2)),
    )


def _dist_rows(report: ConformanceReport, n: int, transpose_n: int) -> None:
    plan = SoiPlan(n=n, p=_DIST_P)
    x = _signal(f"dist.soi[{n}]", n)
    blocks = split_blocks(x, _DIST_RANKS)

    def dist(fn, transport=None, **kwargs):
        res = run_spmd(
            _DIST_RANKS,
            lambda comm: fn(comm, blocks[comm.rank], plan, **kwargs),
            transport=transport,
        )
        return np.concatenate(res.values)

    for backend in ("numpy", "repro"):
        _oracle_row(
            report, f"soi_fft_distributed[n={n},{backend}]", "dist", n,
            soi_tolerance(plan),
            lambda backend=backend: (
                dist(soi_fft_distributed, backend=backend), np.fft.fft(x)),
        )
        _bitwise_row(
            report, f"soi_fft_distributed==soi_fft[n={n},{backend}]", "dist", n,
            lambda backend=backend: (
                dist(soi_fft_distributed, backend=backend),
                soi_fft(x, plan, backend=backend),
            ),
            detail="seq/dist bitwise invariant",
        )
    _bitwise_row(
        report, f"soi_ifft_distributed==soi_ifft[n={n}]", "dist", n,
        lambda: (dist(soi_ifft_distributed), soi_ifft(x, plan)),
    )
    baseline = dist(soi_fft_distributed)
    _bitwise_row(
        report, f"soi_fft_distributed[transport=TransportPolicy()][n={n}]",
        "dist", n,
        lambda: (
            dist(soi_fft_distributed, transport=TransportPolicy()), baseline
        ),
        detail="the reliable transport is bit-transparent",
    )

    def traced():
        rec = TraceRecorder()
        out = dist(soi_fft_distributed, trace=rec)
        if rec.nevents == 0:
            raise RuntimeError("trace recorder captured no events")
        return out, baseline

    _bitwise_row(
        report, f"soi_fft_distributed[trace=][n={n}]", "dist", n, traced,
        detail="tracing is bit-transparent",
    )

    # Pipelined (overlap=True) path: the restructured schedule must be
    # bit-for-bit the blocking pipeline — same flops in the same order —
    # and stay transparent under the transport and trace= and equal in
    # traffic.
    for backend in ("numpy", "repro"):
        _bitwise_row(
            report,
            f"soi_fft_distributed[overlap=True,{backend}][n={n}]", "dist", n,
            lambda backend=backend: (
                dist(soi_fft_distributed, overlap=True, backend=backend),
                dist(soi_fft_distributed, backend=backend),
            ),
            detail="pipelined == blocking, zero tolerance",
        )
    _bitwise_row(
        report, f"soi_ifft_distributed[overlap=True][n={n}]", "dist", n,
        lambda: (
            dist(soi_ifft_distributed, overlap=True),
            dist(soi_ifft_distributed),
        ),
        detail="pipelined inverse == blocking inverse",
    )
    _bitwise_row(
        report,
        f"soi_fft_distributed[overlap=True,transport=TransportPolicy()][n={n}]",
        "dist", n,
        lambda: (
            dist(soi_fft_distributed, overlap=True, transport=TransportPolicy()),
            baseline,
        ),
        detail="the reliable transport is bit-transparent on the pipelined path",
    )

    def traced_overlap():
        rec = TraceRecorder()
        out = dist(soi_fft_distributed, overlap=True, trace=rec)
        if rec.nevents == 0:
            raise RuntimeError("trace recorder captured no events")
        tl = rec.timeline()
        if not any(s.kind == "isend" for s in tl.spans):
            raise RuntimeError("pipelined trace recorded no isend spans")
        return out, baseline

    _bitwise_row(
        report, f"soi_fft_distributed[overlap=True,trace=][n={n}]", "dist", n,
        traced_overlap,
        detail="tracing is bit-transparent on the pipelined path",
    )

    def overlap_traffic():
        def totals(**kwargs):
            rows = []

            def body(comm):
                out = soi_fft_distributed(comm, blocks[comm.rank], plan, **kwargs)
                if comm.rank == 0:
                    for name in sorted(comm.stats.phases()):
                        ph = comm.stats.phase(name)
                        rows.append((ph.total_bytes, ph.alltoall_rounds))
                return out

            run_spmd(_DIST_RANKS, body)
            return np.array(rows, dtype=np.int64)

        return totals(overlap=True), totals()

    _bitwise_row(
        report, f"soi_overlap_traffic==blocking[n={n}]", "dist", n,
        overlap_traffic,
        detail="per-phase byte totals and alltoall rounds are invariant",
    )

    # The six-step baseline is an *exact* transform: oracle tolerance.
    xt = _signal(f"dist.transpose[{transpose_n}]", transpose_n)
    tblocks = split_blocks(xt, _DIST_RANKS)
    _oracle_row(
        report, f"transpose_fft_distributed[n={transpose_n}]", "dist",
        transpose_n, exact_tolerance(transpose_n),
        lambda: (
            np.concatenate(
                run_spmd(
                    _DIST_RANKS,
                    lambda comm: transpose_fft_distributed(
                        comm, tblocks[comm.rank], transpose_n
                    ),
                ).values
            ),
            np.fft.fft(xt),
        ),
    )

    # Distributed real-input FFT: half-length packed trick vs the
    # NumPy oracle.  The half-length plan's halo is size-independent,
    # so small sizes only admit 2 ranks (block >= halo).
    half = n // 2
    hplan = SoiPlan(n=half, p=_DIST_P)
    ranks = _DIST_RANKS if half // _DIST_RANKS >= hplan.halo else 2
    xr = _rng(f"dist.rfft_dist[{n}]").standard_normal(n)
    rblocks = split_blocks(xr, ranks)

    def rdist() -> np.ndarray:
        res = run_spmd(
            ranks,
            lambda comm: rfft_distributed(comm, rblocks[comm.rank], hplan),
        )
        return np.concatenate(res.values)

    _oracle_row(
        report, f"rfft_distributed[n={n},R={ranks}]", "dist", n,
        soi_tolerance(hplan),
        lambda: (rdist(), np.fft.rfft(xr)),
        detail="one half-volume all-to-all plus the O(N) untangle",
    )

    # complex64 tier: held to the single-precision ulp budget.
    tol32 = single_tolerance(n)
    x64 = _signal(f"dist.c64[{n}]", n).astype(np.complex64)
    oracle64 = np.fft.fft(x64.astype(np.complex128))
    plan64 = SoiPlan(n=n, p=_DIST_P, dtype=np.complex64)
    _oracle_row(
        report, f"soi_fft[c64,n={n},P={_DIST_P},repro]", "dist", n, tol32,
        lambda: (soi_fft(x64, plan64, backend="repro"), oracle64),
    )
    blocks64 = split_blocks(x64, _DIST_RANKS)

    def dist64() -> np.ndarray:
        res = run_spmd(
            _DIST_RANKS,
            lambda comm: soi_fft_distributed(
                comm, blocks64[comm.rank], plan64, backend="repro"),
        )
        return np.concatenate(res.values)

    _bitwise_row(
        report, f"soi_fft_distributed[c64]==sequential[n={n}]", "dist", n,
        lambda: (dist64(), soi_fft(x64, plan64, backend="repro")),
        detail="the float32 wire keeps the seq==dist bitwise contract",
    )


def _resilience_rows(report: ConformanceReport, n: int) -> None:
    """The survivable path's contract rows (PR 6).

    Fault-free, ``resilience=`` must be bit-transparent (the replica's
    prefix IS the halo, so the FP schedule is unchanged).  After a
    single injected kill, the survivors' blocks must stay bitwise equal
    to the fault-free run, the buddy's reconstructed block must be
    bitwise the casualty's fault-free block (same FP schedule replayed),
    and the assembled full spectrum must still meet the same Theorem-2
    oracle bound as the fault-free transform.  The ``overlap=True`` rows
    hold the same contract on the pipelined chunk-group exchange.
    """
    plan = SoiPlan(n=n, p=_DIST_P)
    x = _signal(f"dist.soi[{n}]", n)  # same signal family as _dist_rows
    blocks = split_blocks(x, _DIST_RANKS)

    baseline = np.concatenate(
        run_spmd(
            _DIST_RANKS,
            lambda comm: soi_fft_distributed(comm, blocks[comm.rank], plan),
        ).values
    )

    def resilient(faults=None, overlap=False):
        res = SoiResilience()
        out = run_spmd(
            _DIST_RANKS,
            lambda comm: soi_fft_distributed(
                comm, blocks[comm.rank], plan, resilience=res, overlap=overlap
            ),
            resilient=True,
            faults=faults,
            timeout=60.0,
        )
        return out, res

    _bitwise_row(
        report, f"soi_fft_distributed[resilience=,fault-free][n={n}]",
        "resilience", n,
        lambda: (np.concatenate(resilient()[0].values), baseline),
        detail="ABFT replication/checksums are bit-transparent fault-free",
    )

    def recovered(kill_phase: str, overlap: bool = False):
        out, res = resilient(FaultPlan().kill(1, phase=kill_phase), overlap)
        if not out.degraded or [f[0] for f in out.failures] != [1]:
            raise RuntimeError(f"expected rank 1 casualty, got {out.failures!r}")
        if 1 not in res.recovered_blocks:
            raise RuntimeError("buddy published no recovered block")
        parts = list(out.values)
        parts[1] = res.recovered_blocks[1][1]
        return np.concatenate(parts)

    for kill_phase in ("fft-p", "alltoall"):
        _bitwise_row(
            report,
            f"soi_fft_distributed[resilience=,kill@{kill_phase}][n={n}]",
            "resilience", n,
            lambda kill_phase=kill_phase: (recovered(kill_phase), baseline),
            detail="survivors + reconstructed block == fault-free run",
        )
    # The ABFT hook rides the per-group piece exchange, so it composes
    # with overlap=: pipelined chunk groups, same bits, same recovery.
    _bitwise_row(
        report, f"soi_fft_distributed[resilience=,overlap=True,fault-free][n={n}]",
        "resilience", n,
        lambda: (np.concatenate(resilient(overlap=True)[0].values), baseline),
        detail="resilience= composes with overlap=, bit-transparent fault-free",
    )
    _bitwise_row(
        report,
        f"soi_fft_distributed[resilience=,overlap=True,kill@alltoall][n={n}]",
        "resilience", n,
        lambda: (recovered("alltoall", overlap=True), baseline),
        detail="pipelined survivors + reconstructed block == fault-free run",
    )
    _oracle_row(
        report,
        f"soi_fft_distributed[resilience=,kill@alltoall,oracle][n={n}]",
        "resilience", n, soi_tolerance(plan),
        lambda: (recovered("alltoall"), np.fft.fft(x)),
        detail="recovered spectrum meets the fault-free Theorem-2 bound",
    )


def _serve_rows(report: ConformanceReport, n: int) -> None:
    """Serving satellite: coalescing may never change a result bit.

    Zero-tolerance rows in two tiers.  The ``execute_batch`` tier calls
    the batcher directly (deterministic batch composition) and compares
    a K-request coalesced dispatch against per-request *direct library
    calls* for every backend; the dft, SOI and six-step rows run on both
    libraries (``numpy``, the default, and the ``repro`` opt-in).  The
    server tier drives a live :class:`~repro.serve.TransformServer`
    under a batch-formation window, checks that coalescing actually
    happened, and compares the served outputs against direct execution
    (``repro``, and ``numpy.fft`` for a request without ``library=``)
    and against a ``max_batch=1`` server (the one-at-a-time baseline).
    """
    from ..dft import plan_for
    from ..serve import ServeConfig, TransformServer
    from ..serve.batcher import execute_batch

    # Never started: used purely as the request factory, so these rows
    # exercise the exact validation + batch-key path ``submit`` uses.
    builder = TransformServer(ServeConfig())

    def reqs(backend, direction, library, xs, **params):
        return [
            builder._build_request(
                x, direction, backend, library, "batch", None, params
            )
            for x in xs
        ]

    for direction, library in (("forward", "repro"), ("inverse", "numpy")):
        def dft_compute(direction=direction, library=library):
            xs = [_signal(f"serve-dft-{direction}-{library}-{i}", n) for i in range(4)]
            got = np.stack(execute_batch(reqs("dft", direction, library, xs)))
            inverse = direction == "inverse"
            if library == "numpy":
                fn = np.fft.ifft if inverse else np.fft.fft
                ref = np.stack([fn(x) for x in xs])
            else:
                plan = plan_for(n, np.complex128)
                ref = np.stack([plan.execute(x, inverse=inverse) for x in xs])
            return got, ref

        _bitwise_row(
            report,
            f"serve.execute_batch[dft,{direction},{library},K=4][n={n}]",
            "serve", n, dft_compute,
            detail="one coalesced kernel dispatch == per-request library calls",
        )

    # Both libraries: numpy.fft is the default, repro the opt-in.
    for library in ("numpy", "repro"):
        def soi_compute(library=library):
            from ..core.plan import soi_plan_for

            xs = [_signal(f"serve-soi-{i}", n) for i in range(3)]
            got = np.stack(execute_batch(reqs("soi", "forward", library, xs)))
            plan = soi_plan_for(n, 8, beta=Fraction(1, 4), window="full")
            ref = np.stack([soi_fft(x, plan, backend=library) for x in xs])
            return got, ref

        _bitwise_row(
            report, f"serve.execute_batch[soi,forward,{library},K=3][n={n}]",
            "serve", n, soi_compute,
            detail="served SOI batch == per-request soi_fft through the shared plan cache",
        )

        def transpose_compute(library=library):
            nranks = 4
            block = n // nranks
            xs = [_signal(f"serve-transpose-{i}", n) for i in range(3)]
            batch = reqs("transpose", "forward", library, xs, nranks=nranks)
            got = np.stack(execute_batch(batch))

            def solo(x):
                res = run_spmd(
                    nranks,
                    lambda comm: transpose_fft_distributed(
                        comm,
                        x[comm.rank * block : (comm.rank + 1) * block],
                        n,
                        backend=library,
                    ),
                )
                return np.concatenate(res.values)

            ref = np.stack([solo(x) for x in xs])
            return got, ref

        _bitwise_row(
            report, f"serve.execute_batch[transpose,{library},K=3][n={n}]",
            "serve", n, transpose_compute,
            detail="one SPMD world, three shared all-to-alls == three solo worlds",
        )

    def nufft_compute():
        k_modes = 128
        points = _rng(f"serve-nufft[{n}]").uniform(0.0, 1.0, size=n)
        xs = [_signal(f"serve-nufft-{i}", n) for i in range(3)]
        batch = reqs(
            "nufft", "forward", "numpy", xs,
            points=points, k_modes=k_modes, kind=1,
        )
        got = np.stack(execute_batch(batch))
        plan = NufftPlan(k_modes)
        ref = np.stack([nufft1(points, x, plan, backend="numpy") for x in xs])
        return got, ref

    _bitwise_row(
        report, f"serve.execute_batch[nufft,kind=1,K=3][n={n}]", "serve", n,
        nufft_compute,
        detail="shared-plan dispatch group == per-request nufft1 calls",
    )

    def served(batched: bool, library: str | None = "repro"):
        xs = [_signal(f"serve-live-{i}", n) for i in range(6)]
        cfg = ServeConfig(
            workers=1, max_batch=16 if batched else 1,
            batch_linger_s=0.05 if batched else 0.0,
        )
        with TransformServer(cfg) as srv:
            tickets = [
                srv.submit(x, backend="dft", library=library, priority="interactive")
                for x in xs
            ]
            out = np.stack([t.result(timeout=30.0) for t in tickets])
        # Read spans only after stop() joined the workers: tickets
        # resolve before the batch's metrics are recorded.
        sizes = [s.batch_size for s in srv.metrics.spans()]
        return out, max(sizes) if sizes else 0

    def live_compute():
        out, max_bs = served(True)
        if max_bs < 2:
            raise RuntimeError(
                f"server formed no coalesced batch (max batch size {max_bs})"
            )
        plan = plan_for(n, np.complex128)
        ref = np.stack([
            plan.execute(_signal(f"serve-live-{i}", n), inverse=False)
            for i in range(6)
        ])
        return out, ref

    _bitwise_row(
        report, f"serve.server[coalesced==direct,K=6][n={n}]", "serve", n,
        live_compute,
        detail="live server under a linger window coalesces AND matches direct calls",
    )

    def default_compute():
        out, max_bs = served(True, library=None)
        if max_bs < 2:
            raise RuntimeError(
                f"server formed no coalesced batch (max batch size {max_bs})"
            )
        ref = np.stack([np.fft.fft(_signal(f"serve-live-{i}", n)) for i in range(6)])
        return out, ref

    _bitwise_row(
        report, f"serve.server[default_library==numpy.fft,K=6][n={n}]", "serve", n,
        default_compute,
        detail="a request without library= runs numpy.fft, coalesced, bit for bit",
    )

    def onoff_compute():
        on, max_bs = served(True)
        if max_bs < 2:
            raise RuntimeError(
                f"server formed no coalesced batch (max batch size {max_bs})"
            )
        off, _ = served(False)
        return on, off

    _bitwise_row(
        report, f"serve.server[coalesce_on==off,K=6][n={n}]", "serve", n,
        onoff_compute,
        detail="coalescing server == max_batch=1 one-at-a-time baseline",
    )


def _a2a_rows(report: ConformanceReport, n: int, transpose_n: int) -> None:
    """Topology-aware all-to-all satellite (PR 8).

    The world's schedule (``pairwise``/``hierarchical``) and the
    zero-copy intra-node path move the *same payload bytes* through
    different message patterns, so every row here is zero-tolerance:
    raw exchanges, SOI's one all-to-all, all three six-step transposes,
    and the transport/``trace=`` compositions must be bit-for-bit the
    pairwise reference.  One analytic row pins the measured inter-node
    message counts to the schedule model
    (:func:`repro.simmpi.predicted_inter_node_messages`) — the quantity
    the hierarchical schedule exists to shrink.
    """
    # -- raw exchange: hierarchical bitwise == pairwise ----------------
    def raw(algorithm, rpn):
        def body(comm):
            gen = np.random.default_rng(1234 + comm.rank)
            buf = gen.standard_normal((8, 16)) + 1j * gen.standard_normal((8, 16))
            return comm.alltoall_matrix(buf)

        res = run_spmd(8, body, ranks_per_node=rpn, alltoall_algorithm=algorithm)
        return np.stack(res.values)

    for rpn in (4, 3):
        _bitwise_row(
            report,
            f"alltoall_matrix[hierarchical,P=8,rpn={rpn}]==pairwise", "a2a", 8,
            lambda rpn=rpn: (raw("hierarchical", rpn), raw("pairwise", rpn)),
            detail="schedule choice is bitwise-invisible on the raw exchange"
            + (" (ragged tail node)" if rpn == 3 else ""),
        )

    # -- measured inter-node message counts == the analytic model ------
    def message_counts():
        measured, predicted = [], []
        for algorithm in ALGORITHMS:
            def body(comm):
                comm.alltoall_matrix(np.full((8, 4), comm.rank, dtype=np.complex128))

            # Read the counter off the joined result — a rank's exchange
            # can complete before its peers' last sends are recorded.
            res = run_spmd(8, body, ranks_per_node=4, alltoall_algorithm=algorithm)
            measured.append(res.stats.total_inter_node_messages)
            predicted.append(predicted_inter_node_messages(8, 4, algorithm))
        return np.asarray(measured), np.asarray(predicted)

    _bitwise_row(
        report, "alltoall.inter_node_messages[P=8,rpn=4]==predicted", "a2a", 8,
        message_counts,
        detail="measured TrafficStats counts match the schedule model exactly",
    )

    # -- SOI: its ONE all-to-all under each schedule -------------------
    plan = SoiPlan(n=n, p=_DIST_P)
    x = _signal(f"dist.soi[{n}]", n)  # same signal family as _dist_rows
    blocks = split_blocks(x, _DIST_RANKS)
    rpn = 2  # 4 ranks as 2 nodes x 2 ranks

    def dist(algorithm="pairwise", ranks_per_node=rpn, transport=None, **kwargs):
        res = run_spmd(
            _DIST_RANKS,
            lambda comm: soi_fft_distributed(
                comm, blocks[comm.rank], plan, **kwargs
            ),
            ranks_per_node=ranks_per_node,
            transport=transport,
            alltoall_algorithm=algorithm,
        )
        return np.concatenate(res.values)

    baseline = dist()
    _bitwise_row(
        report, f"soi_fft_distributed[pairwise,rpn={rpn}]==flat[n={n}]", "a2a", n,
        lambda: (baseline, dist(ranks_per_node=None)),
        detail="the zero-copy intra-node path is bit-transparent",
    )
    _bitwise_row(
        report,
        f"soi_fft_distributed[hierarchical,rpn={rpn}][n={n}]", "a2a", n,
        lambda: (dist("hierarchical"), baseline),
        detail="SOI's one all-to-all reschedules without moving a bit",
    )
    _bitwise_row(
        report,
        f"soi_fft_distributed[hierarchical,transport=TransportPolicy()][n={n}]",
        "a2a", n,
        lambda: (dist("hierarchical", transport=TransportPolicy()), baseline),
        detail="the reliable transport composes with the hierarchical schedule",
    )

    def traced():
        rec = TraceRecorder()
        out = dist("hierarchical", trace=rec)
        if rec.nevents == 0:
            raise RuntimeError("trace recorder captured no events")
        return out, baseline

    _bitwise_row(
        report, f"soi_fft_distributed[hierarchical,trace=][n={n}]", "a2a", n,
        traced,
        detail="tracing is bit-transparent under the hierarchical schedule",
    )

    # -- six-step: all THREE transposes under each schedule ------------
    xt = _signal(f"dist.transpose[{transpose_n}]", transpose_n)
    tblocks = split_blocks(xt, _DIST_RANKS)

    def transpose(algorithm):
        res = run_spmd(
            _DIST_RANKS,
            lambda comm: transpose_fft_distributed(
                comm, tblocks[comm.rank], transpose_n
            ),
            ranks_per_node=rpn,
            alltoall_algorithm=algorithm,
        )
        return np.concatenate(res.values)

    _bitwise_row(
        report,
        f"transpose_fft_distributed[hierarchical,rpn={rpn}][n={transpose_n}]",
        "a2a", transpose_n,
        lambda: (transpose("hierarchical"), transpose("pairwise")),
        detail="all three six-step transposes reschedule bitwise-identically",
    )


def _des_rows(report: ConformanceReport, n: int, transpose_n: int) -> None:
    """Discrete-event engine differential layer (PR 9).

    The DES engine replaces OS threads with one deterministic virtual-
    time scheduler behind the *same* ``Communicator`` API, so every row
    here is zero-tolerance: a run under ``engine="des"`` must produce
    bitwise-identical outputs AND byte-identical per-phase traffic
    accounting (pair maps, intra/inter-node counters, rounds — the full
    :meth:`TrafficStats.as_dict`) to the thread engine, for every
    all-to-all schedule and for the transport/``trace=``/``overlap=``
    compositions.  The trace row additionally requires the per-rank
    span *structure* to match event-for-event: the two engines may
    interleave ranks differently in wall time, but each rank's logical
    timeline is pinned.
    """
    import json

    plan = SoiPlan(n=n, p=_DIST_P)
    x = _signal(f"dist.soi[{n}]", n)  # same signal family as _dist_rows
    blocks = split_blocks(x, _DIST_RANKS)
    rpn = 2  # 4 ranks as 2 nodes x 2 ranks: exercises the node-aware paths

    def _stats_bytes(stats) -> np.ndarray:
        payload = json.dumps(stats.as_dict(), sort_keys=True).encode()
        return np.frombuffer(payload, dtype=np.uint8)

    def _with_stats(out: np.ndarray, res) -> np.ndarray:
        """Outputs and the full traffic accounting as one byte row."""
        return np.concatenate(
            [np.ascontiguousarray(out).view(np.uint8), _stats_bytes(res.stats)]
        )

    def soi(engine, algorithm="pairwise", fn=soi_fft_distributed,
            transport=None, **kwargs):
        res = run_spmd(
            _DIST_RANKS,
            lambda comm: fn(comm, blocks[comm.rank], plan, **kwargs),
            ranks_per_node=rpn,
            engine=engine,
            transport=transport,
            alltoall_algorithm=algorithm,
        )
        return np.concatenate(res.values), res

    # -- SOI forward: every schedule, outputs + stats ------------------
    for algorithm in ALGORITHMS:
        def pair(algorithm=algorithm):
            got, rd = soi("des", algorithm)
            ref, rt = soi("thread", algorithm)
            return _with_stats(got, rd), _with_stats(ref, rt)

        _bitwise_row(
            report, f"soi_fft[des==thread,{algorithm},rpn={rpn}][n={n}]",
            "des", n, pair,
            detail="bitwise outputs + byte-identical TrafficStats across engines",
        )

    # -- compositions: the reliable transport, overlap= ----------------
    def reliable():
        got, rd = soi("des", "hierarchical", transport=TransportPolicy())
        ref, rt = soi("thread", "hierarchical", transport=TransportPolicy())
        return _with_stats(got, rd), _with_stats(ref, rt)

    _bitwise_row(
        report,
        f"soi_fft[des==thread,hierarchical,transport=TransportPolicy()][n={n}]",
        "des", n, reliable,
        detail="transport control traffic is engine-invariant",
    )

    def overlapped():
        got, rd = soi("des", overlap=True)
        ref, rt = soi("thread", overlap=True)
        return _with_stats(got, rd), _with_stats(ref, rt)

    _bitwise_row(
        report, f"soi_fft[des==thread,overlap=True][n={n}]",
        "des", n, overlapped,
        detail="nonblocking overlap pipeline is engine-invariant",
    )

    # -- trace=: per-rank span structure is pinned span-for-span -------
    def traced():
        rec_d, rec_t = TraceRecorder(), TraceRecorder()
        got, _ = soi("des", "hierarchical", trace=rec_d)
        ref, _ = soi("thread", "hierarchical", trace=rec_t)
        if rec_d.nevents == 0:
            raise RuntimeError("DES trace recorder captured no events")
        sd = json.dumps(span_structure(rec_d)).encode()
        st = json.dumps(span_structure(rec_t)).encode()
        return (
            np.concatenate([np.ascontiguousarray(got).view(np.uint8),
                            np.frombuffer(sd, dtype=np.uint8)]),
            np.concatenate([np.ascontiguousarray(ref).view(np.uint8),
                            np.frombuffer(st, dtype=np.uint8)]),
        )

    _bitwise_row(
        report, f"soi_fft[des==thread,hierarchical,trace=][n={n}]",
        "des", n, traced,
        detail="per-rank logical timelines match event-for-event",
    )

    # -- SOI inverse ---------------------------------------------------
    def inverse():
        got, rd = soi("des", "hierarchical", fn=soi_ifft_distributed)
        ref, rt = soi("thread", "hierarchical", fn=soi_ifft_distributed)
        return _with_stats(got, rd), _with_stats(ref, rt)

    _bitwise_row(
        report, f"soi_ifft[des==thread,hierarchical,rpn={rpn}][n={n}]",
        "des", n, inverse,
        detail="inverse transform is engine-invariant too",
    )

    # -- six-step transpose: every schedule ----------------------------
    xt = _signal(f"dist.transpose[{transpose_n}]", transpose_n)
    tblocks = split_blocks(xt, _DIST_RANKS)

    def transpose(engine, algorithm):
        res = run_spmd(
            _DIST_RANKS,
            lambda comm: transpose_fft_distributed(
                comm, tblocks[comm.rank], transpose_n
            ),
            ranks_per_node=rpn,
            engine=engine,
            alltoall_algorithm=algorithm,
        )
        return np.concatenate(res.values), res

    for algorithm in ALGORITHMS:
        def tpair(algorithm=algorithm):
            got, rd = transpose("des", algorithm)
            ref, rt = transpose("thread", algorithm)
            return _with_stats(got, rd), _with_stats(ref, rt)

        _bitwise_row(
            report,
            f"transpose_fft[des==thread,{algorithm},rpn={rpn}][n={transpose_n}]",
            "des", transpose_n, tpair,
            detail="three-transpose six-step pipeline is engine-invariant",
        )

    # -- determinism: a DES run is a pure function of its inputs -------
    def deterministic():
        got1, r1 = soi("des", "hierarchical")
        got2, r2 = soi("des", "hierarchical")
        if r1.virtual_time_s != r2.virtual_time_s or not r1.virtual_time_s > 0:
            raise RuntimeError(
                f"virtual time not reproducible: "
                f"{r1.virtual_time_s} vs {r2.virtual_time_s}"
            )
        return _with_stats(got1, r1), _with_stats(got2, r2)

    _bitwise_row(
        report, f"soi_fft[des,repeat==repeat][n={n}]", "des", n, deterministic,
        detail="identical outputs, stats and virtual makespan across repeats",
    )


#: Row-builder groups selectable via ``run_conformance(groups=...)``.
CONFORMANCE_GROUPS = (
    "dft", "nufft", "soi", "soi-edge", "dist", "resilience", "serve", "a2a",
    "des",
)


def run_conformance(
    size: str = "default",
    *,
    edge_backend: str = DEFAULT_BACKEND,
    groups: tuple[str, ...] | list[str] | None = None,
) -> ConformanceReport:
    """Execute the registry (or a subset of groups) and return the report.

    *size* is ``"default"`` (the acceptance configuration) or
    ``"small"`` (CI smoke: same coverage, smaller transforms).
    *edge_backend* selects the node-local FFT for the edge-geometry
    sweep; the Theorem-2 bound holds for either, and the seq/dist rows
    already cover both backends, so one sweep per run suffices.
    *groups* restricts the run to the named row groups (see
    :data:`CONFORMANCE_GROUPS`) — e.g. ``groups=("serve",)`` for the CI
    serve-smoke job; ``None`` runs everything.
    """
    if size not in _SIZES:
        raise ValueError(f"size must be one of {sorted(_SIZES)}, got {size!r}")
    cfg = _SIZES[size]
    want = set(CONFORMANCE_GROUPS) if groups is None else set(groups)
    unknown = want - set(CONFORMANCE_GROUPS)
    if unknown:
        raise ValueError(
            f"unknown conformance groups {sorted(unknown)}; "
            f"known: {list(CONFORMANCE_GROUPS)}"
        )
    report = ConformanceReport(size)
    if "dft" in want:
        _dft_rows(report)
    if "nufft" in want:
        _nufft_rows(report, cfg["nufft_k"])
    if "soi" in want:
        _soi_seq_rows(report, cfg["soi_n"])
    if "soi-edge" in want:
        _edge_rows(report, edge_backend)
    if "dist" in want:
        _dist_rows(report, cfg["dist_n"], cfg["transpose_n"])
    if "resilience" in want:
        _resilience_rows(report, cfg["dist_n"])
    if "serve" in want:
        _serve_rows(report, cfg["serve_n"])
    if "a2a" in want:
        _a2a_rows(report, cfg["dist_n"], cfg["transpose_n"])
    if "des" in want:
        _des_rows(report, cfg["dist_n"], cfg["transpose_n"])
    return report
