"""Differential conformance: every transform path vs its oracle, one table.

The paper's contract has two parts: SOI stays within the Theorem-2
error budget (Section 4), and the distributed program, with its one
all-to-all, gives the same bits as the sequential one.  Each row of the
table is a typed record (:class:`ConformanceRow`) whose name is
generated from its fields, unset ones left out::

    entry[n=N,engine=E,schedule=S,rpn=R,library=L,dtype=D,
          <option>=V,...,oracle=O,tol_kind=K]

so a name parses back to its fields.  The crosses over engines,
schedules, libraries and options are generated over one world runner
(:class:`_World`).  :func:`run_conformance` runs the table;
``python -m repro check`` and the CI ``check`` job read its JSON report.

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

import json
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator

import numpy as np

from ..core.accuracy import error_budget, relative_l2_error
from ..core.design import preset_design
from ..core.plan import SoiPlan, soi_plan_for
from ..core.soi import soi_fft, soi_fft2, soi_ifft, soi_segment
from ..dft import FftPlan, irfft, plan_for, rfft
from ..dft import fft as dft_fft
from ..dft.backends import DEFAULT_BACKEND, get_backend
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


#: Each tolerance kind's bound, from the row's n and (SOI rows) its plan.
_TOLERANCES: dict[str, Callable[[int, SoiPlan | None], float]] = {
    "bitwise": lambda n, plan: 0.0,
    "exact": lambda n, plan: exact_tolerance(n),
    "single": lambda n, plan: single_tolerance(n),
    "theorem2": lambda n, plan: soi_tolerance(plan),
    # 2-D: combined window error of two passes -> sum the budgets.
    "theorem2-2d": lambda n, plan: 2.0 * soi_tolerance(plan),
    # The "full" window is designed for ~14.5 digits; 1e-12 is the
    # established accuracy-ladder bound for it (tests/nufft).
    "ladder": lambda n, plan: 1e-12,
}

_LIBRARIES = ("numpy", "repro")


def _rng(label: str) -> np.random.Generator:
    """A deterministic per-row generator (rows are order-independent)."""
    seed = int.from_bytes(label.encode(), "big") % (2**63)
    return np.random.default_rng(seed)


def _signal(label: str, n: int) -> np.ndarray:
    gen = _rng(label)
    return gen.standard_normal(n) + 1j * gen.standard_normal(n)


@dataclass(frozen=True)
class ConformanceRow:
    """One entry point checked against its oracle.

    The fields up to ``options`` say what ran: the entry point, its
    group, n, the world (engine, all-to-all schedule, ranks per node),
    the FFT library, the input dtype and the options (``overlap``,
    ``transport``, ``trace``, ``resilience``, ``kill``, the geometry,
    ...); with the oracle and tolerance kind they generate :attr:`name`.
    ``error``, ``tolerance``, ``passed`` and ``detail`` are the verdict.
    """

    entry: str
    group: str
    n: int
    oracle: str
    tol_kind: str
    engine: str | None = None
    schedule: str | None = None
    rpn: int | None = None
    library: str | None = None
    dtype: str = "complex128"
    options: dict = field(default_factory=dict)
    error: float = math.inf
    tolerance: float = 0.0
    passed: bool = False
    detail: str = ""

    def fields(self) -> dict:
        """The set fields the name is generated from, in name order."""
        world = ("n", "engine", "schedule", "rpn", "library", "dtype")
        out = {**{k: getattr(self, k) for k in world}, **self.options,
               "oracle": self.oracle, "tol_kind": self.tol_kind}
        return {k: v for k, v in out.items() if v is not None}

    @property
    def name(self) -> str:
        fields = ",".join(f"{k}={v}" for k, v in self.fields().items())
        return f"{self.entry}[{fields}]"

    def as_dict(self) -> dict:
        # Coerce numpy scalars (a size computed from a design table can
        # arrive as int64) so the payload is json.dumps-safe.
        return {
            **asdict(self),
            "name": self.name,
            "n": int(self.n),
            "error": float(self.error),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
        }


class ConformanceReport:
    """Collected rows plus a pass/fail summary (JSON-safe)."""

    def __init__(self, size: str) -> None:
        self.size = size
        self.rows: list[ConformanceRow] = []

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
            "schema": "repro.check.conformance/2",
            "size": self.size,
            "ok": self.ok,
            "summary": self.summary(),
            "rows": [r.as_dict() for r in self.rows],
        }

    def failures(self) -> list[ConformanceRow]:
        return [r for r in self.rows if not r.passed]


def _row(
    report: ConformanceReport,
    compute: Callable[[], tuple[np.ndarray, np.ndarray]],
    *,
    plan: SoiPlan | None = None,
    detail: str = "",
    **fields,
) -> None:
    """Run *compute* -> (got, oracle) and add the row with *fields*.

    Every row needs the oracle's shape.  A ``bitwise`` row then needs
    its dtype and bits; any other row a relative l2 error within its
    tolerance kind's bound (``_TOLERANCES``).
    """
    tolerance = _TOLERANCES[fields["tol_kind"]](fields["n"], plan)
    try:
        got, ref = compute()
        if got.shape != ref.shape:
            err, passed = math.inf, False
            detail = f"shape {got.shape} != oracle shape {ref.shape}"
        elif fields["tol_kind"] == "bitwise":
            passed = got.dtype == ref.dtype and bool(np.array_equal(got, ref))
            err = 0.0 if passed else relative_l2_error(got, ref)
        else:
            err = relative_l2_error(got, ref)
            passed = err <= tolerance
    except Exception as exc:  # a crash is a conformance failure, not a skip
        err, passed, detail = math.inf, False, f"raised: {exc!r}"
    report.rows.append(ConformanceRow(
        **fields, error=err, tolerance=tolerance, passed=bool(passed), detail=detail
    ))


_EDGE_WINDOWS = ("full", "digits10", "digits6")
_EDGE_BETAS = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))
_EDGE_SEGMENT_COUNTS = (3, 5, 7)


def edge_geometries() -> Iterator[dict]:
    """Every boundary SOI geometry: minimal N per (window, beta, odd P).

    The minimal admissible segment length is ``M = nu * ceil(B / nu)``
    (M must be a multiple of nu and the stencil must fit in a segment),
    giving ``N = M * P``.  Odd segment counts exercise the non-power-of-
    two backend dispatch inside the pipeline (F_P falls to mixed-radix
    or Bluestein kernels) and minimal N maximises the halo-to-block
    ratio — the regime where truncation error is least flattered.
    """
    for window in _EDGE_WINDOWS:
        for beta in _EDGE_BETAS:
            nu = (beta + 1).denominator
            b = preset_design(window, beta=float(beta)).b
            m = nu * math.ceil(b / nu)
            for p in _EDGE_SEGMENT_COUNTS:
                yield {
                    "window": window, "beta": beta, "p": p, "n": m * p, "b": b,
                    "nu": nu,
                }


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
    row = partial(_row, report, group="dft", library="repro", oracle="numpy.fft",
                  tol_kind="exact")
    # One-shot helpers (radix-2 dispatch) against the NumPy oracle.
    x256 = _signal("dft.fft[256]", 256)
    for fn, ref in ((dft_fft, np.fft.fft), (dft_ifft, np.fft.ifft)):
        row(lambda fn=fn, ref=ref: (fn(x256), ref(x256)),
            entry=f"dft.{fn.__name__}", n=256, options={"kernel": "radix2"})

    # Planned execution, one row per kernel and direction.
    for n, kernel in ((360, "mixed_radix"), (97, "bluestein")):
        plan = FftPlan(n)
        assert plan.kernel == kernel
        x = _signal(f"dft.plan[{n}]", n)
        for inverse, ref in ((False, np.fft.fft), (True, np.fft.ifft)):
            row(lambda plan=plan, x=x, inverse=inverse, ref=ref: (
                    plan.execute(x, inverse=inverse), ref(x)),
                entry="FftPlan.execute", n=n,
                options={"kernel": kernel, **({"inverse": True} if inverse else {})})

    # Column layout: oracle accuracy plus the documented bitwise
    # equivalence to execute() with explicit transposes, for a length
    # that runs down the columns (64) and one that runs along the rows.
    for n in (64, 512):
        plan = FftPlan(n)
        xt = _signal(f"dft.execute_tt[{n}]", 4 * n).reshape(n, 4)
        row(lambda plan=plan, xt=xt: (plan.execute_tt(xt), np.fft.fft(xt.T).T),
            entry="FftPlan.execute_tt", n=n, options={"kernel": "radix2"})
        row(lambda plan=plan, xt=xt: (
                plan.execute_tt(xt), np.ascontiguousarray(plan.execute(xt.T).T)),
            entry="FftPlan.execute_tt", n=n, oracle="execute(.T).T",
            tol_kind="bitwise")

    # Real-input pair; odd lengths take the full-transform fallback.
    xr = _rng("dft.rfft[512]").standard_normal(512)
    spec = np.fft.rfft(xr)
    xodd = _rng("dft.rfft[255]").standard_normal(255)
    row(lambda: (rfft(xr), np.fft.rfft(xr)), entry="dft.rfft", n=512,
        dtype="float64")
    row(lambda: (irfft(spec, n=512), np.fft.irfft(spec, n=512)),
        entry="dft.irfft", n=512)
    row(lambda: (rfft(xodd), np.fft.rfft(xodd)), entry="dft.rfft", n=255,
        dtype="float64", detail="odd lengths take the full-transform fallback")
    row(lambda: (irfft(np.fft.rfft(xodd), n=255), xodd), entry="dft.irfft", n=255,
        oracle="input")

    # complex64 input to the repro backend: its native single-precision
    # kernel plan, held to a float32 ulp budget.
    x64 = _signal("dft.c64[1024]", 1024).astype(np.complex64)
    row(lambda: (get_backend("repro").fft(x64),
                 np.fft.fft(x64.astype(np.complex128))),
        entry="FftPlan.execute", n=1024, dtype="complex64", tol_kind="single",
        options={"kernel": "radix2"})

    # Dtype normalisation at the plan-cache boundary: a float32 caller
    # must execute the identical complex128 kernel.
    xf32 = _rng("dft.fft[f32]").standard_normal(256).astype(np.float32)
    row(lambda: (dft_fft(xf32), dft_fft(xf32.astype(np.complex128))),
        entry="dft.fft", n=256, dtype="float32", oracle="complex128",
        tol_kind="bitwise", detail="shared plan-cache entry, cast at the plan boundary")


def _nufft_rows(report: ConformanceReport, k_modes: int) -> None:
    plan = NufftPlan(k_modes=k_modes, window="full")
    t = _rng(f"nufft.t[{k_modes}]").uniform(0.0, 1.0, size=3 * k_modes)
    a = _signal(f"nufft.a[{k_modes}]", t.size)
    c = _signal(f"nufft.c[{k_modes}]", k_modes)
    for fn, oracle, v in ((nufft1, nudft1, a), (nufft2, nudft2, c)):
        _row(report, lambda fn=fn, oracle=oracle, v=v: (
                 fn(t, v, plan), oracle(t, v, k_modes)),
             group="nufft", entry=fn.__name__, n=k_modes, library=DEFAULT_BACKEND,
             options={"window": "full"}, oracle="nudft", tol_kind="ladder")


def _soi_rows(report: ConformanceReport, n: int) -> None:
    """The sequential SOI entry points, then the 27-geometry edge sweep."""
    plan = SoiPlan(n=n, p=_DIST_P)
    x = _signal(f"soi.seq[{n}]", n)
    row = partial(_row, report, group="soi", n=n, plan=plan, library=DEFAULT_BACKEND,
                  options={"P": _DIST_P}, oracle="numpy.fft", tol_kind="theorem2")
    for lib in _LIBRARIES:
        row(lambda lib=lib: (soi_fft(x, plan, backend=lib), np.fft.fft(x)),
            entry="soi_fft", library=lib)
    row(lambda: (soi_ifft(x, plan), np.fft.ifft(x)), entry="soi_ifft")
    row(lambda: (soi_segment(x, plan, 1), np.fft.fft(x)[plan.m : 2 * plan.m]),
        entry="soi_segment", options={"P": _DIST_P, "s": 1},
        detail="single-segment pursuit (Section 5)")
    # 512 is the smallest power of two that fits the full window's
    # stencil (B*P = 312) with P=4 segments.
    n2 = 512
    plan2 = SoiPlan(n=n2, p=4)
    x2 = _signal(f"soi.fft2[{n2}]", n2 * n2).reshape(n2, n2)
    row(lambda: (soi_fft2(x2, plan2), np.fft.fft2(x2)), entry="soi_fft2", n=n2,
        plan=plan2, options={"P": 4}, tol_kind="theorem2-2d")

    for geo in edge_geometries():
        w, beta, p = geo["window"], geo["beta"], geo["p"]
        plan = SoiPlan(n=geo["n"], p=p, beta=beta, window=w)
        label = f"soi_fft[{w},beta={beta},P={p},n={plan.n},{DEFAULT_BACKEND}]"
        x = _signal(label, plan.n)
        row(lambda x=x, plan=plan: (
                soi_fft(x, plan, backend=DEFAULT_BACKEND), np.fft.fft(x)),
            group="soi-edge", entry="soi_fft", n=plan.n, plan=plan,
            options={"window": w, "beta": str(beta), "P": p},
            detail=f"minimal-N geometry, B={geo['b']}, nu={geo['nu']}")


_SOI, _ISOI, _SIX = (
    "soi_fft_distributed", "soi_ifft_distributed", "transpose_fft_distributed"
)


class _World:
    """The one world every distributed row runs in.

    :meth:`run` runs an entry (``_SOI``, ``_ISOI`` or ``_SIX``) on
    ``_DIST_RANKS`` ranks over its fixed input: the ``dist.soi[n]``
    signal (``dist.c64[n]`` for ``dtype="complex64"``) under a P=8 SOI
    plan, or the ``dist.transpose[tn]`` signal.  A thread-engine run
    with no options is the reference many rows compare with, so it runs
    once per report.
    """

    def __init__(self, n: int, tn: int) -> None:
        self.n, self.tn = n, tn
        self.x = {
            "complex128": _signal(f"dist.soi[{n}]", n),
            "complex64": _signal(f"dist.c64[{n}]", n).astype(np.complex64),
        }
        self.plan = {
            "complex128": SoiPlan(n=n, p=_DIST_P),
            "complex64": SoiPlan(n=n, p=_DIST_P, dtype=np.complex64),
        }
        self.xt = _signal(f"dist.transpose[{tn}]", tn)
        self._plain: dict = {}

    def run(self, entry, options=None, engine="thread", schedule="pairwise",
            rpn=None, library=DEFAULT_BACKEND, dtype="complex128"):
        """(out, res, recorder) of *entry* run with a row's fields.

        ``overlap`` and ``resilience`` become the entry's keywords,
        ``transport`` and ``trace`` the world's; a traced run must record
        events, and isend spans when pipelined.  ``kill`` kills rank 1 at that
        phase: ``out`` is then the survivors' blocks plus the buddy's
        reconstruction of rank 1's.
        """
        options = options or {}
        key = (entry, schedule, rpn, library, dtype)
        plain = engine == "thread" and not options
        if plain and key in self._plain:
            return self._plain[key]
        kw: dict = {"overlap": True} if options.get("overlap") else {}
        rec = TraceRecorder() if options.get("trace") else None
        if options.get("resilience"):
            kw["resilience"] = SoiResilience()
        kill = options.get("kill")
        if entry == _SIX:
            fn, x, arg = transpose_fft_distributed, self.xt, self.tn
        else:
            fn = soi_fft_distributed if entry == _SOI else soi_ifft_distributed
            x, arg = self.x[dtype], self.plan[dtype]
        blocks = split_blocks(x, _DIST_RANKS)
        res = run_spmd(
            _DIST_RANKS,
            lambda comm: fn(comm, blocks[comm.rank], arg, backend=library, **kw),
            timeout=60.0, faults=FaultPlan().kill(1, phase=kill) if kill else None,
            transport=TransportPolicy() if options.get("transport") else None,
            resilient="resilience" in kw, ranks_per_node=rpn,
            alltoall_algorithm=schedule, engine=engine, trace=rec,
        )
        if rec is not None and rec.nevents == 0:
            raise RuntimeError("trace recorder captured no events")
        if rec is not None and "overlap" in kw and not any(
            s.kind == "isend" for s in rec.timeline().spans
        ):
            raise RuntimeError("pipelined trace recorded no isend spans")
        if kill:
            if [f[0] for f in res.failures] != [1]:
                raise RuntimeError(f"expected rank 1 casualty, got {res.failures!r}")
            recovered = kw["resilience"].recovered_blocks
            if 1 not in recovered:
                raise RuntimeError("buddy published no recovered block")
            out = np.concatenate([res.values[0], recovered[1][1], *res.values[2:]])
        else:
            out = np.concatenate(res.values)
        if plain:
            self._plain[key] = out, res, rec
        return out, res, rec


def _engine_bytes(out, res, rec) -> np.ndarray:
    """Outputs and the full traffic accounting (the per-rank span
    structure when traced) as one byte row."""
    meta = span_structure(rec) if rec is not None else res.stats.as_dict()
    return np.concatenate([
        np.ascontiguousarray(out).view(np.uint8),
        np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8),
    ])


def _phase_traffic(res) -> np.ndarray:
    """Per-phase byte totals and all-to-all rounds of a joined run."""
    phases = [res.stats.phase(p) for p in sorted(res.stats.phases())]
    return np.array([(ph.total_bytes, ph.alltoall_rounds) for ph in phases], np.int64)


def _world_pair(w: _World, entry: str, where: dict, options: dict, oracle: str):
    """(got, ref) of a world row: *entry* run with its fields, and the
    oracle's reference.  ``plain`` is the same run with no options, the
    pairwise schedule and the thread engine; ``flat`` is that run with
    no node structure; ``thread`` reruns the row on the thread engine,
    and ``repeat`` on its own (DES: the same virtual makespan too)."""
    out, res, rec = w.run(entry, options, **where)
    if oracle in ("thread", "repeat"):
        ref = w.run(entry, options, **{**where, "engine": "thread"}
                    if oracle == "thread" else where)
        if oracle == "repeat" and not res.virtual_time_s == ref[1].virtual_time_s > 0:
            raise RuntimeError(f"virtual time not reproducible: "
                               f"{res.virtual_time_s} vs {ref[1].virtual_time_s}")
        return _engine_bytes(out, res, rec), _engine_bytes(*ref)
    if oracle == "plain-traffic":
        return _phase_traffic(res), _phase_traffic(w.run(entry)[1])
    lib, dtype = where["library"], where.get("dtype", "complex128")
    if oracle == "numpy.fft":
        return out, np.fft.fft(w.xt if entry == _SIX else w.x[dtype])
    if oracle == "sequential":
        seq = soi_fft if entry == _SOI else soi_ifft
        return out, seq(w.x[dtype], w.plan[dtype], backend=lib)
    rpn = where.get("rpn") if oracle == "plain" else None
    return out, w.run(entry, library=lib, dtype=dtype, rpn=rpn)[0]


_WORLD_DETAIL = {
    "numpy.fft": "the distributed transform meets its oracle bound",
    "sequential": "seq/dist bitwise invariant",
    "plain": "options and schedule move no bit (a kill: survivors + rebuilt block)",
    "plain-traffic": "per-phase byte totals and alltoall rounds are invariant",
    "flat": "the zero-copy intra-node path is bit-transparent",
    "thread": "bitwise outputs + byte-identical TrafficStats across engines",
    "repeat": "identical outputs, stats and virtual makespan across repeats",
}


def _world_rows(report: ConformanceReport, w: _World) -> None:
    """The distributed rows, one generated table over the world.

    * ``dist`` — the Theorem-2 (six-step: exact) oracle, seq == dist
      (on the float32 wire too), and the reliable transport, ``trace=``
      and the pipelined ``overlap=True`` schedule (same flops in the
      same order) bit-transparent alone and composed.
    * ``resilience`` — fault-free, ``resilience=`` is bit-transparent
      (the replica's prefix IS the halo).  After one injected kill the
      survivors' blocks and the buddy's reconstruction of the casualty's
      block (same FP schedule replayed) are bitwise the fault-free run,
      and the spectrum meets the fault-free Theorem-2 bound.
    * ``a2a`` — 4 ranks as 2 nodes x 2 ranks: the zero-copy intra-node
      path, and SOI's ONE all-to-all and the six-step's three transposes
      rescheduled ``hierarchical``, move the same bytes bit for bit.
    * ``des`` — the discrete-event engine must give the thread engine's
      outputs AND full traffic accounting (:meth:`TrafficStats.as_dict`)
      for every schedule and composition (a traced row: each rank's
      span structure, event for event), and repeat itself exactly.
    """
    trans, trace, ovl = {"transport": True}, {"trace": True}, {"overlap": True}
    hier = {"schedule": "hierarchical", "rpn": 2}
    table = [
        *(("dist", _SOI, {"library": lib}, {}, "numpy.fft") for lib in _LIBRARIES),
        ("dist", _SIX, {}, {}, "numpy.fft"),
        *(("dist", e, {"library": lib, "dtype": dt}, {}, "sequential")
          for e, lib, dt in (
              (_SOI, "numpy", "complex128"), (_SOI, "repro", "complex128"),
              (_ISOI, "numpy", "complex128"), (_SOI, "repro", "complex64"))),
        *(("dist", _SOI, {}, o, "plain")
          for o in (trans, trace, ovl, {**ovl, **trans}, {**ovl, **trace})),
        ("dist", _SOI, {"library": "repro"}, ovl, "plain"),
        ("dist", _ISOI, {}, ovl, "plain"),
        ("dist", _SOI, {}, ovl, "plain-traffic"),
        *(("resilience", _SOI, {}, {"resilience": True, **o}, "plain")
          for o in ({}, {"kill": "fft-p"}, {"kill": "alltoall"}, ovl,
                    {**ovl, "kill": "alltoall"})),
        ("resilience", _SOI, {}, {"resilience": True, "kill": "alltoall"}, "numpy.fft"),
        ("a2a", _SOI, {"rpn": 2}, {}, "flat"),
        *(("a2a", e, hier, o, "plain")
          for e, o in ((_SOI, {}), (_SOI, trans), (_SOI, trace), (_SIX, {}))),
        *(("des", e, {**hier, "schedule": s}, {}, "thread")
          for e in (_SOI, _SIX) for s in ALGORITHMS),
        ("des", _SOI, hier, trans, "thread"),
        ("des", _SOI, {**hier, "schedule": "pairwise"}, ovl, "thread"),
        ("des", _SOI, hier, trace, "thread"),
        ("des", _ISOI, hier, {}, "thread"),
        ("des", _SOI, hier, {}, "repeat"),
    ]
    for group, entry, where, options, oracle in table:
        where = {"engine": "des" if group == "des" else "thread",
                 "schedule": "pairwise", "library": DEFAULT_BACKEND, **where}
        kind = ("bitwise" if oracle != "numpy.fft"
                else "exact" if entry == _SIX else "theorem2")
        _row(report, partial(_world_pair, w, entry, where, options, oracle),
             group=group, entry=entry, n=w.tn if entry == _SIX else w.n,
             options=options, oracle=oracle, tol_kind=kind,
             plan=w.plan[where.get("dtype", "complex128")],
             detail=_WORLD_DETAIL[oracle], **where)

    # Distributed real-input FFT: half-length packed trick vs the
    # NumPy oracle.  The half-length plan's halo is size-independent,
    # so small sizes only admit 2 ranks (block >= halo).
    hplan = SoiPlan(n=w.n // 2, p=_DIST_P)
    ranks = _DIST_RANKS if hplan.n // _DIST_RANKS >= hplan.halo else 2
    xr = _rng(f"dist.rfft_dist[{w.n}]").standard_normal(w.n)
    rblocks = split_blocks(xr, ranks)
    _row(report, lambda: (
             np.concatenate(run_spmd(ranks, lambda comm: rfft_distributed(
                 comm, rblocks[comm.rank], hplan)).values),
             np.fft.rfft(xr)),
         group="dist", entry="rfft_distributed", n=w.n, engine="thread",
         schedule="pairwise", library=DEFAULT_BACKEND, dtype="float64",
         options={"R": ranks}, oracle="numpy.fft", tol_kind="theorem2", plan=hplan,
         detail="one half-volume all-to-all plus the O(N) untangle")

    # complex64 tier: held to the single-precision ulp budget.
    x64 = w.x["complex64"]
    _row(report, lambda: (soi_fft(x64, w.plan["complex64"], backend="repro"),
                          np.fft.fft(x64.astype(np.complex128))),
         group="dist", entry="soi_fft", n=w.n, library="repro", dtype="complex64",
         options={"P": _DIST_P}, oracle="numpy.fft", tol_kind="single")


def _serve_rows(report: ConformanceReport, n: int) -> None:
    """Serving: coalescing may never change a result bit.

    Zero-tolerance rows in two tiers.  ``serve.execute_batch`` rows call
    the batcher directly (deterministic batch composition) and compare a
    K-request coalesced dispatch with per-request *direct library calls*
    for every backend; dft, SOI and the six-step run on both libraries
    (``numpy``, the default, and the ``repro`` opt-in).  ``serve.server``
    rows drive a live :class:`~repro.serve.TransformServer` under a
    batch-formation window, check that coalescing actually happened, and
    compare the served outputs with direct calls (``repro``, and
    ``numpy.fft`` for a request without ``library=``) and with a
    ``max_batch=1`` server (the one-at-a-time baseline).
    """
    from ..serve import ServeConfig, TransformServer
    from ..serve.batcher import execute_batch

    row = partial(_row, report, group="serve", n=n, oracle="direct", tol_kind="bitwise")
    # Never started: used purely as the request factory, so these rows
    # exercise the exact validation + batch-key path ``submit`` uses.
    builder = TransformServer(ServeConfig())
    soi_plan = soi_plan_for(n, 8, beta=Fraction(1, 4), window="full")
    points = _rng(f"serve-nufft[{n}]").uniform(0.0, 1.0, size=n)
    params = {
        "transpose": {"nranks": 4},
        "nufft": {"points": points, "k_modes": 128, "kind": 1},
    }

    def direct(kind, x, lib, inverse):
        if kind == "dft" and lib == "numpy":
            return (np.fft.ifft if inverse else np.fft.fft)(x)
        if kind == "dft":
            return plan_for(n, np.complex128).execute(x, inverse=inverse)
        if kind == "soi":
            return soi_fft(x, soi_plan, backend=lib)
        if kind == "nufft":
            return nufft1(points, x, NufftPlan(128), backend=lib)
        blocks = split_blocks(x, 4)
        return np.concatenate(run_spmd(4, lambda comm: transpose_fft_distributed(
            comm, blocks[comm.rank], n, backend=lib)).values)

    def batch(lib, opts):
        kind, inverse = opts["backend"], bool(opts.get("inverse"))
        direction = "inverse" if inverse else "forward"
        label = f"serve-dft-{direction}-{lib}" if kind == "dft" else f"serve-{kind}"
        xs = [_signal(f"{label}-{i}", n) for i in range(opts["K"])]
        got = execute_batch([
            builder._build_request(
                x, direction, kind, lib, "batch", None, params.get(kind, {}))
            for x in xs
        ])
        return np.stack(got), np.stack([direct(kind, x, lib, inverse) for x in xs])

    for lib, opts in [
        ("repro", {"backend": "dft", "K": 4}),
        ("numpy", {"backend": "dft", "inverse": True, "K": 4}),
        *((lib, {"backend": kind, "K": 3})
          for kind in ("soi", "transpose") for lib in _LIBRARIES),
        ("numpy", {"backend": "nufft", "kind": 1, "K": 3}),
    ]:
        row(partial(batch, lib, opts), entry="serve.execute_batch", library=lib,
            options=opts, detail="one coalesced dispatch == per-request library calls")

    xs = [_signal(f"serve-live-{i}", n) for i in range(6)]

    def served(library, batched=True):
        cfg = ServeConfig(workers=1, max_batch=16 if batched else 1,
                          batch_linger_s=0.05 if batched else 0.0)
        with TransformServer(cfg) as srv:
            tickets = [
                srv.submit(x, backend="dft", library=library, priority="interactive")
                for x in xs
            ]
            out = np.stack([t.result(timeout=30.0) for t in tickets])
        # Read spans only after stop() joined the workers: tickets
        # resolve before the batch's metrics are recorded.
        max_bs = max((s.batch_size for s in srv.metrics.spans()), default=0)
        if batched and max_bs < 2:
            raise RuntimeError(
                f"server formed no coalesced batch (max batch size {max_bs})"
            )
        return out

    live = partial(row, entry="serve.server", library="repro",
                   options={"backend": "dft", "K": 6})
    live(lambda: (served("repro"),
                  np.stack([plan_for(n, np.complex128).execute(x) for x in xs])),
         detail="live server under a linger window coalesces AND matches direct calls")
    live(lambda: (served(None), np.stack([np.fft.fft(x) for x in xs])),
         library="numpy", options={"backend": "dft", "default_library": True, "K": 6},
         detail="a request without library= runs numpy.fft, coalesced, bit for bit")
    live(lambda: (served("repro"), served("repro", batched=False)),
         oracle="one_at_a_time",
         detail="coalescing server == max_batch=1 one-at-a-time baseline")


def _a2a_rows(report: ConformanceReport) -> None:
    """Topology-aware all-to-all on the raw exchange (the transform rows
    are in :func:`_world_rows`): the ``hierarchical`` schedule moves the
    *same payload bytes* as ``pairwise``, bit for bit, and one analytic
    row pins the measured inter-node message counts to the schedule
    model (:func:`repro.simmpi.predicted_inter_node_messages`) — the
    quantity the hierarchical schedule exists to shrink.
    """
    row = partial(_row, report, group="a2a", engine="thread", tol_kind="bitwise")

    def raw(algorithm, rpn):
        def body(comm):
            gen = np.random.default_rng(1234 + comm.rank)
            buf = gen.standard_normal((8, 16)) + 1j * gen.standard_normal((8, 16))
            return comm.alltoall_matrix(buf)

        res = run_spmd(8, body, ranks_per_node=rpn, alltoall_algorithm=algorithm)
        return np.stack(res.values)

    for rpn in (4, 3):
        row(lambda rpn=rpn: (raw("hierarchical", rpn), raw("pairwise", rpn)),
            entry="Communicator.alltoall_matrix", n=8, schedule="hierarchical",
            rpn=rpn, oracle="pairwise",
            detail="schedule choice is bitwise-invisible on the raw exchange"
            + (" (ragged tail node)" if rpn == 3 else ""))

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

    row(message_counts, entry="TrafficStats.total_inter_node_messages", n=8, rpn=4,
        oracle="predicted", detail="measured counts match the schedule model exactly")


def run_conformance(size: str = "default") -> ConformanceReport:
    """Run the whole table and return the report.

    *size* is ``"default"`` (the acceptance configuration) or
    ``"small"`` (the same rows over smaller transforms).
    """
    if size not in _SIZES:
        raise ValueError(f"size must be one of {sorted(_SIZES)}, got {size!r}")
    cfg = _SIZES[size]
    report = ConformanceReport(size)
    _dft_rows(report)
    _nufft_rows(report, cfg["nufft_k"])
    _soi_rows(report, cfg["soi_n"])
    _serve_rows(report, cfg["serve_n"])
    _a2a_rows(report)
    _world_rows(report, _World(cfg["dist_n"], cfg["transpose_n"]))
    return report
