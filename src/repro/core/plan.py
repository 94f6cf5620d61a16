"""SOI transform plans (Sections 4-6 of the paper).

A :class:`SoiPlan` freezes every design decision of one SOI transform:

- problem size ``N = M * P`` (P segments of M output frequencies each);
- oversampling rate ``beta`` as the exact fraction ``mu/nu - 1``
  (``beta = 1/4 -> mu, nu = 5, 4``), giving the oversampled segment
  length ``M' = M * mu / nu`` and total ``N' = N * mu / nu``;
- the window design (reference window + stencil width B);
- the precomputed *coefficient tensor* ``C[mu, B, P]`` — the
  ``mu * P * B`` distinct entries of the convolution matrix W (Fig. 4:
  "the entire matrix has mu*P*B distinct elements") — kept factored as
  a real table times a unit-modulus ``(mu, P)`` phase, which is what
  lets the convolution run as real GEMMs (:mod:`repro.core.convolve`),
  and
- the demodulation diagonal ``w_hat(k), k < M``.

Row structure exploited (Section 4): with ``1/M' = (L/N)(nu/mu)``, row
``j + mu`` of the convolution matrix is row ``j`` circular-right-shifted
by ``nu * P`` positions, so rows are generated from ``mu`` templates.
Rows are grouped in chunks of ``mu`` sharing one aligned input window of
``B*P`` samples starting at ``q * nu * P`` (the pseudo-code's loop_a /
loop_b structure in Section 6).
"""

from __future__ import annotations

import math
import numbers
import operator
import threading
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ..dft.backends import FftBackend, backend_fft_tt, get_backend
from ..exectx import execution_context
from ..utils import as_fraction, check_positive_int, require
from .convolve import ConvolveKernel
from .design import WindowDesign, design_window, preset_design
from .windows import ReferenceWindow

__all__ = [
    "SoiPlan",
    "soi_plan_for",
    "clear_soi_plan_cache",
    "soi_plan_cache_info",
    "set_soi_plan_cache_observer",
]


@dataclass
class SoiPlan:
    """Plan for an N-point SOI FFT split into P segments.

    Parameters
    ----------
    n:
        Transform size N (the number of input/output points).
    p:
        Number of segments (``P``).  In the distributed algorithm P is
        ``ranks * segments_per_rank`` (the paper runs 8 segments per
        process); sequentially any P >= 1 works.
    beta:
        Oversampling rate; default the paper's 1/4.  Must be rational
        with a small denominator (``mu/nu = 1 + beta`` drives the
        integer block structure); ``nu * p`` must divide ``n``.
    window:
        One of: a :class:`~repro.core.design.WindowDesign` (fully
        resolved), a preset name (e.g. ``"full"``, ``"digits10"``), a
        target-digit number (float or int, never bool), or a bare
        :class:`ReferenceWindow` combined with an explicit ``b``.
    b:
        Stencil width override; required only with a bare window.
    dtype:
        Pipeline compute/wire dtype: ``numpy.complex128`` (default) or
        ``numpy.complex64``.  A single-precision plan carries complex64
        coefficient/demodulation tables and extended-input buffers, so
        every stage — including the distributed all-to-all — moves half
        the bytes per sample (the float32 wire pipeline).

    Notes
    -----
    ``b * p`` may exceed ``n`` only in degenerate tiny-N configurations;
    the plan rejects those (the stencil would wrap onto itself more than
    once) — the paper's regime is always ``B*P << N``.
    """

    n: int
    p: int
    beta: float | Fraction = Fraction(1, 4)
    window: "WindowDesign | ReferenceWindow | str | float" = "full"
    b: int | None = None
    dtype: "np.dtype | type | str" = np.complex128

    # Derived fields (populated in __post_init__).
    m: int = field(init=False)
    mu: int = field(init=False)
    nu: int = field(init=False)
    m_over: int = field(init=False)
    n_over: int = field(init=False)
    design: WindowDesign | None = field(init=False, default=None)
    ref_window: ReferenceWindow = field(init=False)
    coeffs: np.ndarray = field(init=False, repr=False)
    coeffs_real: np.ndarray = field(init=False, repr=False)
    coeffs_phase: np.ndarray = field(init=False, repr=False)
    demod: np.ndarray = field(init=False, repr=False)
    demod_recip: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.n = check_positive_int(self.n, "n")
        self.p = check_positive_int(self.p, "p")
        require(self.n % self.p == 0, f"p={self.p} must divide n={self.n}")
        dt = np.dtype(self.dtype)
        require(
            dt in (np.dtype(np.complex64), np.dtype(np.complex128)),
            f"dtype must be complex64 or complex128, got {dt}",
        )
        self.dtype = dt
        self.m = self.n // self.p

        frac = _beta_fraction(self.beta) + 1
        self.mu, self.nu = frac.numerator, frac.denominator
        require(self.mu > self.nu, f"beta must be positive, got {self.beta}")
        require(
            self.m % self.nu == 0,
            f"segment length M={self.m} must be divisible by nu={self.nu} "
            f"(beta={self.beta}); choose N, P accordingly",
        )
        self.m_over = self.m * self.mu // self.nu
        self.n_over = self.m_over * self.p

        self._resolve_window()
        require(
            self.b % 2 == 0 and self.b >= 2,
            f"stencil width B must be a positive even integer, got {self.b}",
        )
        require(
            self.b >= self.nu,
            f"B={self.b} must be >= nu={self.nu} so chunks advance within the stencil",
        )
        require(
            self.b * self.p <= self.n,
            f"stencil B*P={self.b * self.p} exceeds N={self.n}; "
            f"N is too small for this window (reduce B or P)",
        )
        # Tables are evaluated in double and rounded exactly once, so a
        # single-precision plan loses nothing to table construction.
        single = self.dtype == np.complex64
        table, phase = self._coefficient_tables()
        self.coeffs_real = np.ascontiguousarray(
            table, dtype=np.float32 if single else np.float64
        )
        self.coeffs_phase = phase.astype(self.dtype)
        self.coeffs = self.coeffs_phase[:, None, :] * self.coeffs_real
        self.demod = self.ref_window.demodulation_values(self.m, self.b)
        # Workspace: the demodulation is applied every transform; the
        # reciprocal turns the per-call complex divide into a multiply
        # (identical in both the sequential and distributed pipelines,
        # so their bit-for-bit equality is preserved).
        self.demod_recip = np.reciprocal(self.demod)
        if single:
            self.demod_recip = self.demod_recip.astype(np.complex64)
        self.demod_recip.setflags(write=False)
        # Workspaces filled lazily (and thread-safely — simmpi ranks are
        # threads sharing one plan): the convolution kernel with its
        # banded table (several times the size of ``coeffs``, so plans
        # built only for layout or error-budget queries never pay for
        # it) and per-segment modulation phase tables.
        self._workspace_lock = threading.Lock()
        self._kernel: ConvolveKernel | None = None
        self._segment_phases: dict[int, np.ndarray] = {}
        # Per-execution-context extended-input buffers (simmpi ranks
        # share one cached plan, so these cannot be plain attributes;
        # DES ranks additionally share OS threads, so the slot is
        # revalidated against repro.exectx.execution_context()).
        self._tls = threading.local()

    # ------------------------------------------------------------------

    def _resolve_window(self) -> None:
        """Normalise the window argument into (ref_window, b, design?)."""
        spec = self.window
        beta_f = float(as_fraction(self.beta))
        if isinstance(spec, WindowDesign):
            self.design = spec
        elif isinstance(spec, str):
            self.design = preset_design(spec, beta=beta_f)
        elif isinstance(spec, (float, int)) and not isinstance(spec, bool):
            self.design = design_window(float(spec), beta=beta_f)
        elif isinstance(spec, ReferenceWindow):
            require(
                self.b is not None,
                "an explicit b (stencil width) is required with a bare window",
            )
            self.ref_window = spec
            return
        else:
            raise TypeError(f"cannot interpret window spec {spec!r}")
        self.ref_window = self.design.window
        if self.b is None:
            self.b = self.design.b

    @property
    def q_chunks(self) -> int:
        """Number of mu-row chunks: ``M' / mu = M / nu``."""
        return self.m // self.nu

    @property
    def halo(self) -> int:
        """Forward halo length ``(B - nu) * P`` of the distributed layout.

        The last chunk owned by a rank starts ``nu*P`` before its block
        end and reads ``B*P`` samples, reaching ``(B-nu)*P`` into the
        next rank's block (Fig. 4 caption).
        """
        return (self.b - self.nu) * self.p

    def _coefficient_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(mu, B, P)`` coefficient tensor as ``(real table, phase)``.

        ``C[r, b, p] = (1/M') * w(r/M' - (b*P + p)/N)`` — row template r
        evaluated over its aligned B*P-sample input window.  Chunk q,
        row r (global row ``j = q*mu + r``) then reads
        ``z[j, p] = sum_b C[r, b, p] * x[(q*nu*P + b*P + p) mod N]``;
        the q-dependence cancels exactly because
        ``(q*mu)/M' == (q*nu*P)/N``.

        ``w(t) = M e^{i pi B/2} e^{i pi M t} H(M t + B/2)`` with H real,
        and the rational ``M*t = r*nu/mu - b - p/P`` splits the phase
        into exact sign flips ``(-1)^b``, ``(-1)^{B/2}`` (absorbed into
        the real table) and two small residual phases reduced in integer
        arithmetic, whose product is the returned ``(mu, P)`` phase:
        ``C[r, b, p] = phase[r, p] * table[r, b, p]``.  (Evaluating the
        phase naively would lose ~eps*B to argument reduction, a hard
        ~13.5-digit ceiling.)
        """
        mu, nu, b, p = self.mu, self.nu, self.b, self.p
        r = np.arange(mu, dtype=np.int64)
        bidx = np.arange(b, dtype=np.int64)
        pidx = np.arange(p, dtype=np.int64)
        # s = M*t + B/2 with M*t = r*nu/mu - b - p/P; |s| stays O(B).
        s = (
            b / 2.0
            + (r * nu / mu)[:, None, None]
            - bidx[None, :, None]
            - (pidx / p)[None, None, :]
        )
        sign_b = np.where(bidx % 2 == 0, 1.0, -1.0)
        sign_half_b = 1.0 if (b // 2) % 2 == 0 else -1.0
        table = (
            (self.m / self.m_over)
            * sign_half_b
            * sign_b[None, :, None]
            * self.ref_window.h_time(s)
        )
        phase_r = np.exp(1j * np.pi * ((r * nu) % (2 * mu)) / mu)
        phase_p = np.exp(-1j * np.pi * pidx / p)
        return table, phase_r[:, None] * phase_p[None, :]

    # ------------------------------------------------------------------
    # The convolution stage, shared by the sequential pipeline in
    # core/soi.py and every rank program in parallel/ so that all of them
    # run literally the same kernel (repro.core.convolve).

    def _convolver(self) -> ConvolveKernel:
        kernel = self._kernel
        if kernel is None:
            with self._workspace_lock:
                kernel = self._kernel
                if kernel is None:
                    kernel = self._kernel = ConvolveKernel(
                        self.coeffs_real, self.coeffs_phase, self.nu
                    )
        return kernel

    def _window_rows(self, winb: np.ndarray) -> np.ndarray:
        """The ``((n-1)*nu + B, P)`` extended-input rows under a window view."""
        n, it = winb.shape[0], winb.itemsize
        if not (
            winb.ndim == 3 and n >= 1 and winb.shape[1:] == (self.b, self.p)
            and winb.dtype == self.dtype and winb.strides[1:] == (self.p * it, it)
            and (n == 1 or winb.strides[0] == self.nu * self.p * it)
        ):
            raise ValueError(
                "winb must be a SoiPlan.window_view of this plan "
                "(or a slice of one along its first axis)"
            )
        return np.lib.stride_tricks.as_strided(
            winb, shape=((n - 1) * self.nu + self.b, self.p), strides=(self.p * it, it),
            writeable=False,
        )

    def contract_windows_t(self, winb: np.ndarray, q0: int = 0) -> np.ndarray:
        """Stage-1 convolution emitted pre-transposed: ``(P, q, r)`` with
        ``z[p, q, r] = sum_b C[r, b, p] * winb[q, b, p]``, the ``(P, M')``
        column layout once the last two axes are flattened.  *winb* is a
        :meth:`window_view` (or a first-axis slice of one) and *q0* the
        global index of its first chunk: the kernel anchors its tiles at
        global chunk 0, so any sub-range is bit-for-bit the same slice
        of the full call.
        """
        n, rows = winb.shape[0], self._window_rows(winb)
        return self._convolver()(rows, rows[:0], n, q0).reshape(self.p, n, self.mu)

    def _fft_p(self, backend: "str | FftBackend"):
        """The column transform the kernel runs per panel, at the panel's
        (the plan's) precision and in place where the backend can (the
        panel is pooled scratch)."""
        be = get_backend(backend)
        return lambda zt: backend_fft_tt(be, zt, out=zt)

    def window_view(self, vec: np.ndarray, tail: np.ndarray, nchunks: int) -> np.ndarray:
        """Stencil windows ``(nchunks, B, P)`` over ``vec ++ tail``, zero-copy.

        Builds the extended input in a reusable per-context buffer (no
        allocation on the repeated-transform hot path) and returns the
        strided read-only window view the convolution contracts against:
        window q starts at sample ``q * nu * P`` and spans ``B * P``
        samples.  *tail* is the periodic wrap (sequential: the first
        ``B*P`` samples of *vec*) or the neighbour halo (distributed).
        """
        total = vec.size + tail.size
        ctx = execution_context()
        entry = getattr(self._tls, "xe", None)
        if entry is None or entry[0] != ctx:
            # Revalidate against the execution context, not the OS
            # thread: the DES engine recycles a finished rank's thread
            # for a later rank, and the returned view aliases this
            # buffer — a thread-keyed pool would let rank N+1 scribble
            # over a buffer rank N's view still points into.
            entry = self._tls.xe = (ctx, {})
        pool = entry[1]
        buf = pool.get(total)
        if buf is None:
            buf = pool[total] = np.empty(total, dtype=self.dtype)
        buf[: vec.size] = vec
        buf[vec.size :] = tail
        it = buf.itemsize
        return np.lib.stride_tricks.as_strided(
            buf,
            shape=(nchunks, self.b, self.p),
            strides=(self.nu * self.p * it, self.p * it, it),
            writeable=False,
        )

    def _segment_index(self, s) -> int:
        """*s* as a Python ``int`` in ``[0, P)``: integers (NumPy ones
        included) only, never a bool or a float."""
        if isinstance(s, bool):
            raise TypeError("segment must be an integer, got bool")
        try:
            s = operator.index(s)
        except TypeError:
            raise TypeError(
                f"segment must be an integer, got {type(s).__name__}"
            ) from None
        if not 0 <= s < self.p:
            raise IndexError(f"segment {s} out of range [0, {self.p})")
        return s

    def segment_phase(self, s: int) -> np.ndarray:
        """Cached modulation phases ``exp(-2j*pi*s*k/P)`` for segment *s*.

        One length-P table per requested segment (Section 5's
        ``Phi_s`` diagonal has period P); cached because segment-of-
        interest workloads re-extract the same few segments repeatedly.
        """
        s = self._segment_index(s)
        phase = self._segment_phases.get(s)
        if phase is None:
            computed = np.exp(-2j * np.pi * s * np.arange(self.p) / self.p)
            if self.dtype == np.complex64:
                computed = computed.astype(np.complex64)
            computed.setflags(write=False)
            with self._workspace_lock:
                phase = self._segment_phases.setdefault(s, computed)
        return phase

    # ------------------------------------------------------------------

    def segment_slice(self, s: int) -> slice:
        """Output index range of segment *s*: ``[s*M, (s+1)*M)``."""
        s = self._segment_index(s)
        return slice(s * self.m, (s + 1) * self.m)

    @property
    def table_bytes(self) -> int:
        """Bytes of precomputed tables this plan holds right now (the
        banded kernel table counts once the first contraction built it)."""
        kernel = self._kernel
        return (
            self.coeffs.nbytes
            + self.coeffs_real.nbytes
            + self.coeffs_phase.nbytes
            + self.demod.nbytes
            + self.demod_recip.nbytes
            + (kernel.table_bytes if kernel is not None else 0)
        )

    def describe(self) -> str:
        """Human-readable multi-line summary (used by examples/benchmarks)."""
        lines = [
            f"SOI plan: N={self.n} = M({self.m}) x P({self.p})",
            f"  oversampling beta={float(as_fraction(self.beta)):.4g} "
            f"(mu/nu = {self.mu}/{self.nu}), M'={self.m_over}, N'={self.n_over}",
            f"  stencil B={self.b}, halo=(B-nu)*P={self.halo} samples "
            f"({100.0 * self.halo / self.n:.4g}% of N)",
            f"  window: {self.ref_window!r}",
            f"  tables: {self.table_bytes / 1024:.0f} KiB "
            f"(banded kernel table {'built' if self._kernel else 'not built yet'})",
        ]
        if self.design is not None:
            lines.append(
                f"  design: kappa={self.design.kappa:.3g}, "
                f"eps_alias={self.design.eps_alias:.2e}, "
                f"eps_trunc={self.design.eps_trunc:.2e}, "
                f"~{self.design.predicted_digits:.1f} digits"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SoiPlan(n={self.n}, p={self.p}, beta={self.mu}/{self.nu}-1, "
            f"b={self.b}, window={self.ref_window!r})"
        )


def _beta_fraction(beta) -> Fraction:
    """*beta* as an exact fraction: a real number (never a bool, str or
    None) that is finite — checked before the rational approximation,
    which would fail on these without naming the argument."""
    if isinstance(beta, bool) or not isinstance(beta, numbers.Real):
        raise TypeError(f"beta must be a real number, got {type(beta).__name__}")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    return as_fraction(beta)


# ----------------------------------------------------------------------
# SOI plan cache — the SoiPlan analogue of repro.dft.cache.plan_for.
# ----------------------------------------------------------------------

# Plans hold the (mu, B, P) tables and, once used, a banded kernel table
# several times that size (soi_plan_cache_info()["table_bytes"]); the
# cache bounds plans, not bytes, so keep the set small.
_SOI_CACHE_MAX = 16
_soi_cache: "OrderedDict[tuple, SoiPlan]" = None  # type: ignore[assignment]
_soi_lock = threading.Lock()
_soi_hits = 0
_soi_misses = 0
_soi_evictions = 0
_soi_observer = None  # (state, kind, guard) callable; see repro.check.hb

#: Name of the lock guarding the cache, declared to the HB checker.
_SOI_GUARD = "repro.core.plan._soi_lock"


def soi_plan_for(
    n: int,
    p: int = 8,
    beta: float | Fraction = Fraction(1, 4),
    window: "WindowDesign | ReferenceWindow | str | float" = "full",
    b: int | None = None,
    dtype: "np.dtype | type | str" = np.complex128,
) -> SoiPlan:
    """A shared :class:`SoiPlan` for this configuration (thread-safe LRU).

    Repeated same-configuration transforms reuse one plan object — and
    with it every precomputed workspace it carries (coefficient tables,
    banded convolution kernel, reciprocal demodulation, per-context
    extended-input buffers) — instead of rebuilding them per call.  Only
    hashable window specs (preset names / target-digit numbers) are
    cached; exotic specs fall through to a fresh plan.  Safe to call
    concurrently from simmpi rank threads.
    """
    global _soi_cache, _soi_hits, _soi_misses, _soi_evictions
    if not isinstance(window, (str, float, int)) or isinstance(window, bool):
        return SoiPlan(n=n, p=p, beta=beta, window=window, b=b, dtype=dtype)
    obs = _soi_observer
    if obs is not None:
        obs("core.soi_plan_cache", "rw", _SOI_GUARD)
    if not isinstance(window, str):
        window = float(window)  # 14 and 14.0 are one design and one key
    key = (n, p, _beta_fraction(beta), window, b, np.dtype(dtype).str)
    with _soi_lock:
        if _soi_cache is None:
            from collections import OrderedDict

            _soi_cache = OrderedDict()
        plan = _soi_cache.get(key)
        if plan is not None:
            _soi_cache.move_to_end(key)
            _soi_hits += 1
            return plan
    built = SoiPlan(n=n, p=p, beta=beta, window=window, b=b, dtype=dtype)
    with _soi_lock:
        plan = _soi_cache.setdefault(key, built)
        if plan is built:
            _soi_misses += 1
        else:
            _soi_hits += 1  # another thread built it first; share theirs
        _soi_cache.move_to_end(key)
        while len(_soi_cache) > _SOI_CACHE_MAX:
            _soi_cache.popitem(last=False)
            _soi_evictions += 1
    return plan


def clear_soi_plan_cache() -> None:
    """Drop all cached SOI plans and reset the hit/miss/eviction counters."""
    global _soi_cache, _soi_hits, _soi_misses, _soi_evictions
    with _soi_lock:
        if _soi_cache is not None:
            _soi_cache.clear()
        _soi_hits = 0
        _soi_misses = 0
        _soi_evictions = 0


def soi_plan_cache_info() -> dict[str, int]:
    """Cache statistics: entries, hits, misses, evictions, max_plans and
    the table bytes the cached plans hold (:attr:`SoiPlan.table_bytes`)."""
    with _soi_lock:
        plans = [] if _soi_cache is None else list(_soi_cache.values())
        return {
            "plans": len(plans),
            "table_bytes": sum(plan.table_bytes for plan in plans),
            "hits": _soi_hits,
            "misses": _soi_misses,
            "evictions": _soi_evictions,
            "max_plans": _SOI_CACHE_MAX,
        }


def set_soi_plan_cache_observer(observer):
    """Install a cache access observer; returns the previous one.

    Called as ``observer("core.soi_plan_cache", "rw", guard)`` on every
    cached :func:`soi_plan_for` lookup, outside the cache lock — the
    declaration hook for :class:`repro.check.hb.HbTracker`.  Zero-cost
    (one global read) when no observer is installed.
    """
    global _soi_observer
    previous = _soi_observer
    _soi_observer = observer
    return previous
