"""Window functions for the SOI framework (Section 4 of the paper).

A *reference window* ``H_hat(u)`` must satisfy (Section 4):

(a) ``|H_hat(u)| > 0`` on ``[-1/2, 1/2]``;
(b) the condition number ``kappa = max|H_hat| / min|H_hat|`` over
    ``[-1/2, 1/2]`` is moderate (say below 1e3) — demodulation divides
    by ``w_hat(k)``, so kappa multiplies every error term;
(c) the aliasing ratio
    ``eps_alias = int_{|u| >= 1/2+beta} |H_hat| du /
    int_{-1/2}^{1/2} |H_hat| du`` is small — energy beyond the
    oversampled band folds back onto the segment of interest.

The time-domain counterpart ``H(t)`` (inverse Fourier transform)
determines the *truncation width* ``B``: the smallest stencil such that
``int_{|t| >= B/2} |H| <= eps_trunc * int |H|``.  ``B`` is the length of
the convolution inner products, i.e. the extra arithmetic SOI pays.

Three families are provided:

- :class:`TauSigmaWindow` — the paper's two-parameter window (Eq. 2): a
  rectangular (perfect band-pass) filter of width ``tau`` smoothed by a
  Gaussian ``exp(-sigma u^2)``.  Closed forms: ``H_hat`` is a difference
  of two erf's, ``H`` is a sinc times a Gaussian (footnote 5).  It is
  the family the design search of :mod:`repro.core.design` builds, so
  it alone carries the design metrics (kappa, eps_alias, B).
- :class:`GaussianWindow` — the one-parameter ``exp(-sigma u^2)``
  discussed in Section 8, which caps accuracy near 10 digits at
  ``beta = 1/4``.
- :class:`KaiserBesselWindow` — compact support in frequency, Section
  8's zero-aliasing class.

The last two are compared with the first by end-to-end accuracy, as in
Section 8: a plan takes them with an explicit stencil width ``b``.

The problem-size-specific window is then (Section 4):

    ``w_hat(u) = exp(i*pi*B*P*u/N) * H_hat((u - M/2)/M)``

whose inverse transform has the closed form

    ``w(t) = M * exp(i*pi*B/2) * exp(i*pi*M*t) * H(M*t + B/2)``

with support essentially ``t in [-B/M, 0]`` — this one-sidedness is what
makes the distributed halo a *forward*-neighbour exchange (Fig. 4).

The one special function, ``erf``, comes from :mod:`repro.core._erf`: a
vectorised NumPy port of fdlibm's ``s_erf.c`` (the code glibc's ``erf``
derives from), within 1 ulp of :func:`math.erf` where tested.  The
scalar ``erfc`` calls of the tail bounds are :func:`math.erfc`.  The
window code needs nothing beyond NumPy.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._erf import erf

__all__ = [
    "ReferenceWindow",
    "TauSigmaWindow",
    "GaussianWindow",
    "KaiserBesselWindow",
]

# Integration grid density for the numeric integrals below.  The
# integrands are smooth (Gaussian-smoothed), so a fixed fine grid with
# Simpson weights is accurate far beyond the 1e-16 ratios we resolve.
_GRID_POINTS_PER_UNIT = 4096


def _simpson(y: np.ndarray, dx: float) -> float:
    """Simpson's rule on an odd-length uniformly spaced sample array."""
    if y.size < 3:
        # The trapezoid rule: two points span one interval, one spans none.
        return 0.5 * dx * float(y[0] + y[1]) if y.size == 2 else 0.0
    if y.size % 2 == 0:
        # Trapezoid on the last interval keeps the grid handling simple.
        return _simpson(y[:-1], dx) + 0.5 * dx * float(y[-2] + y[-1])
    return float(dx / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


class ReferenceWindow(ABC):
    """Abstract reference window ``H_hat`` / ``H`` pair.

    Concrete windows provide vectorised evaluations of the frequency
    profile ``H_hat(u)`` and the time profile ``H(t)``; from them the
    SOI plan takes its demodulation diagonal and the oracles the time
    window ``w(t)``.  ``H_hat`` must be real and positive on
    ``[-1/2, 1/2]``.
    """

    @abstractmethod
    def h_hat(self, u: np.ndarray) -> np.ndarray:
        """Frequency-domain profile ``H_hat(u)`` (real, vectorised)."""

    @abstractmethod
    def h_time(self, t: np.ndarray) -> np.ndarray:
        """Time-domain profile ``H(t)`` — inverse Fourier transform of h_hat."""

    def demodulation_values(self, m: int, b: int) -> np.ndarray:
        """``w_hat(k)`` for ``k = 0..m-1`` (the diagonal of ``W_hat``).

        ``w_hat(u) = exp(i*pi*B*u/M) * H_hat((u - M/2)/M)`` — note
        ``B*P*u/N == B*u/M`` since ``N = M*P``.

        The phase argument ``pi*B*k/M`` reaches ~pi*B (hundreds of
        radians); naive evaluation loses ~eps*B relative accuracy to
        argument reduction, which would cap the transform at ~13.5
        digits.  ``B*k mod 2M`` is reduced in exact integer arithmetic
        first, keeping every argument in [0, 2*pi).
        """
        k = np.arange(m, dtype=np.int64)
        phase = np.exp(1j * np.pi * ((b * k) % (2 * m)) / m)
        return phase * self.h_hat((k - m / 2.0) / m)

    def w_time(self, t: np.ndarray, m: int, b: int) -> np.ndarray:
        """The size-specific time window ``w(t)`` (closed form, Section 4).

        ``w(t) = M exp(i*pi*B/2) exp(i*pi*M*t) H(M*t + B/2)``; support is
        essentially ``t in [-B/M, 0]``.
        """
        t = np.asarray(t, dtype=np.float64)
        return (
            m
            * np.exp(1j * np.pi * b / 2.0)
            * np.exp(1j * np.pi * m * t)
            * self.h_time(m * t + b / 2.0)
        )


@dataclass(frozen=True)
class TauSigmaWindow(ReferenceWindow):
    """The paper's two-parameter window (Eq. 2): rect(tau) smoothed by a Gaussian.

    ``H_hat(u) = (1/tau) * int_{-tau/2}^{tau/2} exp(-sigma (u-t)^2) dt``
    (closed form below via erf), and per footnote 5

    ``H(t) = sinc(tau * t) * sqrt(pi/sigma) * exp(-pi^2 t^2 / sigma)``

    with ``sinc(x) = sin(pi x)/(pi x)``.

    Parameters: ``tau`` is the width of the underlying perfect band-pass
    filter; ``sigma`` the sharpness of the Gaussian smoothing.  Larger
    sigma sharpens the frequency roll-off (smaller eps_alias, larger
    kappa head-room) but widens the time-domain stencil B.
    """

    tau: float
    sigma: float

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def h_hat(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        rs = math.sqrt(self.sigma)
        scale = math.sqrt(math.pi / self.sigma) / (2.0 * self.tau)
        # Both erf terms in one call: u + (-tau/2) is u - tau/2 exactly.
        half = self.tau / 2.0
        upper, lower = erf(rs * (u + np.array([half, -half]).reshape((2,) + (1,) * u.ndim)))
        return scale * (upper - lower)

    def h_time(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        amp = math.sqrt(math.pi / self.sigma)
        # Clip the Gaussian exponent: anything below exp(-745) underflows
        # to zero, which is exactly the value we want.
        expo = np.minimum(np.pi**2 * t**2 / self.sigma, 745.0)
        return np.sinc(self.tau * t) * amp * np.exp(-expo)

    # ---- design metrics -------------------------------------------------

    @cached_property
    def _passband_abs(self) -> np.ndarray:
        """``|H_hat|`` on the pass-band grid ``linspace(-1/2, 1/2, 4097)``.

        Both :meth:`kappa` and :meth:`passband_integral` read it.  Only
        the left half is evaluated: ``H_hat`` is even to the bit (the erf
        pair is evaluated at ``u +- tau/2`` and erf is odd) and the grid
        is symmetric exactly (its step is 2**-12), so the mirror image
        is the right half.
        """
        half = _GRID_POINTS_PER_UNIT // 2
        left = np.abs(self.h_hat(np.linspace(-0.5, 0.0, half + 1)))
        return np.concatenate([left, left[-2::-1]])

    def kappa(self) -> float:
        """Condition number: max/min of ``|H_hat|`` over [-1/2, 1/2]."""
        vals = self._passband_abs
        vmin = float(vals.min())
        if vmin == 0.0:
            return math.inf
        return float(vals.max()) / vmin

    def passband_integral(self) -> float:
        """``int_{-1/2}^{1/2} |H_hat(u)| du`` (denominator of eps_alias)."""
        return _simpson(self._passband_abs, 1.0 / _GRID_POINTS_PER_UNIT)

    def alias_error(self, beta: float) -> float:
        """``eps_alias`` for oversampling rate *beta* (Section 4, item (c)).

        The stop-band integral ``int_{|u| >= 1/2 + beta} |H_hat|`` is
        evaluated on a grid covering the decaying region plus an
        analytic Gaussian-tail remainder from :meth:`stopband_tail`.
        """
        if beta < 0:
            raise ValueError(f"beta must be >= 0, got {beta}")
        a = 0.5 + beta
        span = self.stopband_span()
        n = int(_GRID_POINTS_PER_UNIT * span) | 1
        u = np.linspace(a, a + span, n)
        body = _simpson(np.abs(self.h_hat(u)), float(u[1] - u[0]))
        tail = self.stopband_tail(a + span)
        # H_hat is even; both sides contribute equally.
        return 2.0 * (body + tail) / self.passband_integral()

    def alias_error_pointwise(self, beta: float) -> float:
        """Worst-case *pointwise* alias ratio after demodulation.

        The periodised spectrum at an edge bin ``k ~ M-1`` picks up the
        alias image ``y_{k-M'} * w_hat(k-M')`` whose window value is
        ``H_hat(-(1/2 + beta))`` — and demodulation divides by the edge
        value ``H_hat(1/2)``.  The integral ``eps_alias`` of the paper
        averages the stop-band mass over M bins and can understate this
        by orders of magnitude, so the designer enforces both.  The sum
        over further images ``j = 2, 3, ...`` is dominated by the first
        (H_hat decays at least Gaussian-fast); a factor-2 cushion covers
        it.
        """
        if beta < 0:
            raise ValueError(f"beta must be >= 0, got {beta}")
        edge, first, second = np.abs(self.h_hat(np.array([0.5, 0.5 + beta, 0.5 + beta + 1.0])))
        if edge == 0.0:
            return math.inf
        return float((2.0 * first + 2.0 * second) / edge)

    def truncation_width(self, eps_trunc: float) -> int:
        """Smallest even ``B`` with ``int_{|t| >= B/2} |H| <= eps_trunc * int |H|``.

        This is the Section-4 definition of the convolution stencil
        length.  ``B`` is kept even so the stencil splits into whole
        P-blocks symmetric around the window centre.
        """
        if not (0.0 < eps_trunc < 1.0):
            raise ValueError(f"eps_trunc must be in (0, 1), got {eps_trunc}")
        t_half = self.time_halfwidth(eps_trunc)
        b = 2 * math.ceil(t_half)
        return max(b, 2)

    def time_halfwidth(self, eps: float) -> float:
        """Solve the Gaussian-tail bound for T: tail(T) <= eps * integral.

        ``int_{T}^{inf} |H| <= sqrt(pi/sigma) * (1/2) sqrt(sigma/pi)
        erfc(pi T / sqrt(sigma))`` (using |sinc| <= 1), and
        ``int |H| >= |int H| = H_hat(0)``.  Solved by bisection on the
        monotone erfc.
        """
        total = float(self.h_hat(np.array([0.0]))[0])
        target = eps * total / math.sqrt(1.0 / 1.0)  # explicit: eps * H_hat(0)
        rs = math.sqrt(self.sigma)

        def tail(t_half: float) -> float:
            # 2-sided tail bound (both tails), sinc bounded by 1.
            return math.sqrt(math.pi / self.sigma) * rs / math.sqrt(math.pi) * math.erfc(
                math.pi * t_half / rs
            )

        lo, hi = 0.0, 1.0
        while tail(hi) > target and hi < 1e6:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if tail(mid) > target:
                lo = mid
            else:
                hi = mid
        return hi

    def stopband_span(self) -> float:
        """Grid length (in u) after which the analytic tail bound takes over.

        Covers the erf roll-off: a few Gaussian standard deviations past
        the rect edge, expressed in u units.
        """
        return self.tau / 2.0 + 12.0 / math.sqrt(self.sigma)

    def stopband_tail(self, a: float) -> float:
        """``int_a^inf H_hat``: exact by Fubini, bounded by the worst erfc.

        ``int_a^inf H_hat(u) du <= (1/2) sqrt(pi/sigma) *
        erfc(sqrt(sigma) (a - tau/2)) * (something O(1/sqrt(sigma)))``;
        we use the simple rigorous bound ``H_hat(u) <=
        (1/2) * C * erfc(sqrt(sigma)(u - tau/2))`` integrated analytically.
        """
        rs = math.sqrt(self.sigma)
        z = rs * (a - self.tau / 2.0)
        if z <= 0:
            # Grid should always extend past the rect edge.
            raise ValueError("tail bound requested inside the transition band")
        # H_hat(u) <= sqrt(pi/sigma)/(2 tau) * erfc(rs (u - tau/2)) and
        # int_a^inf erfc(rs(u - tau/2)) du = ierfc(z)/rs with
        # ierfc(z) = exp(-z^2)/sqrt(pi) - z erfc(z) <= exp(-z^2)/sqrt(pi).
        c = math.sqrt(math.pi / self.sigma) / (2.0 * self.tau)
        if z > 26.0:  # exp(-z^2) underflows; bound is zero at double precision
            return 0.0
        ierfc = math.exp(-z * z) / math.sqrt(math.pi) - z * math.erfc(z)
        return c * max(ierfc, 0.0) / rs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TauSigmaWindow(tau={self.tau:.6g}, sigma={self.sigma:.6g})"


@dataclass(frozen=True)
class GaussianWindow(ReferenceWindow):
    """One-parameter Gaussian window ``H_hat(u) = exp(-sigma u^2)``.

    Section 8 of the paper: with ``beta = 1/4`` this window cannot do
    better than ~10 digits (kappa and eps_alias fight each other —
    sharpening the Gaussian to cut aliasing blows up kappa
    ``= exp(sigma/4)`` and vice versa).  Kept as the simple baseline the
    accuracy experiments contrast against.
    """

    sigma: float

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def h_hat(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        return np.exp(-np.minimum(self.sigma * u**2, 745.0))

    def h_time(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        amp = math.sqrt(math.pi / self.sigma)
        return amp * np.exp(-np.minimum(np.pi**2 * t**2 / self.sigma, 745.0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GaussianWindow(sigma={self.sigma:.6g})"


@dataclass(frozen=True)
class KaiserBesselWindow(ReferenceWindow):
    """Kaiser-Bessel window: COMPACT support in the frequency domain.

    ``H_hat(u) = I0(alpha * sqrt(1 - (u/half_width)^2)) / I0(alpha)`` for
    ``|u| <= half_width`` and exactly zero outside — the class of windows
    Section 8 points to ("those with compact support can eliminate
    aliasing error completely", cf. [7]).  With ``half_width <= 1/2 +
    beta`` the SOI aliasing term vanishes identically; the price is a
    time profile with only first-order smoothness at the support edge,
    whose tail decays like 1/t — so the truncation width B carries the
    whole error budget.

    The Fourier pair is closed-form (the classic Kaiser-Bessel pair)::

        H(t) = 2*half_width * sinh(sqrt(alpha^2 - z^2)) /
               (I0(alpha) * sqrt(alpha^2 - z^2)),   z = 2*pi*half_width*t

    with the analytic continuation ``sin(sqrt(z^2 - alpha^2)) /
    sqrt(z^2 - alpha^2)`` once ``|z| > alpha``.
    """

    alpha: float
    half_width: float = 0.75  # = 1/2 + beta for beta = 1/4

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.half_width <= 0.5:
            raise ValueError(
                f"half_width must exceed 1/2 (pass-band), got {self.half_width}"
            )

    def h_hat(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        ratio2 = (u / self.half_width) ** 2
        inside = ratio2 < 1.0
        out = np.zeros_like(u)
        arg = self.alpha * np.sqrt(np.clip(1.0 - ratio2, 0.0, None))
        out[inside] = np.i0(arg[inside]) / np.i0(self.alpha)
        return out

    def h_time(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        z = 2.0 * np.pi * self.half_width * t
        a2 = self.alpha * self.alpha
        diff = a2 - z * z
        out = np.empty_like(t)
        pos = diff > 0
        # sinh(x)/x and sin(x)/x branches share the limit 1 at x -> 0.
        sp = np.sqrt(diff[pos])
        out[pos] = np.sinh(sp) / np.where(sp == 0.0, 1.0, sp)
        sn = np.sqrt(-diff[~pos])
        with np.errstate(invalid="ignore"):
            out[~pos] = np.where(sn == 0.0, 1.0, np.sin(sn) / np.where(sn == 0, 1, sn))
        return out * 2.0 * self.half_width / np.i0(self.alpha)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KaiserBesselWindow(alpha={self.alpha:.6g}, half_width={self.half_width:.6g})"

