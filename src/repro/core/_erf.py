"""Vectorised double-precision ``erf`` in NumPy.

A port of the rational approximations in fdlibm's ``s_erf.c`` (Sun
Microsystems, 1993), the code glibc's ``erf`` derives from: the same
coefficients, the same five argument ranges and the same operation
order, applied to each range's elements at once (on ``|x|``, the sign
restored at the end, which fdlibm's sign handling matches bit for bit).
Within 1 ulp of :func:`math.erf` on what tests/core/test_windows.py
checks: a dense grid over [-7, 7], the range edges and the special
values.

Ranges of ``|x|``:

- ``[0, 0.84375)``: ``x + x*R(x^2)/S(x^2)``;
- ``[0.84375, 1.25)``: ``erx + P(|x|-1)/Q(|x|-1)``;
- ``[1.25, 1/0.35)`` and ``[1/0.35, 6)``: ``1 - exp(-x^2 - 0.5625 + R/S)/x``
  with ``R/S`` rational in ``1/x^2`` (two coefficient sets), ``x^2``
  split exactly so the exponent keeps full precision;
- ``[6, inf]``: ``+-1``.  NaN propagates.
"""

from __future__ import annotations

import numpy as np

__all__ = ["erf"]

_ERX = 8.45062911510467529297e-01
_EFX = 1.28379167095512586316e-01
_EFX8 = 1.02703333676410069053e00

# erf on |x| < 0.84375: x + x * pp(x^2) / qq(x^2).
_PP = (1.28379167095512558561e-01, -3.25042107247001499370e-01, -2.84817495755985104766e-02,
       -5.77027029648944159157e-03, -2.37630166566501626084e-05)
_QQ = (1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02,
       5.08130628187576562776e-03, 1.32494738004321644526e-04, -3.96022827877536812320e-06)
# erf on [0.84375, 1.25): erx + pa(s) / qa(s), s = |x| - 1.
_PA = (-2.36211856075265944077e-03, 4.14856118683748331666e-01, -3.72207876035701323847e-01,
       3.18346619901161753674e-01, -1.10894694282396677476e-01, 3.54783043256182359371e-02,
       -2.16637559486879084300e-03)
_QA = (1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01, 7.18286544141962662868e-02,
       1.26171219808761642112e-01, 1.36370839120290507362e-02, 1.19844998467991074170e-02)
# erfc on [1.25, 1/0.35): ra(s) / sa(s), s = 1/x^2.
_RA = (-9.86494403484714822705e-03, -6.93858572707181764372e-01, -1.05586262253232909814e01,
       -6.23753324503260060396e01, -1.62396669462573470355e02, -1.84605092906711035994e02,
       -8.12874355063065934246e01, -9.81432934416914548592e00)
_SA = (1.0, 1.96512716674392571292e01, 1.37657754143519042600e02, 4.34565877475229228821e02,
       6.45387271733267880336e02, 4.29008140027567833386e02, 1.08635005541779435134e02,
       6.57024977031928170135e00, -6.04244152148580987438e-02)
# erfc on [1/0.35, 6): rb(s) / sb(s), s = 1/x^2.
_RB = (-9.86494292470009928597e-03, -7.99283237680523006574e-01, -1.77579549177547519889e01,
       -1.60636384855821916062e02, -6.37566443368389627722e02, -1.02509513161107724954e03,
       -4.83519191608651397019e02)
_SB = (1.0, 3.03380607434824582924e01, 3.25792512996573918826e02, 1.53672958608443695994e03,
       3.19985821950859553908e03, 2.55305040643316442583e03, 4.74528541206955367215e02,
       -2.24409524465858183362e01)


def _high_word(hi: int) -> float:
    """The double whose high 32 bits are *hi* and low 32 bits zero.

    fdlibm selects ranges by comparing the high word of ``|x|``;
    ``|x| < _high_word(h)`` is the same test.
    """
    return float(np.array(hi << 32, dtype=np.int64).view(np.float64))


_TINY = _high_word(0x3E300000)     # 2**-28
_MIN_NORMALISH = _high_word(0x00800000)
_RANGE_B = _high_word(0x3FEB0000)  # 0.84375
_RANGE_C = _high_word(0x3FF40000)  # 1.25
_RANGE_D = _high_word(0x4006DB6E)  # ~1/0.35
_RANGE_E = _high_word(0x40180000)  # 6
_LOW_WORD_MASK = np.int64(~0xFFFFFFFF)


def _horner(c: tuple, t: np.ndarray) -> np.ndarray:
    """``c[0] + t*(c[1] + t*(c[2] + ...))``, innermost first as fdlibm does."""
    acc = t * c[-1]
    for coef in c[-2:0:-1]:
        acc += coef
        acc *= t
    acc += c[0]
    return acc


def erf(x) -> np.ndarray:
    """The error function of *x*, elementwise (float64 array, same shape)."""
    x = np.asarray(x, dtype=np.float64)
    flat_x = x.reshape(-1)
    ax = np.abs(flat_x)
    out = np.empty_like(ax)  # |erf|, signed at the end

    idx = (ax < _RANGE_B).nonzero()[0]
    if idx.size:
        v = ax[idx]
        z = v * v
        y = v + v * (_horner(_PP, z) / _horner(_QQ, z))
        tiny = v < _TINY
        if tiny.any():
            y[tiny] = np.where(
                v[tiny] < _MIN_NORMALISH,
                0.125 * (8.0 * v[tiny] + _EFX8 * v[tiny]),
                v[tiny] + _EFX * v[tiny],
            )
        out[idx] = y

    idx = ((ax >= _RANGE_B) & (ax < _RANGE_C)).nonzero()[0]
    if idx.size:
        s = ax[idx] - 1.0
        out[idx] = _ERX + _horner(_PA, s) / _horner(_QA, s)

    idx = ((ax >= _RANGE_C) & (ax < _RANGE_E)).nonzero()[0]
    if idx.size:
        # 1 - erfc: erfc(v) = exp(-v^2 - 0.5625 + R/S) / v, R/S rational
        # in 1/v^2 (two coefficient sets), v^2 split exactly as
        # z^2 + (z - v)(z + v) with z = v with its low word cleared.
        v = ax[idx]
        s = 1.0 / (v * v)
        near = v < _RANGE_D
        ratio = np.empty_like(v)
        for sel, r, q in ((near, _RA, _SA), (~near, _RB, _SB)):
            ratio[sel] = _horner(r, s[sel]) / _horner(q, s[sel])
        z = (v.view(np.int64) & _LOW_WORD_MASK).view(np.float64)
        r = np.exp(-0.5625 - z * z) * np.exp((z - v) * (z + v) + ratio)
        out[idx] = 1.0 - r / v

    idx = (~(ax < _RANGE_E)).nonzero()[0]  # |x| >= 6, inf and NaN
    if idx.size:
        out[idx] = np.minimum(ax[idx], 1.0)  # NaN stays NaN
    return np.copysign(out, flat_x).reshape(x.shape)
