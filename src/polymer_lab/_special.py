"""The error functions erf, erfc and erfcx for floats and float arrays.

W. J. Cody's rational Chebyshev approximations (Math. Comp. 23 (1969)
631-637; the coefficients of netlib's CALERF), in three regions of
y = |x|:

- y <= 0.46875: erf(x) = x R1(x^2);
- 0.46875 < y <= 4: erfcx(y) = R2(y);
- y > 4: erfcx(y) = (1/sqrt(pi) - R3(1/y^2)/y^2) / y.

erfc(y) = e^{-y^2} erfcx(y), with e^{-y^2} split into e^{-h^2} e^{-(y-h)(y+h)},
h = trunc(16 y)/16, so the rounding of y^2 does not reach the result; the
same split gives e^{x^2} in erfcx's reflection erfcx(x) = 2 e^{x^2} - erfcx(-x)
for x < -0.46875.  Against 50-digit references erf, erfc and erfcx are
within 3, 6 and 5 ulps wherever the value is a normal double, and within
1 ulp in erfc's subnormal band (docs/derivations.md).

A 0-d input picks its region with ``if`` on a Python float and returns a
numpy float64; an array picks them with masks.  Both run the same rational
kernels and the same ``np.exp``, so a 0-d call equals the one-element
array call bit for bit.  No input, signed zeros, infinities and nan
included, raises a numpy warning under the default error state.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["erf", "erfc", "erfcx"]

_THRESH = 0.46875
_SQRPI = 5.6418958354775628695e-1  # 1/sqrt(pi)
# erfcx(y) = 1/(sqrt(pi) y) to double precision from here on; below it,
# the 1/y^2 of the third region cannot overflow
_XHUGE = 6.71e7
# erfc(y) rounds to 0 from y about 27.23 on; below it, y^2 cannot overflow
_XZERO = 27.3
# the most negative x at which the reflection 2 e^{x^2} - erfcx(-x) is finite
_XNEG = -26.62873571375149


def _horner(lead, ps, qs):
    """A region's rational as Horner's rule consumes it.

    lead is the numerator's leading coefficient; ps and qs are the
    numerator and denominator coefficients in the order Horner's rule adds
    them, as in CALERF.  Returns (lead, the pairs followed by a product
    with t, the last pair).
    """
    return lead, tuple(zip(ps[:-1], qs[:-1])), ps[-1], qs[-1]


_R1 = _horner(
    1.85777706184603153e-1,
    (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
     3.20937758913846947e03),
    (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
     2.84423683343917062e03),
)
_R2 = _horner(
    2.15311535474403846e-8,
    (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
     2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
     2.05107837782607147e03, 1.23033935479799725e03),
    (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
     1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
     3.43936767414372164e03, 1.23033935480374942e03),
)
_R3 = _horner(
    1.63153871373020978e-2,
    (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
     1.60837851487422766e-2, 6.58749161529837803e-4),
    (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3),
)


def _rational(t, region):
    lead, pairs, p_last, q_last = region
    num, den = lead * t, t
    for p, q in pairs:
        num = (num + p) * t
        den = (den + q) * t
    return (num + p_last) / (den + q_last)


def _erf_small(x):
    # erf(x) for |x| <= 0.46875
    return x * _rational(x * x, _R1)


def _erfcx_big(y):
    # erfcx(y) for 4 < y < _XHUGE; R2 covers 0.46875 < y <= 4
    ysq = 1.0 / (y * y)
    return (_SQRPI - ysq * _rational(ysq, _R3)) / y


def _exp_sq(x, h, sign):
    # e^{sign x^2} as e^{sign h^2} e^{sign (x - h)(x + h)}, h = trunc(16 x)/16
    return np.exp(sign * (h * h)) * np.exp(sign * ((x - h) * (x + h)))


# ---------------------------------------------------------------------------
# 0-d inputs: one region, picked by if, on a Python float that is not nan
# (math.trunc is exact, as np.trunc is, and cheaper on a float)
# ---------------------------------------------------------------------------


def _erfc_tail_scalar(y: float):
    # erfc(y) for y > 0.46875
    if y >= _XZERO:
        return 0.0
    tail = _rational(y, _R2) if y <= 4.0 else _erfcx_big(y)
    return _exp_sq(y, math.trunc(16.0 * y) / 16.0, -1.0) * tail


def _erf_scalar(x: float):
    y = abs(x)
    if y <= _THRESH:
        return _erf_small(x)
    one = (0.5 - _erfc_tail_scalar(y)) + 0.5
    return one if x > 0.0 else -one


def _erfc_scalar(x: float):
    y = abs(x)
    if y <= _THRESH:
        return 1.0 - _erf_small(x)
    tail = _erfc_tail_scalar(y)
    return 2.0 - tail if x < 0.0 else tail


def _erfcx_scalar(x: float):
    y = abs(x)
    if y <= _THRESH:
        return np.exp(x * x) * (1.0 - _erf_small(x))
    if y <= 4.0:
        tail = _rational(y, _R2)
    elif y < _XHUGE:
        tail = _erfcx_big(y)
    else:
        tail = _SQRPI / y
    if x > 0.0:
        return tail
    if x < _XNEG:
        return math.inf
    e = _exp_sq(x, math.trunc(16.0 * x) / 16.0, 1.0)
    return (e + e) - tail


# ---------------------------------------------------------------------------
# arrays: every region, picked by masks
# ---------------------------------------------------------------------------


def _erfcx_tail_array(y: np.ndarray) -> np.ndarray:
    # erfcx(y) for y > 0.46875, or nan
    out = np.empty_like(y)
    mid = ~(y > 4.0)  # nan included
    out[mid] = _rational(y[mid], _R2)
    big = (y > 4.0) & (y < _XHUGE)
    out[big] = _erfcx_big(y[big])
    huge = y >= _XHUGE
    out[huge] = _SQRPI / y[huge]
    return out


def _erfc_tail_array(y: np.ndarray) -> np.ndarray:
    # erfc(y) for y > 0.46875, or nan
    out = np.zeros_like(y)
    live = ~(y >= _XZERO)  # nan included
    yl = y[live]
    out[live] = _exp_sq(yl, np.trunc(16.0 * yl) / 16.0, -1.0) * _erfcx_tail_array(yl)
    return out


def _erf_array(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    small = np.abs(x) <= _THRESH
    out[small] = _erf_small(x[small])
    rest = ~small
    xr = x[rest]
    one = (0.5 - _erfc_tail_array(np.abs(xr))) + 0.5
    out[rest] = np.where(xr > 0.0, one, -one)
    return out


def _erfc_array(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    small = np.abs(x) <= _THRESH
    out[small] = 1.0 - _erf_small(x[small])
    rest = ~small
    xr = x[rest]
    tail = _erfc_tail_array(np.abs(xr))
    out[rest] = np.where(xr < 0.0, 2.0 - tail, tail)
    return out


def _erfcx_array(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    small = np.abs(x) <= _THRESH
    xs = x[small]
    out[small] = np.exp(xs * xs) * (1.0 - _erf_small(xs))
    pos = ~small & ~(x < -_THRESH)  # nan included
    out[pos] = _erfcx_tail_array(x[pos])
    neg = (x < -_THRESH) & (x >= _XNEG)
    xn = x[neg]
    e = _exp_sq(xn, np.trunc(16.0 * xn) / 16.0, 1.0)
    out[neg] = (e + e) - _erfcx_tail_array(-xn)
    out[x < _XNEG] = np.inf
    return out


def _dispatch(x, scalar, array):
    if not isinstance(x, float):  # numpy float64 scalars are floats too
        x = np.asarray(x, dtype=float)
        if x.ndim:
            return array(x)
    x = float(x)
    return np.float64(scalar(x) if x == x else x)


def erf(x):
    """Error function, elementwise; a 0-d input gives a numpy float64."""
    return _dispatch(x, _erf_scalar, _erf_array)


def erfc(x):
    """Complementary error function 1 - erf(x), elementwise."""
    return _dispatch(x, _erfc_scalar, _erfc_array)


def erfcx(x):
    """Scaled complementary error function e^{x^2} erfc(x), elementwise.

    inf where the value exceeds the largest double (x below about -26.63).
    """
    return _dispatch(x, _erfcx_scalar, _erfcx_array)
