"""Closed forms of the zero-range kernels: I, its time integral J, and zeta.

The interaction kernel of the zero-range semigroup is the inverse Laplace
transform

    I(gamma, rho, t) = (1/2pi i) int e^{lam t - sqrt(2 lam) rho} / (sqrt(2 lam) - gamma) dlam,

and every observable of the limit measures is built from it and from its
time integral J, at one coupling and one time over many radii.  Both have
elementary closed forms in erfc and erfcx, the package's only route to
them: gamma and t are scalars (anything else raises TypeError), and rho is
a scalar (the result is a float) or an array (elementwise).  erfc and
erfcx are the package's own (:mod:`._special`); SciPy is not imported at
run time.  The Bromwich contour quadrature that evaluates the integral
directly is a test oracle: it lives with the tests (``tests/bromwich.py``)
and pins these closed forms there.
"""

from __future__ import annotations

import math

import numpy as np

from ._special import erfc, erfcx

__all__ = [
    "kernel_integral",
    "kernel_closed_form",
    "zbar_correction",
    "zeta_constant",
]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def kernel_integral(gamma: float, rho: float, t: float) -> float:
    """Interaction kernel I(gamma, rho, t) at one validated point.

    Checks the arguments, then evaluates :func:`kernel_closed_form`, and
    raises ValueError when the result is not finite.
    """
    _require(math.isfinite(gamma), "gamma must be finite")
    _require(math.isfinite(rho), "rho must be finite")
    _require(math.isfinite(t), "t must be finite")
    _require(rho > 0.0, "rho must be > 0")
    _require(t > 0.0, "t must be > 0")
    value = kernel_closed_form(gamma, rho, t)
    if not math.isfinite(value):
        raise ValueError(
            f"kernel at (gamma, rho, t) = ({gamma!r}, {rho!r}, {t!r}) is {value!r}: "
            "e^{gamma^2 t/2 - gamma rho} overflows a double"
        )
    return value


def _all_finite(x) -> bool:
    return math.isfinite(x) if x.ndim == 0 else bool(np.isfinite(x).all())


def _reflected(gamma: float, rho, t: float, z, gauss):
    """e^{-rho^2/2t} erfcx(z), z = (rho - gamma t)/sqrt(2t), through the reflection.

    erfcx(z) = 2 e^{z^2} - erfcx(-z), and e^{z^2} e^{-rho^2/2t} folds into one
    exponent, e^{gamma^2 t/2 - gamma rho}, which overflows only where the
    product itself does.  The direct form overflows first, once erfcx(z)
    nears the largest double (z below about -26.6).
    """
    with np.errstate(over="ignore"):
        return 2.0 * np.exp(0.5 * gamma * gamma * t - gamma * rho) - gauss * erfcx(-z)


def kernel_closed_form(gamma: float, rho, t: float):
    """Closed form of the interaction kernel, elementwise in rho.

    I(gamma, rho, t) = e^{-rho^2/2t} [ 1/sqrt(2 pi t) + (gamma/2) erfcx((rho - gamma t)/sqrt(2t)) ].

    The erfcx factoring absorbs e^{gamma rho - gamma^2 t/2} exactly, so the
    expression keeps the leading Gaussian scale.  Where that product
    overflows, erfcx's reflection takes over, so the result is inf only
    where the kernel exceeds a double.  The test suite pins it against the
    Bromwich quadrature oracle.
    """
    gamma, t = float(gamma), float(t)
    rho = np.asarray(rho, dtype=float)
    gauss = np.exp(-rho * rho / (2.0 * t))
    z = (rho - gamma * t) / math.sqrt(2.0 * t)
    scale = 1.0 / math.sqrt(2.0 * math.pi * t) + 0.5 * gamma * erfcx(z)
    if _all_finite(scale):
        out = gauss * scale  # gauss <= 1, so finite
    else:
        # erfcx overflowed; where gauss underflows too the product is the
        # expected 0 * inf = nan.  Only the elements that are not finite change.
        with np.errstate(invalid="ignore"):
            out = np.array(gauss * scale)
        big = ~np.isfinite(out)
        gs = gauss[big]
        out[big] = (gs / math.sqrt(2.0 * math.pi * t)
                    + 0.5 * gamma * _reflected(gamma, rho[big], t, z[big], gs))
    return float(out) if out.ndim == 0 else out


def zbar_correction(gamma: float, rho, t: float):
    """Time integral J(gamma, rho, t) = int_0^t I(gamma, rho, tau) dtau, elementwise in rho.

    For gamma away from zero,

        J = (1/gamma) [ e^{-rho^2/2t} erfcx((rho - gamma t)/sqrt(2t)) - erfc(rho/sqrt(2t)) ],

    and the gamma -> 0 limit is sqrt(2t/pi) e^{-rho^2/2t} - rho erfc(rho/sqrt(2t)).
    Near zero the 1/gamma form loses digits to cancellation, so |gamma| below
    1e-6 switches to the limit plus its first gamma derivative; the switch
    point keeps both branches' error under ~1e-13 relative.  Where the 1/gamma
    form overflows, erfcx is reflected as in :func:`kernel_closed_form`.

    The partition function of the zero-range measure is 1 + J(gamma,|x|,t)/|x|,
    hence the name.
    """
    gamma, t = float(gamma), float(t)
    rho = np.asarray(rho, dtype=float)
    gauss = np.exp(-rho * rho / (2.0 * t))
    tail = erfc(rho / math.sqrt(2.0 * t))

    if abs(gamma) < 1e-6:
        j0 = math.sqrt(2.0 * t / math.pi) * gauss - rho * tail
        # d/dgamma at 0: (1/2) [ (t + rho^2) erfc - rho sqrt(2t/pi) e^{-rho^2/2t} ]
        j1 = 0.5 * ((t + rho * rho) * tail - rho * math.sqrt(2.0 * t / math.pi) * gauss)
        out = j0 + gamma * j1
    else:
        z = (rho - gamma * t) / math.sqrt(2.0 * t)
        with np.errstate(invalid="ignore"):  # 0 * inf, recomputed below as above
            out = (gauss * erfcx(z) - tail) / gamma
        if not _all_finite(out):
            out = np.array(out)
            big = ~np.isfinite(out)
            out[big] = (_reflected(gamma, rho[big], t, z[big], gauss[big]) - tail[big]) / gamma
    return float(out) if out.ndim == 0 else out


def zeta_constant(gamma: float) -> float:
    """Normalizing constant zeta(gamma) = J(gamma, 0, 1) of the zero-range bridge.

    zeta(gamma) = (1/gamma) [ e^{gamma^2/2} erfc(-gamma/sqrt(2)) - 1 ],
    with zeta(0) = sqrt(2/pi).  Positive and increasing in gamma; raises
    ValueError from gamma about 37.7 on, where it overflows a double.
    """
    _require(math.isfinite(gamma), "gamma must be finite")
    if abs(gamma) < 1e-6:
        # series: zeta = sqrt(2/pi) + gamma/2 + O(gamma^2)
        return math.sqrt(2.0 / math.pi) + 0.5 * gamma
    if gamma < 0.0:
        # erfcx form never overflows on this side
        val = (erfcx(-gamma / math.sqrt(2.0)) - 1.0) / gamma
    else:
        try:
            twice_exp = 2.0 * math.exp(0.5 * gamma * gamma)
        except OverflowError:
            twice_exp = math.inf
        val = (twice_exp - erfcx(gamma / math.sqrt(2.0)) - 1.0) / gamma
        _require(math.isfinite(val), f"zeta(gamma) overflows a double at gamma = {gamma!r}")
    return float(val)
