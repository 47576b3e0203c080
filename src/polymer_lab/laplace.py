"""Numerical inverse Laplace transforms on Bromwich contours.

Everything downstream of this module rests on evaluating

    (1/2pi i) int_Gamma  e^{lam t} F(lam) dlam

for transforms F analytic to the right of the contour, with the principal
branch of sqrt(lam) cut along (-inf, 0].  Two contour shapes are supported:
a vertical line Re lam = apex, and a pair of rays leaving the apex at +-45
degrees toward the negative real direction ("bent45").  The bent contour
picks up e^{-|lam| t / sqrt(2)} decay along the rays and is the default;
the vertical contour is kept for cross-checks.

The workhorse transform is

    F(lam) = e^{-sqrt(2 lam) rho} / (sqrt(2 lam) - gamma),

whose inverse is the interaction kernel of the zero-range semigroup.  For
gamma > 0 it has a pole at lam = gamma^2/2, which must stay strictly left
of the contour.  The apex is anchored at the saddle point rho^2/(2 t^2) of
lam t - sqrt(2 lam) rho whenever that exceeds gamma^2/2: at the saddle the
integrand's modulus on the contour matches the scale of the answer, which
keeps the quadrature well conditioned even when the result is ~1e-55.

Every evaluator can also report a forward round-off estimate.  It is the
machine-epsilon sum of |weight * integrand| inflated by the magnitude of
the exponent arguments; differences between two contour placements that
fall below the summed estimates are quadrature noise, not disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
from scipy.special import erfc, erfcx, roots_legendre

__all__ = [
    "ContourSpec",
    "ContourPlacementError",
    "LaplaceEvaluationError",
    "bromwich_invert",
    "kernel_integral",
    "kernel_integral_with_noise",
    "kernel_closed_form",
    "zbar_correction",
    "zbar_correction_quadrature",
    "zeta_constant",
]

_EPS = float(np.finfo(float).eps)

# e^{-46} ~ 2e-20: truncating once the integrand has fallen this many
# e-folds below its on-contour peak leaves no trace in double precision.
_TAIL_EFOLDS = 46.0

# Safety factor on the forward round-off model.  Calibrated against the
# worst observed apex-doubling scatter at extreme cancellation (see tests).
_NOISE_SAFETY = 16.0

_BENT_PHASE = complex(math.cos(3 * math.pi / 4), math.sin(3 * math.pi / 4))


class ContourPlacementError(ValueError):
    """Contour apex does not clear the singularities of the transform."""


class LaplaceEvaluationError(RuntimeError):
    """Transform returned a non-finite value at a quadrature node."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class ContourSpec:
    """Declarative Bromwich contour.

    Parameters
    ----------
    apex : float
        Real-axis crossing a > 0 of the contour.
    shape : str
        Either ``"bent45"`` (rays at +-45 degrees into the left half plane)
        or ``"vertical"``.
    half_length : float
        Truncation of each ray: maximal ray parameter for bent45, maximal
        imaginary offset for vertical.
    nodes : int
        Minimal number of quadrature nodes per ray, at least 16.  Builders
        may allocate more when the truncated arc is long.
    """

    apex: float
    shape: str = "bent45"
    half_length: float = 100.0
    nodes: int = 400

    def __post_init__(self) -> None:
        _require(math.isfinite(self.apex) and self.apex > 0.0, "apex must be finite and > 0")
        _require(self.shape in ("bent45", "vertical"), f"unknown contour shape {self.shape!r}")
        _require(
            math.isfinite(self.half_length) and self.half_length > 0.0,
            "half_length must be finite and > 0",
        )
        _require(self.nodes >= 16, "need at least 16 nodes per ray")

    @classmethod
    def bent(cls, apex: float, t: float, nodes: int = 400) -> "ContourSpec":
        """Bent contour truncated where e^{lam t} decay has exhausted the peak.

        Along the ray, |e^{lam t}| falls by e-folds s*t/sqrt(2) while the
        sqrt(2 lam) factor in kernel-type transforms can return up to
        apex*t e-folds, so both are budgeted.
        """
        _require(t > 0.0, "t must be > 0")
        smax = math.sqrt(2.0) * (_TAIL_EFOLDS + apex * t) / t
        # resolution must track the number of decay scales along the ray
        n = max(nodes, int(math.ceil(1.8 * smax * t)))
        return cls(apex=apex, shape="bent45", half_length=smax, nodes=n)

    @classmethod
    def for_kernel(
        cls,
        gamma: float,
        rho: float,
        t: float,
        shape: str = "bent45",
        apex_scale: float = 1.0,
        nodes: int = 400,
    ) -> "ContourSpec":
        """Contour adapted to the kernel transform at (gamma, rho, t).

        The apex sits one unit right of both the pole gamma^2/2 and the
        saddle rho^2/(2 t^2); ``apex_scale >= 1`` moves it further right
        for invariance checks.
        """
        _require(rho > 0.0, "rho must be > 0")
        _require(t > 0.0, "t must be > 0")
        _require(apex_scale >= 1.0, "apex_scale must be >= 1")
        apex = (max(0.5 * gamma * gamma, 0.5 * (rho / t) ** 2) + 1.0) * apex_scale
        if shape == "bent45":
            return cls.bent(apex, t, nodes=nodes)
        if shape == "vertical":
            # amplitude truncation: Re sqrt(2 lam) must gain TAIL_EFOLDS/rho
            # over its value at the apex before the tail is dropped
            rt = math.sqrt(2.0 * apex) + _TAIL_EFOLDS / rho
            ymax = rt * math.sqrt(max(rt * rt - 2.0 * apex, 1.0))
            return cls(apex=apex, shape="vertical", half_length=ymax, nodes=max(nodes, 16))
        raise ValueError(f"unknown contour shape {shape!r}")


def _bent_nodes(c: ContourSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights for the ray parameter on [0, half_length]."""
    xs, ws = roots_legendre(c.nodes)
    s = 0.5 * c.half_length * (xs + 1.0)
    w = 0.5 * c.half_length * ws
    return s, w


def _vertical_nodes(c: ContourSpec, t: float, rho_hint: float) -> Tuple[np.ndarray, np.ndarray]:
    """Graded panel nodes for the imaginary offset y on [0, half_length].

    Panels start at the apex scale (the integrand's curvature scale near
    y = 0, where pole proximity lives) and grow geometrically until capped
    by the local oscillation period of e^{iyt - i Im sqrt(2 lam) rho}.
    """
    a = c.apex
    edges = [0.0]
    h = max(a, 1e-3) / 8.0
    while edges[-1] < c.half_length:
        y = edges[-1]
        ry = math.sqrt((math.hypot(2.0 * a, 2.0 * y) + 2.0 * a) / 2.0)
        cap = 2.0 * math.pi / (4.0 * (t + rho_hint / ry))
        h = min(h * 1.15, cap)
        edges.append(edges[-1] + h)
    edges[-1] = c.half_length
    npan = len(edges) - 1
    per_panel = max(16, int(math.ceil(c.nodes / npan)))
    xs, ws = roots_legendre(per_panel)
    e = np.asarray(edges)
    mid = 0.5 * (e[1:] + e[:-1])
    half = 0.5 * (e[1:] - e[:-1])
    y = (mid[:, None] + half[:, None] * xs[None, :]).ravel()
    w = (half[:, None] * ws[None, :]).ravel()
    return y, w


def _check_conjugate_symmetry(F: Callable[[np.ndarray], np.ndarray], lam: np.ndarray) -> None:
    # a transform without F(conj lam) = conj F(lam) has no real inverse
    idx = np.linspace(0, lam.size - 1, 5).astype(int)
    sample = lam[idx]
    up = np.asarray(F(sample), dtype=complex)
    down = np.asarray(F(np.conj(sample)), dtype=complex)
    scale = np.abs(up) + 1e-300
    dev = np.abs(down - np.conj(up)) / scale
    if np.any(dev > 1e-10):
        k = int(np.argmax(dev))
        raise ValueError(
            "transform violates conjugate symmetry at lambda="
            f"{sample[k]:.6g}: relative deviation {dev[k]:.3e}"
        )


def _assemble(
    F: Callable[[np.ndarray], np.ndarray],
    t: float,
    c: ContourSpec,
    rho_hint: float,
    extra_args: Callable[[np.ndarray], np.ndarray] | None,
    check_symmetry: bool,
) -> Tuple[float, float]:
    """Shared quadrature core: returns (value, round-off estimate)."""
    if c.shape == "bent45":
        s, w = _bent_nodes(c)
        lam = c.apex + s * _BENT_PHASE
    else:
        y, w = _vertical_nodes(c, t, rho_hint)
        lam = c.apex + 1j * y

    if check_symmetry:
        _check_conjugate_symmetry(F, lam)

    fv = np.asarray(F(lam), dtype=complex)
    if fv.shape != lam.shape:
        raise ValueError("transform must be vectorized: F(lam) must match lam's shape")
    if not np.all(np.isfinite(fv)):
        k = int(np.flatnonzero(~np.isfinite(fv))[0])
        raise LaplaceEvaluationError(
            f"non-finite transform value at node {k} (lambda={lam[k]:.6g})"
        )

    g = np.exp(lam * t) * fv
    if c.shape == "bent45":
        value = float(np.imag(_BENT_PHASE * np.sum(w * g)) / math.pi)
    else:
        value = float(np.real(np.sum(w * g)) / math.pi)

    # forward round-off: each term carries eps * (exponent magnitudes) of
    # relative error, and the assembled sum can cancel far below sum|wg|
    args = np.abs(np.real(lam)) * t + np.abs(np.imag(lam)) * t + 2.0
    if extra_args is not None:
        args = args + extra_args(lam)
    noise = _NOISE_SAFETY * _EPS * float(np.sum(np.abs(w * g) * args)) / math.pi
    return value, noise


def bromwich_invert(
    F: Callable[[np.ndarray], np.ndarray],
    t: float,
    contour: ContourSpec,
    check_symmetry: bool = True,
) -> float:
    """Real inverse Laplace transform of F at time t along the contour.

    Parameters
    ----------
    F : callable
        Vectorized transform evaluator, analytic right of the contour,
        principal branch for any square roots.
    t : float
        Inversion time, > 0.
    contour : ContourSpec
        Contour placement; truncation correctness is the caller's burden
        for transforms without built-in decay along the contour.
    check_symmetry : bool
        Sample-check F(conj lam) = conj F(lam) before integrating.
    """
    _require(math.isfinite(t) and t > 0.0, "t must be finite and > 0")
    return _assemble(F, t, contour, 0.0, None, check_symmetry)[0]


def _kernel_transform(gamma: float) -> Callable[[np.ndarray], np.ndarray]:
    def F(lam: np.ndarray) -> np.ndarray:
        rt = np.sqrt(2.0 * lam)
        return 1.0 / (rt - gamma)

    return F


def kernel_integral_with_noise(
    gamma: float,
    rho: float,
    t: float,
    contour: ContourSpec | None = None,
) -> Tuple[float, float]:
    """Interaction kernel by contour quadrature, with round-off estimate.

    Evaluates (1/2pi i) int e^{lam t - sqrt(2 lam) rho} / (sqrt(2 lam) - gamma) dlam.
    With ``contour=None`` a saddle-anchored bent45 contour is built; an
    explicit contour must keep its apex right of the pole gamma^2/2.
    """
    _require(math.isfinite(gamma), "gamma must be finite")
    _require(math.isfinite(rho) and rho > 0.0, "rho must be > 0")
    _require(math.isfinite(t) and t > 0.0, "t must be > 0")
    if contour is None:
        contour = ContourSpec.for_kernel(gamma, rho, t)
    if gamma > 0.0 and contour.apex <= 0.5 * gamma * gamma:
        raise ContourPlacementError(
            f"apex {contour.apex:.6g} does not clear the pole at gamma^2/2 = "
            f"{0.5 * gamma * gamma:.6g}"
        )

    def F(lam: np.ndarray) -> np.ndarray:
        rt = np.sqrt(2.0 * lam)
        return np.exp(-rt * rho) / (rt - gamma)

    def extra(lam: np.ndarray) -> np.ndarray:
        rt = np.sqrt(2.0 * lam)
        return rho * (np.abs(rt.real) + np.abs(rt.imag))

    # symmetry of this transform is a theorem, not worth n extra evals
    return _assemble(F, t, contour, rho, extra, check_symmetry=False)


def kernel_integral(
    gamma: float,
    rho: float,
    t: float,
    contour: ContourSpec | None = None,
) -> float:
    """Interaction kernel (1/2pi i) int e^{lam t - sqrt(2 lam) rho}/(sqrt(2 lam) - gamma) dlam."""
    return kernel_integral_with_noise(gamma, rho, t, contour)[0]


def zbar_correction_quadrature(
    gamma: float,
    rho: float,
    t: float,
    contour: ContourSpec | None = None,
) -> float:
    """Quadrature route for the partition-function correction J(gamma, rho, t).

    Inverts e^{-sqrt(2 lam) rho} / ((sqrt(2 lam) - gamma) lam); the extra
    1/lam is the time integration of the interaction kernel.  The origin
    pole sits on the branch cut side, harmless to both contour shapes.
    Same contour defaults and pole handling as :func:`kernel_integral`.
    """
    _require(math.isfinite(gamma), "gamma must be finite")
    _require(math.isfinite(rho) and rho > 0.0, "rho must be > 0")
    _require(math.isfinite(t) and t > 0.0, "t must be > 0")
    if contour is None:
        contour = ContourSpec.for_kernel(gamma, rho, t)
    if gamma > 0.0 and contour.apex <= 0.5 * gamma * gamma:
        raise ContourPlacementError(
            f"apex {contour.apex:.6g} does not clear the pole at gamma^2/2 = "
            f"{0.5 * gamma * gamma:.6g}"
        )

    def F(lam: np.ndarray) -> np.ndarray:
        rt = np.sqrt(2.0 * lam)
        return np.exp(-rt * rho) / ((rt - gamma) * lam)

    def extra(lam: np.ndarray) -> np.ndarray:
        rt = np.sqrt(2.0 * lam)
        return rho * (np.abs(rt.real) + np.abs(rt.imag))

    return _assemble(F, t, contour, rho, extra, check_symmetry=False)[0]


def kernel_closed_form(gamma, rho, t):
    """Closed form of the interaction kernel, elementwise in (gamma, rho, t).

    I(gamma, rho, t) = e^{-rho^2/2t} [ 1/sqrt(2 pi t) + (gamma/2) erfcx((rho - gamma t)/sqrt(2t)) ].

    The erfcx factoring absorbs e^{gamma rho - gamma^2 t/2} exactly, so the
    expression neither overflows nor loses the leading Gaussian scale.
    Pinned against :func:`kernel_integral` by the test suite; the quadrature
    is ground truth.
    """
    gamma = np.asarray(gamma, dtype=float)
    rho = np.asarray(rho, dtype=float)
    t = np.asarray(t, dtype=float)
    gauss = np.exp(-rho * rho / (2.0 * t))
    body = 1.0 / np.sqrt(2.0 * math.pi * t) + 0.5 * gamma * erfcx((rho - gamma * t) / np.sqrt(2.0 * t))
    out = gauss * body
    if out.ndim == 0:
        return float(out)
    return out


def zbar_correction(gamma, rho, t):
    """Time integral J(gamma, rho, t) = int_0^t I(gamma, rho, tau) dtau, elementwise.

    For gamma away from zero,

        J = (1/gamma) [ e^{-rho^2/2t} erfcx((rho - gamma t)/sqrt(2t)) - erfc(rho/sqrt(2t)) ],

    and the gamma -> 0 limit is sqrt(2t/pi) e^{-rho^2/2t} - rho erfc(rho/sqrt(2t)).
    Near zero the 1/gamma form loses digits to cancellation, so |gamma| below
    1e-6 switches to the limit plus its first gamma derivative; the switch
    point keeps both branches' error under ~1e-13 relative.

    The partition function of the zero-range measure is 1 + J(gamma,|x|,t)/|x|,
    hence the name.
    """
    gamma = np.asarray(gamma, dtype=float)
    rho = np.asarray(rho, dtype=float)
    t = np.asarray(t, dtype=float)
    gamma_b, rho_b, t_b = np.broadcast_arrays(gamma, rho, t)

    arg = rho_b / np.sqrt(2.0 * t_b)
    gauss = np.exp(-rho_b * rho_b / (2.0 * t_b))
    tail = erfc(arg)

    small = np.abs(gamma_b) < 1e-6
    g_safe = np.where(small, 1.0, gamma_b)
    big_branch = (gauss * erfcx((rho_b - gamma_b * t_b) / np.sqrt(2.0 * t_b)) - tail) / g_safe

    j0 = np.sqrt(2.0 * t_b / math.pi) * gauss - rho_b * tail
    # d/dgamma at 0: (1/2) [ (t + rho^2) erfc - rho sqrt(2t/pi) e^{-rho^2/2t} ]
    j1 = 0.5 * ((t_b + rho_b * rho_b) * tail - rho_b * np.sqrt(2.0 * t_b / math.pi) * gauss)
    small_branch = j0 + gamma_b * j1

    out = np.where(small, small_branch, big_branch)
    if out.ndim == 0:
        return float(out)
    return out


def zeta_constant(gamma: float) -> float:
    """Normalizing constant zeta(gamma) = J(gamma, 0, 1) of the zero-range bridge.

    zeta(gamma) = (1/gamma) [ e^{gamma^2/2} erfc(-gamma/sqrt(2)) - 1 ],
    with zeta(0) = sqrt(2/pi).  Positive and increasing in gamma.
    """
    _require(math.isfinite(gamma), "gamma must be finite")
    if abs(gamma) < 1e-6:
        # series: zeta = sqrt(2/pi) + gamma/2 + O(gamma^2)
        return math.sqrt(2.0 / math.pi) + 0.5 * gamma
    if gamma < 0.0:
        # erfcx form never overflows on this side
        val = (erfcx(-gamma / math.sqrt(2.0)) - 1.0) / gamma
    else:
        val = (2.0 * math.exp(0.5 * gamma * gamma) - erfcx(gamma / math.sqrt(2.0)) - 1.0) / gamma
    return float(val)
