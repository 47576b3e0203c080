"""Radial heat semigroup with a potential: e^{t((1/2) Lap + beta v)}.

Two objects are evolved, both from the exact resolvent (lam - L)^{-1} of
L = (1/2) Lap + beta v:

  * the fundamental solution p(t, 0, r) started from a point source at the
    origin, and
  * the partition function Z(t, r) = E^r[exp(beta int_0^t v(B_s) ds)].

In u = r f the radial operator is (1/2) u'' + beta v u, and v is constant
on each cell of its grid, so u'' = k^2 u with k^2 = 2 (lam - beta v_k) has
an exact cosh/sinh solution on every cell.  Two solutions are carried
across the cells for each lam: phi from phi(0) = 0, phi'(0) = 1 outward,
and the decaying psi from psi(R) = 1, psi'(R) = -sqrt(2 lam) inward;
outside the well psi = e^{-sqrt(2 lam)(r - R)} exactly.  Each is carried
in the direction it grows, with its scale kept as a separate exponent, so
neither cancels nor overflows.

  * p: the transform is psi(r) / (2 pi r psi(0)), and psi'(0) / (2 pi psi(0))
    at r = 0, where the 1/(2 pi r) pole has no inverse at t > 0.
  * Z - 1: the transform w/r solves (lam - (1/2) d^2/dr^2 - beta v) w =
    beta v r / lam.  On cell k the particular solution is mu_k r with
    mu_k = beta v_k / (lam (lam - beta v_k)), and the phi/psi responses to
    the jumps of mu_k r at the cell edges make w smooth.

Each transform is inverted by fixed Talbot quadrature (Abate-Valko) on
_TALBOT_NODES nodes, with the contour shifted by the exact principal
eigenvalue of L (spectral.principal_eigenvalue), or by 0 when there is
none.  No mesh, time step or setting enters; a non-finite inversion
raises ValueError naming t and beta.  point_source and partition return
the flow at exactly the radii the caller passes, so no grid or
interpolation lies between a flow and its reader.

The verify_* drivers compare finite-horizon output, diffusively rescaled,
against the zero-range limit objects and report error tables over the
horizon ladder; prop1 and prop3 read the flow at their four radii, poten
on 4,097 equally spaced radii out to r = 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import laplace, zerorange
from .potentials import RadialPotential, scaled_ball_potential
from .radial import density_cdf
from .spectral import compute_summary, gamma_of_chi, principal_eigenvalue, window_horizons

__all__ = [
    "ConvergenceTable",
    "point_source",
    "partition",
    "verify_prop1",
    "verify_prop3",
    "verify_poten_family",
]


# Talbot nodes per inversion: M 24 and M 32 agree within 8.4e-10 (p) and
# 1.3e-12 (Z) relative on every ladder point
_TALBOT_NODES = 24

# rescaled radii x at which the horizon ladders compare flow and limit
_X_LIST = (0.25, 0.5, 1.0, 2.0)
# coupling of the narrow-well family, and the radius out to which its
# marginal CDF is formed
_POTEN_BETA = 1.0
_POTEN_R_MAX = 6.0


def _cell_step(u, du, k, s):
    """Carry (u, u') a signed distance s across a cell where u'' = k^2 u.

    Returns the new state divided by e^{k |s|}, and k |s|.  With Re k >= 0
    the divided state stays bounded and the exponent carries the growth.
    """
    a = k * np.abs(s)
    ch = 0.5 * (1.0 + np.exp(-2.0 * a))  # cosh(k s) e^{-a}
    sh = -0.5 * np.sign(s) * np.expm1(-2.0 * a) / k  # sinh(k s) e^{-a} / k
    return ch * u + sh * du, k * k * sh * u + ch * du, a


def _sweep(v: RadialPotential, beta: float, lam: np.ndarray):
    """phi and psi at the cell edges of v, for every lam.

    Returns k per (cell, lam) and two arrays of shape (3, edges, lam): the
    rows u, u', s, where the true state is (u, u') e^s.  The exponent s is
    complex: it keeps the phase divided out with the growth.
    """
    h = np.diff(v.grid)
    m = h.size
    k = np.sqrt(2.0 * (lam - beta * v.values[:, None]))
    phi = np.empty((3, m + 1, lam.size), dtype=complex)
    psi = np.empty_like(phi)
    phi[0, 0], phi[1, 0], phi[2, 0] = 0.0, 1.0, 0.0
    psi[0, m], psi[1, m], psi[2, m] = 1.0, -np.sqrt(2.0 * lam), 0.0
    for i in range(m):
        u, du, a = _cell_step(phi[0, i], phi[1, i], k[i], h[i])
        norm = np.hypot(np.abs(u), np.abs(du))
        phi[:, i + 1] = u / norm, du / norm, phi[2, i] + a + np.log(norm)
    for i in reversed(range(m)):
        u, du, a = _cell_step(psi[0, i + 1], psi[1, i + 1], k[i], -h[i])
        norm = np.hypot(np.abs(u), np.abs(du))
        psi[:, i] = u / norm, du / norm, psi[2, i + 1] + a + np.log(norm)
    return k, phi, psi


def _invert(v: RadialPotential, beta: float, t: float, transform, r: np.ndarray) -> np.ndarray:
    """Fixed Talbot inversion at time t of transform(v, beta, lam, r).

    The transform returns F(lam) per radius of r and per node lam; the
    result is f(t) per radius.  t must be positive and finite, r a 1-d
    array of finite, nonnegative radii.
    """
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"t must be positive and finite, got {t!r}")
    r = np.asarray(r, dtype=float)
    if r.ndim != 1 or not np.all(np.isfinite(r)) or np.any(r < 0.0):
        raise ValueError("radii must be a 1-d array of finite, nonnegative values")
    M = _TALBOT_NODES
    theta = math.pi * np.arange(1, M) / M
    cot = 1.0 / np.tan(theta)
    rho = 0.4 * M / t
    shift = principal_eigenvalue(v, beta) or 0.0
    lam = shift + rho * np.concatenate(([1.0], theta * (cot + 1j)))
    sigma = theta + (theta * cot - 1.0) * cot
    weight = (rho / M) * np.concatenate(([0.5], 1.0 + 1j * sigma))
    # an overflow is reported once, as the ValueError below
    with np.errstate(over="ignore", invalid="ignore"):
        F = transform(v, beta, lam, r)
        values = (F @ (weight * np.exp(lam * t))).real
    if not np.all(np.isfinite(values)):
        raise ValueError(f"t = {t!r}: the flow value is not finite (beta = {beta!r})")
    return values


def _point_source_transform(v: RadialPotential, beta: float, lam: np.ndarray, r: np.ndarray):
    """psi(r) / (2 pi r psi(0)) less its 1/(2 pi r) pole, per radius and node.

    The pole's inverse is supported at t = 0, so dropping it leaves p(t)
    unchanged and spares the quadrature a 1/r term near the origin.  What
    is left, (psi(r) - psi(0)) / (2 pi r psi(0)), is summed cell by cell
    from psi(b) - psi(a) = (2 sinh(k (b - a)/2) / k) psi'((a + b)/2), so
    no difference of nearly equal values is ever formed; at r = 0 it is
    the limit psi'(0) / (2 pi psi(0)).
    """
    k, _, psi = _sweep(v, beta, lam)
    m = k.shape[0]
    u0, du0, s0 = psi[:, 0]
    h = np.diff(v.grid)[:, None]
    # psi(a + s) - psi(a) over psi(0) on cell [a, b]: (1 - e^{-k s}) / k times
    # psi' at a + s/2 carried from b, whose exponent S(b) + k (h - s/2) makes
    # the product's exponent S(b) + k h - s0 for every s
    scale = np.exp(psi[2, 1:] + k * h - s0) / u0

    def rise(c, s):
        _, du, _ = _cell_step(psi[0, c + 1], psi[1, c + 1], k[c], 0.5 * s - h[c])
        return -np.expm1(-k[c] * s) / k[c] * du * scale[c]

    # (psi(edge) - psi(0)) / psi(0) at every edge
    edge_rise = np.zeros((m + 1, lam.size), dtype=complex)
    edge_rise[1:] = np.cumsum(rise(np.arange(m), h), axis=0)
    cell = np.searchsorted(v.grid, r, side="right") - 1  # m past the support
    inside = cell < m
    c = cell[inside]
    ratio_m1 = np.empty((r.size, lam.size), dtype=complex)
    ratio_m1[inside] = edge_rise[c] + rise(c, r[inside, None] - v.grid[c, None])
    # in place, so the radii outside the well (most of a profile's grid)
    # cost one array, not four
    tail = -np.sqrt(2.0 * lam) * (r[~inside, None] - v.r_support)
    np.expm1(tail, out=tail)
    tail *= np.exp(-s0) / u0
    tail += edge_rise[m]
    ratio_m1[~inside] = tail
    origin = r == 0.0
    np.divide(ratio_m1, 2.0 * math.pi * r[:, None], out=ratio_m1, where=~origin[:, None])
    ratio_m1[origin] = du0 / (2.0 * math.pi * u0)
    return ratio_m1


def _partition_transform(v: RadialPotential, beta: float, lam: np.ndarray, r: np.ndarray):
    """w(r)/r, the transform of Z - 1, per radius and node; mu_0 + w'(0) at r = 0.

    w = mu_k r + (sum of c1_j over edges above r) phi + (sum of c2_j over
    edges at or below r) psi, where edge j's coefficients answer the jump
    dmu_j of mu r there: c1_j = dmu_j (g_j psi' - psi)/W and
    c2_j = dmu_j (g_j phi' - phi)/W at g_j, W = phi psi' - phi' psi.
    P and Q hold those sums in the scale of the cell's own edge.
    """
    k, phi, psi = _sweep(v, beta, lam)
    m = k.shape[0]
    bv = beta * v.values[:, None]
    mu = np.zeros((m + 1, lam.size), dtype=complex)  # no particular beyond R
    mu[:m] = bv / (lam * (lam - bv))
    dmu = np.diff(mu, axis=0)
    g = v.grid[1:, None]
    pu, pdu, qu, qdu = phi[0, 1:], phi[1, 1:], psi[0, 1:], psi[1, 1:]
    wronskian = pu * qdu - pdu * qu
    c1 = dmu * (g * qdu - qu) / wronskian
    c2 = dmu * (g * pdu - pu) / wronskian
    P = np.zeros_like(mu)
    Q = np.zeros_like(mu)
    for c in reversed(range(m)):
        P[c] = (c1[c] + P[c + 1]) * np.exp(phi[2, c] - phi[2, c + 1])
    for c in range(1, m + 1):
        Q[c] = Q[c - 1] * np.exp(psi[2, c] - psi[2, c - 1]) + c2[c - 1]

    cell = np.searchsorted(v.grid, r, side="right") - 1  # m past the support
    inside = cell < m
    c, ri = cell[inside], r[inside, None]
    up, _, ap = _cell_step(phi[0, c], phi[1, c], k[c], ri - v.grid[c, None])
    uq, _, aq = _cell_step(psi[0, c + 1], psi[1, c + 1], k[c], ri - v.grid[c + 1, None])
    w = np.empty((r.size, lam.size), dtype=complex)
    w[inside] = (mu[c] * ri + up * P[c] * np.exp(ap)
                 + uq * Q[c] * np.exp(psi[2, c + 1] + aq - psi[2, c]))
    w[~inside] = Q[m] * np.exp(-np.sqrt(2.0 * lam) * (r[~inside, None] - v.r_support))
    origin = r == 0.0
    np.divide(w, r[:, None], out=w, where=~origin[:, None])
    w[origin] = mu[0] + P[0]
    return w


def point_source(v: RadialPotential, beta: float, t: float, r) -> np.ndarray:
    """p(t, 0, r) at the radii r, for t > 0."""
    return _invert(v, beta, t, _point_source_transform, r)


def partition(v: RadialPotential, beta: float, t: float, r) -> np.ndarray:
    """Z(t, r) at the radii r, for t > 0."""
    return 1.0 + _invert(v, beta, t, _partition_transform, r)


@dataclass(frozen=True)
class ConvergenceTable:
    """Error ladder over a parameter, plus the context that produced it."""

    parameter: str
    rows: tuple
    meta: dict = field(default_factory=dict)

    @property
    def errors(self) -> list[float]:
        return [e for _, e in self.rows]

    @property
    def strictly_decreasing(self) -> bool:
        e = self.errors
        return len(e) >= 2 and all(b < a for a, b in zip(e, e[1:]))


def _horizon_ladder(
    v: RadialPotential, chi: float, T_list: Sequence[float], t: float, target, observe,
) -> ConvergenceTable:
    """Sup error over _X_LIST, per horizon T, of a rescaled flow against its limit.

    observe(beta, T, r) is the flow at beta = beta_cr + chi/sqrt(T), read at
    r = x sqrt(T); target(summary, gamma, x) is the zero-range limit, which
    is checked for finiteness before any flow runs, and so are t and T_list.
    """
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"t must be positive and finite, got {t!r}")
    T_list = window_horizons(T_list)
    summary = compute_summary(v)
    gamma = gamma_of_chi(summary, chi)
    xs = np.asarray(_X_LIST, dtype=float)
    want = target(summary, gamma, xs)
    if not np.all(np.isfinite(want)):
        raise ValueError(f"the limit value is not finite (chi = {chi!r}, gamma = {gamma!r})")
    rows = []
    for T in T_list:
        beta = summary.beta_cr + chi / math.sqrt(T)
        got = observe(beta, T, xs * math.sqrt(T))
        err = float(np.max(np.abs(got - want)))
        if not math.isfinite(err):
            raise ValueError(
                f"T = {T!r}: the flow value is not finite (chi = {chi!r}, gamma = {gamma!r})"
            )
        rows.append((T, err))
    return ConvergenceTable(
        parameter="T",
        rows=tuple(rows),
        meta={"chi": chi, "gamma": gamma, "t": t, "x_list": list(map(float, xs))},
    )


def verify_prop3(
    v: RadialPotential,
    chi: float,
    T_list: Sequence[float] = (25.0, 100.0, 400.0),
    t: float = 1.0,
) -> ConvergenceTable:
    """Partition-function convergence Z_{beta(T), tT}(x sqrt(T)) -> Zbar_gamma,t(x).

    Returns the sup error over x in (0.25, 0.5, 1, 2) for each horizon T;
    the window coupling is beta(T) = beta_cr + chi/sqrt(T).
    """
    return _horizon_ladder(
        v, chi, T_list, t,
        lambda summary, gamma, xs: 1.0 + laplace.zbar_correction(gamma, xs, t) / xs,
        lambda beta, T, r: partition(v, beta, t * T, r),
    )


def verify_prop1(
    v: RadialPotential,
    chi: float,
    T_list: Sequence[float] = (25.0, 100.0, 400.0),
    t: float = 1.0,
) -> ConvergenceTable:
    """Fundamental-solution convergence T p_{beta(T)}(tT, 0, x sqrt(T)) -> limit.

    The limit density is kappa psi(0) I_gamma(t, x)/x, with every factor
    taken from v's spectral summary and the closed form of the kernel; the
    sup error runs over x in (0.25, 0.5, 1, 2).
    """
    return _horizon_ladder(
        v, chi, T_list, t,
        lambda summary, gamma, xs: summary.kappa * summary.psi.at_origin
        * laplace.kernel_closed_form(gamma, xs, t) / xs,
        lambda beta, T, r: T * point_source(v, beta, t * T, r),
    )


def verify_poten_family(
    gamma: float,
    eps_list: Sequence[float] = (0.5, 0.25, 0.125),
    t: float = 1.0,
) -> ConvergenceTable:
    """Zero-range limit of shrinking wells at fixed coupling and horizon.

    For each eps, evolves the point source under the scaled well at
    coupling 1, forms the one-time radial marginal at time t out to r = 6,
    and reports its Kolmogorov distance to the zero-range marginal with
    coupling gamma.  Horizons t < 1 would need the partition-function
    reweighting; t = 1 is the bare density.
    """
    if t != 1.0:
        raise ValueError("only the t = 1 marginal is wired up; reweight externally")
    params = zerorange.ZeroRangeParams(gamma=gamma)
    model = zerorange.marginal_radial(params, t)
    r = np.linspace(0.0, _POTEN_R_MAX, 4097)
    model_cdf = np.interp(r, model.grid, model.cdf())
    rows = []
    for eps in eps_list:
        v = scaled_ball_potential(eps, gamma)
        dens = point_source(v, _POTEN_BETA, t, r) * r * r  # 4 pi absorbed by normalization
        cdf = density_cdf(r, dens)
        dist = float(np.max(np.abs(cdf - model_cdf)))
        if not math.isfinite(dist):
            raise ValueError(f"eps = {eps!r}: the flow's marginal is not finite (gamma = {gamma!r})")
        rows.append((float(eps), dist))
    return ConvergenceTable(
        parameter="eps",
        rows=tuple(rows),
        meta={"gamma": gamma, "t": t, "beta": _POTEN_BETA},
    )
