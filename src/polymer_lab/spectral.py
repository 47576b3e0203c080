"""Spectral constants of the operator (1/2) Laplacian + beta v.

For a compactly supported radial well the s-wave reduction u = r psi turns
the three-dimensional eigenproblem into

    (1/2) u'' + beta v(r) u = lam u,   u(0) = 0,

so everything here is one-dimensional.  The module delivers the constants
that parametrize the critical window of the polymer measure:

  * beta_cr, the smallest coupling with a zero-energy resonance,
  * psi, the resonance profile normalized to look like 1/r at infinity,
  * gamma1, the slope constant of the square-root eigenvalue expansion
    1/beta_0(lam) = 1/beta_cr - gamma1 sqrt(lam) + O(lam),
  * kappa = 1/(beta_cr int v psi), and c = sqrt(2)/(beta_cr^2 gamma1),
    the factor mapping a window offset chi to the zero-range coupling.

Every well is piecewise constant, so on each cell u'' = q u with constant
q = 2 (lam - beta v) has an exact cos/sin, cosh/sinh or linear solution,
and (u, u') at the support edge R is a product of 2x2 transfer matrices.
One quantity carries every matching condition: the Pruefer angle theta of
(u, u') at R, the continuous angle of atan2(u, u') started at theta(0) = 0.
It passes a multiple of pi exactly where u has a zero, increases with beta,
and decreases with lam (Sturm comparison).  Outside the well a zero-energy
solution is linear and a bound state decays like e^{-sqrt(2 lam) r}, so

  * the resonance at beta_cr is theta = pi/2 (u'(R) = 0, u > 0 throughout),
  * a bound state exists iff theta(lam = 0) > pi/2, i.e. iff the zero-energy
    solution has a zero in (0, R) or u'(R) < 0,
  * the ground state is the node-free solution of u'(R) + sqrt(2 lam) u(R) = 0,
    i.e. theta = pi/2 + arctan(sqrt(2 lam)).

Each condition is monotone in the unknown, so brentq finds the unique root
of its bracket, and no mesh, box or step size enters any constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from .potentials import RadialPotential

__all__ = [
    "PsiFunction",
    "SpectralSummary",
    "ExpansionFit",
    "BracketError",
    "FitQualityError",
    "critical_beta",
    "ground_state_psi",
    "principal_eigenvalue",
    "beta0_of_lambda",
    "gamma1_via_expansion",
    "compute_summary",
    "gamma_of_chi",
    "alpha_of_f",
]


class BracketError(RuntimeError):
    """Root bracketing failed; the potential is outside the solver's reach."""


class FitQualityError(RuntimeError):
    """Regression diagnostics reject the square-root expansion fit."""


# psi is tabulated on this many equally spaced nodes over [0, R]
_PSI_NODES = 8193

# Gauss-Legendre rule for the per-cell overlap integrals.  At beta_cr the
# zero-energy solution is node-free, so every cell spans less than half a
# wavelength (k h < pi) and 16 nodes integrate u r and u^2 to round-off.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


# ---------------------------------------------------------------------------
# exact cell-by-cell propagation


def _sweep(v: RadialPotential, beta: float, lam: float):
    """Propagate u(0) = 0, u'(0) = 1 across the cells of v exactly.

    Returns (states, zeros): states[i] = (u, u', log_norm) at edge i, where
    the true (u, u') is (u, u') * exp(log_norm) -- each state is rescaled to
    unit length before the next cell, so cosh growth cannot overflow -- and
    zeros counts the zeros of u in (0, R].
    """
    u, du, log_norm, zeros = 0.0, 1.0, 0.0, 0
    states = [(u, du, log_norm)]
    for h, val in zip(np.diff(v.grid).tolist(), v.values.tolist()):
        q = 2.0 * (lam - beta * val)
        k = math.sqrt(abs(q))
        if q < 0.0:
            # u = rho sin(phi + k s) has a zero in every half-period pi/k
            half_periods = math.floor(k * h / math.pi)
            c, s = math.cos(k * h), math.sin(k * h)
            u_new, du = c * u + (s / k) * du, -k * s * u + c * du
        else:
            # cosh/sinh (or linear) cell divided through by cosh(k h) > 0
            half_periods = 0
            th = math.tanh(k * h) / k if k > 0.0 else h
            u_new, du = u + th * du, q * th * u + du
            log_norm += k * h + math.log1p(math.exp(-2.0 * k * h)) - math.log(2.0)
        # past the whole half-periods at most one zero is left, and a sign
        # test finds it even where k u << u' leaves no resolvable phase
        u_turned = -u if half_periods % 2 else u
        zeros += half_periods + (u_turned * u_new < 0.0 or u_new == 0.0)
        u = u_new
        norm = math.hypot(u, du)
        u, du, log_norm = u / norm, du / norm, log_norm + math.log(norm)
        states.append((u, du, log_norm))
    return states, zeros


def _phase(v: RadialPotential, beta: float, lam: float) -> float:
    """Pruefer angle theta(R) of the regular solution at energy lam."""
    states, zeros = _sweep(v, beta, lam)
    u, du, _ = states[-1]
    return zeros * math.pi + math.atan2(u, du) % math.pi


def _ground_state_gap(v: RadialPotential, beta: float, kappa: float) -> float:
    """theta(R) minus its ground-state value pi/2 + arctan(kappa), lam = kappa^2/2."""
    return _phase(v, beta, 0.5 * kappa * kappa) - 0.5 * math.pi - math.atan(kappa)


def critical_beta(v: RadialPotential) -> float:
    """Smallest coupling at which the well supports a zero-energy resonance.

    The resonance condition is u'(R) = 0 for the node-free zero-energy
    solution: the interior solution then matches a constant exterior u,
    i.e. psi ~ 1/r.  In Pruefer form that is theta(R) = pi/2, which holds
    for exactly one coupling since theta increases with beta.  The bracket
    walks up from zero in small multiples of the well's natural scale.
    """
    def gap(beta: float) -> float:
        return _phase(v, beta, 0.0) - 0.5 * math.pi

    # natural scale: an indicator well of this height and width is critical
    # near (pi^2/8)/(v_max R^2)
    scale = (math.pi**2 / 8.0) / (v.v_max * v.r_support**2)
    lo = 0.0
    hi = 0.5 * scale
    for _ in range(200):
        if gap(hi) > 0.0:
            break
        lo = hi
        hi *= 1.5
    else:
        raise BracketError("no sign change of u'(R) found; is the potential attractive?")
    root = brentq(gap, lo if lo > 0.0 else 1e-12 * hi, hi, xtol=1e-14, rtol=8.9e-16)
    return float(root)


@dataclass(frozen=True)
class PsiFunction:
    """Zero-energy resonance profile with exterior tail 1/r.

    Inside the support the profile is tabulated; outside it continues as
    exactly 1/r (the normalization fixes the exterior coefficient to 1).
    """

    grid: np.ndarray
    values: np.ndarray
    r_support: float

    def __post_init__(self) -> None:
        g = np.asarray(self.grid, dtype=float)
        w = np.asarray(self.values, dtype=float)
        if g.shape != w.shape or g.ndim != 1:
            raise ValueError("grid and values must be matching 1-d arrays")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", w)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        inside = np.interp(r, self.grid, self.values)
        r_safe = np.maximum(r, 1e-300)
        out = np.where(r <= self.r_support, inside, 1.0 / r_safe)
        if out.ndim == 0:
            return float(out)
        return out

    @property
    def at_origin(self) -> float:
        return float(self.values[0])


def _resonance(v: RadialPotential, beta_cr: float):
    """Exact zero-energy solution at beta_cr as (w, psi), w = u/u(R).

    w evaluates anywhere in [0, R]; psi tabulates w/r on _PSI_NODES equally
    spaced nodes.
    """
    states, _ = _sweep(v, beta_cr, 0.0)
    u_e, du_e, log_norm = np.array(states).T
    if not u_e[-1] > 0.0:
        raise BracketError("zero-energy profile lost positivity; beta_cr is off")
    amp = np.exp(log_norm - log_norm[-1]) / u_e[-1]
    last = v.values.size - 1

    def w(r: np.ndarray) -> np.ndarray:
        i = np.clip(np.searchsorted(v.grid, r, side="right") - 1, 0, last)
        k = np.sqrt(2.0 * beta_cr * v.values[i])
        s = r - v.grid[i]
        # sin(k s)/k written as s sinc(k s / pi) so empty cells come out linear
        return amp[i] * (u_e[i] * np.cos(k * s) + du_e[i] * s * np.sinc(k * s / np.pi))

    R = v.r_support
    rs = np.linspace(0.0, R, _PSI_NODES)
    psi = np.empty_like(rs)
    psi[1:] = w(rs[1:]) / rs[1:]
    psi[0] = amp[0]  # the r -> 0 limit u'(0)/u(R), with u'(0) = 1
    return w, PsiFunction(grid=rs, values=psi, r_support=R)


def ground_state_psi(v: RadialPotential, beta_cr: float | None = None) -> PsiFunction:
    """Resonance profile psi = u/r at the critical coupling, with psi ~ 1/r outside."""
    if beta_cr is None:
        beta_cr = critical_beta(v)
    return _resonance(v, beta_cr)[1]


def principal_eigenvalue(v: RadialPotential, beta: float) -> float | None:
    """Principal eigenvalue of (1/2) Laplacian + beta v, or None when absent.

    A bound state exists iff the zero-energy solution has a zero in (0, R)
    or ends with u'(R) < 0 (Sturm oscillation: theta(R) > pi/2 at lam = 0).
    The ground state is then the node-free root of u'(R) + kappa u(R) = 0,
    kappa = sqrt(2 lam), solved in kappa on [0, sqrt(2 beta v_max)]: above
    lam = beta v_max the solution is convex and increasing, so no bound
    state lies there, and the Pruefer form of the condition has exactly one
    root in that range.
    """
    if not _ground_state_gap(v, beta, 0.0) > 0.0:
        return None
    kappa_max = math.sqrt(2.0 * beta * v.v_max)
    kappa = brentq(
        lambda k: _ground_state_gap(v, beta, k), 0.0, kappa_max, xtol=1e-300, rtol=8.9e-16
    )
    return 0.5 * kappa * kappa


def beta0_of_lambda(
    v: RadialPotential, lam: float, beta_cr: float | None = None
) -> float:
    """Coupling beta_0(lam) at which the principal eigenvalue equals lam.

    Solves the ground-state condition u'(R) + sqrt(2 lam) u(R) = 0 of
    principal_eigenvalue in beta instead of lam, so the two round-trip to
    root-finding tolerance.
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError("lam must be positive and finite")
    if beta_cr is None:
        beta_cr = critical_beta(v)
    kappa = math.sqrt(2.0 * lam)

    def gap(beta: float) -> float:
        return _ground_state_gap(v, beta, kappa)

    lo = beta_cr
    if gap(lo) >= 0.0:
        raise BracketError("eigenvalue already above target at beta_cr")
    step = 0.1 * beta_cr
    hi = lo + step
    for _ in range(80):
        if gap(hi) > 0.0:
            break
        hi += step
        step *= 1.6
    else:
        raise BracketError(f"could not bracket beta_0 for lam={lam}")
    return float(brentq(gap, lo, hi, xtol=1e-14, rtol=8.9e-16))


@dataclass(frozen=True)
class ExpansionFit:
    """Least-squares fit of 1/beta_0 = a + b sqrt(lam) + c lam."""

    gamma1: float
    intercept: float
    curvature: float
    r_squared: float
    lambdas: tuple
    betas: tuple


def gamma1_via_expansion(
    v: RadialPotential,
    lambdas: Sequence[float] | None = None,
    beta_cr: float | None = None,
    min_r_squared: float = 0.999,
) -> ExpansionFit:
    """Estimate gamma1 from the square-root expansion of 1/beta_0(lam).

    Fits 1/beta_0 = a + b sqrt(lam) + c lam over a small-lam ladder and
    returns -b.  This route never sees the resonance profile, so it is a
    normalization-free cross-check of the overlap-integral constant.
    """
    if beta_cr is None:
        beta_cr = critical_beta(v)
    if lambdas is None:
        lambdas = np.geomspace(1e-4, 1e-2, 6)
    lam = np.asarray(lambdas, dtype=float)
    if lam.size < 3 or np.any(lam <= 0.0):
        raise ValueError("need at least three positive lambdas")
    betas = np.array([beta0_of_lambda(v, la, beta_cr=beta_cr) for la in lam])
    y = 1.0 / betas
    X = np.column_stack([np.ones_like(lam), np.sqrt(lam), lam])
    coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    if r2 < min_r_squared:
        raise FitQualityError(f"R^2 = {r2:.6f} below {min_r_squared}; expansion fit rejected")
    return ExpansionFit(
        gamma1=float(-coef[1]),
        intercept=float(coef[0]),
        curvature=float(coef[2]),
        r_squared=r2,
        lambdas=tuple(float(x) for x in lam),
        betas=tuple(float(b) for b in betas),
    )


# ---------------------------------------------------------------------------
# the summary bridge: from a potential to the window constants


@dataclass(frozen=True)
class SpectralSummary:
    """Window constants of a potential: the bridge from v to gamma(chi)."""

    beta_cr: float
    psi: PsiFunction
    gamma1: float
    kappa: float
    c: float

    def to_json_dict(self) -> dict:
        return {
            "beta_cr": self.beta_cr,
            "gamma1": self.gamma1,
            "kappa": self.kappa,
            "c": self.c,
            "psi_r_support": self.psi.r_support,
            "psi": [[float(r), float(val)] for r, val in zip(self.psi.grid, self.psi.values)],
        }


def compute_summary(v: RadialPotential) -> SpectralSummary:
    """Critical coupling, resonance profile, and window constants for v.

    gamma1 is the overlap-integral form (int v psi)^2 / (sqrt(2) pi int v psi^2)
    and kappa = 1/(beta_cr int v psi); with psi's exterior coefficient fixed
    to 1 the product beta_cr int v psi equals 2 pi identically (divergence
    theorem on the zero-energy equation), so kappa = 1/(2 pi) for every
    potential.  Both integrals are taken cell by cell on the exact solution
    (psi r^2 = r u/u(R), psi^2 r^2 = (u/u(R))^2), so the identity holds to
    round-off.
    """
    beta_cr = critical_beta(v)
    w, psi = _resonance(v, beta_cr)
    a, h = v.grid[:-1, None], np.diff(v.grid)[:, None]
    x = a + 0.5 * h * (_GL_X + 1.0)  # (cells, nodes), strictly inside each cell
    wx = w(x)
    weights = 0.5 * h * _GL_W * v.values[:, None]
    i_vpsi = 4.0 * math.pi * float(np.sum(weights * wx * x))
    i_vpsi2 = 4.0 * math.pi * float(np.sum(weights * wx * wx))
    gamma1 = float(i_vpsi**2 / (math.sqrt(2.0) * math.pi * i_vpsi2))
    kappa = float(1.0 / (beta_cr * i_vpsi))
    c = math.sqrt(2.0) / (beta_cr**2 * gamma1)
    return SpectralSummary(beta_cr=beta_cr, psi=psi, gamma1=gamma1, kappa=kappa, c=c)


def gamma_of_chi(summary: SpectralSummary, chi: float) -> float:
    """Zero-range coupling gamma = c chi induced by beta(T) = beta_cr + chi/sqrt(T)."""
    if not math.isfinite(chi):
        raise ValueError("chi must be finite")
    return summary.c * chi


def alpha_of_f(
    summary: SpectralSummary, f: Callable[[np.ndarray], np.ndarray], r_max: float | None = None
) -> float:
    """kappa * 4 pi int_0^{r_max} psi(r) f(r) r^2 dr.

    With f = v this is 1/beta_cr by the definition of kappa, up to the
    interpolation error of psi's table.  r_max defaults to the resonance
    support.
    """
    psi = summary.psi
    if r_max is None:
        r_max = psi.r_support
    if isinstance(f, RadialPotential) and r_max >= psi.r_support:
        # between the table nodes and f's edges f is constant and psi linear
        # (1/r past the support), so psi f r^2 is at most cubic and two
        # Gauss-Legendre nodes per piece integrate it exactly
        upper = max(psi.r_support, min(r_max, f.r_support))
        edges = np.union1d(psi.grid, np.append(f.grid[f.grid < upper], upper))
        a, h = edges[:-1, None], np.diff(edges)[:, None]
        x = a + 0.5 * h * (1.0 + np.array([-1.0, 1.0]) / math.sqrt(3.0))
        total = float(np.sum(0.5 * h * f(x) * psi(x) * x * x))
        return summary.kappa * 4.0 * math.pi * total
    grid = np.linspace(0.0, r_max, 8192)
    vals = np.asarray(f(grid), dtype=float) * psi(grid) * grid * grid
    return summary.kappa * 4.0 * math.pi * float(np.trapezoid(vals, grid))
