"""Radial grids, densities, and spherically averaged Gaussian kernels.

All the measures compared in this package are spherically symmetric, so a
one-dimensional density of the radial coordinate is the common currency
between closed-form marginals, PDE profiles, and weighted path ensembles.
The Maxwell law's erf is the package's own (:mod:`._special`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import erf

__all__ = [
    "RadialDensity",
    "default_radial_grid",
    "density_cdf",
    "wiener_radial_cdf",
    "gauss_sphere_integral",
]


def default_radial_grid(rmax: float = 8.0, n: int = 2048) -> np.ndarray:
    """Radii from 0 to rmax, crowded toward the origin.

    The first quarter of the points covers [0, rmax/16] geometrically
    (interaction terms behave like 1/r there), the rest is uniform.
    """
    if not (rmax > 0.0 and n >= 32):
        raise ValueError("need rmax > 0 and n >= 32")
    n_in = n // 4
    inner = np.geomspace(rmax * 1e-4, rmax / 16.0, n_in)
    outer = np.linspace(rmax / 16.0, rmax, n - n_in)
    grid = np.concatenate(([0.0], inner[:-1], outer))
    return grid


@dataclass(frozen=True)
class RadialDensity:
    """Density of the radial coordinate on an increasing grid starting at 0."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if g[0] != 0.0 or np.any(np.diff(g) <= 0.0):
            raise ValueError("grid must start at 0 and increase strictly")
        if np.any(v < 0.0) or not np.all(np.isfinite(v)):
            raise ValueError("density values must be finite and nonnegative")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    def integral(self) -> float:
        return float(np.trapezoid(self.values, self.grid))

    def require_normalized(self, tol: float = 1e-3) -> None:
        total = self.integral()
        if abs(total - 1.0) > tol:
            raise ValueError(f"marginal integrates to {total:.6f}, outside 1 +- {tol}")

    def cdf(self) -> np.ndarray:
        """Cumulative distribution on the grid, clipped to [0, 1]."""
        return np.clip(_cumulative_trapezoid(self.grid, self.values), 0.0, 1.0)


def _cumulative_trapezoid(grid, values) -> np.ndarray:
    """Trapezoid integral of values along their last axis, from grid[0] to every node.

    Each running sum starts at 0 and is scipy.integrate.cumulative_trapezoid's
    own expression, so the two agree bit for bit.
    """
    x, y = np.asarray(grid), np.asarray(values)
    c = np.cumsum(np.diff(x) * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)
    return np.concatenate((np.zeros(c.shape[:-1] + (1,)), c), axis=-1)


def density_cdf(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Trapezoid CDF of each unnormalized density along the last axis, rescaled to end at 1."""
    c = _cumulative_trapezoid(grid, values)
    total = c[..., -1:]
    if np.any(total <= 0.0):
        raise ValueError("density integrates to zero")
    return c / total


def wiener_radial_cdf(r, t: float):
    """P(|B_t| <= r) for a standard 3-d Brownian motion, elementwise in r.

    F(r) = erf(r/sqrt(2t)) - sqrt(2/pi) (r/sqrt(t)) e^{-r^2/2t}.
    """
    if not t > 0.0:
        raise ValueError("t must be > 0")
    r = np.asarray(r, dtype=float)
    z = r / math.sqrt(t)
    out = erf(z / math.sqrt(2.0)) - math.sqrt(2.0 / math.pi) * z * np.exp(-0.5 * z * z)
    if out.ndim == 0:
        return float(out)
    return out


def gauss_sphere_integral(t: float, r_from, r_to):
    """Surface integral of the Gaussian kernel over directions.

    S(t, a, b) = int_{S^2} (2 pi t)^{-3/2} e^{-|a e - b omega|^2 / 2t} domega
               = ( e^{-(a-b)^2/2t} - e^{-(a+b)^2/2t} ) / (a b sqrt(2 pi t)),

    independent of the unit vector e.  The a -> 0 (or b -> 0) limit is
    4 pi (2 pi t)^{-3/2} e^{-b^2/2t}.  Broadcasts over r_from and r_to.
    """
    if not t > 0.0:
        raise ValueError("t must be > 0")
    a = np.asarray(r_from, dtype=float)
    b = np.asarray(r_to, dtype=float)
    # factor the difference of Gaussians: e^{-(a-b)^2/2t} (1 - e^{-2ab/t}),
    # then (1 - e^{-u})/u is smooth through u = 0, covering the origin limit
    u = 2.0 * a * b / t
    small = u < 1e-8
    u_safe = np.where(small, 1.0, u)
    factor = np.where(small, 1.0 - 0.5 * u, -np.expm1(-u_safe) / u_safe)
    out = (
        np.exp(-((a - b) ** 2) / (2.0 * t))
        * factor
        * 2.0
        / (t * math.sqrt(2.0 * math.pi * t))
    )
    if out.ndim == 0:
        return float(out)
    return out
