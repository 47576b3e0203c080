"""Compactly supported radial potential profiles.

A potential is stored as a piecewise constant function of the radius:
``grid`` holds m+1 increasing cell edges starting at 0, ``values`` holds
the m nonnegative cell values, and v vanishes identically beyond the last
edge.  Piecewise constancy keeps indicator wells exact, and any profile a
caller cares about can be supplied on a fine grid.

The CSV interchange format mirrors the storage: one ``r,v`` row per cell
edge, where each row's v is the value on the cell starting at that r and
the final row closes the support with v = 0.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadialPotential",
    "scaled_ball_potential",
    "unit_ball_potential",
]


@dataclass(frozen=True)
class RadialPotential:
    """Piecewise constant v(r) >= 0 supported on [0, grid[-1]]."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.size < 2:
            raise ValueError("grid needs at least two edges")
        if v.shape != (g.size - 1,):
            raise ValueError("values must have one entry per cell (len(grid) - 1)")
        if g[0] != 0.0 or np.any(np.diff(g) <= 0.0):
            raise ValueError("grid must start at 0 and increase strictly")
        if np.any(v < 0.0) or not np.all(np.isfinite(v)):
            raise ValueError("potential values must be finite and nonnegative")
        if not np.any(v > 0.0):
            raise ValueError("potential is identically zero")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    @property
    def r_support(self) -> float:
        return float(self.grid[-1])

    @property
    def v_max(self) -> float:
        return float(np.max(self.values))

    def __call__(self, r):
        """Evaluate v at radii r; right-continuous at cell edges, 0 outside."""
        r = np.asarray(r, dtype=float)
        idx = np.searchsorted(self.grid, r, side="right") - 1
        inside = (idx >= 0) & (idx < self.values.size) & (r <= self.grid[-1])
        out = np.where(inside, self.values[np.clip(idx, 0, self.values.size - 1)], 0.0)
        if out.ndim == 0:
            return float(out)
        return out

    def cumulative(self, r):
        """int_0^r v(s) ds, elementwise; piecewise linear and exact."""
        r = np.asarray(r, dtype=float)
        cum = np.concatenate(([0.0], np.cumsum(self.values * np.diff(self.grid))))
        rc = np.clip(r, 0.0, self.grid[-1])
        out = np.interp(rc, self.grid, cum)
        if out.ndim == 0:
            return float(out)
        return out

    def cell_averages(self, edges: np.ndarray) -> np.ndarray:
        """Exact averages of v over the cells of another edge partition."""
        edges = np.asarray(edges, dtype=float)
        if np.any(np.diff(edges) <= 0.0):
            raise ValueError("edges must increase strictly")
        c = self.cumulative(edges)
        return np.diff(c) / np.diff(edges)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", "v"])
            for r, v in zip(self.grid[:-1], self.values):
                writer.writerow([repr(float(r)), repr(float(v))])
            writer.writerow([repr(float(self.grid[-1])), repr(0.0)])

    @classmethod
    def from_csv(cls, path) -> "RadialPotential":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"potential file {str(path)!r} is empty")
            if [h.strip() for h in header] != ["r", "v"]:
                raise ValueError(
                    f"potential file {str(path)!r} line 1: expected header 'r,v', got {header!r}"
                )
            rows = []
            for row in reader:
                try:
                    # unpacking also fails unless the row has exactly two cells
                    r, v = map(float, row)
                except ValueError:
                    raise ValueError(
                        f"potential file {str(path)!r} line {reader.line_num}: expected "
                        f"two numbers r,v, got {row!r}"
                    ) from None
                rows.append((r, v))
        if len(rows) < 2:
            raise ValueError(f"potential file {str(path)!r} needs at least two rows")
        if rows[-1][1] != 0.0:
            raise ValueError(f"potential file {str(path)!r}: last row must close the support with v = 0")
        g = np.array([r for r, _ in rows])
        v = np.array([val for _, val in rows[:-1]])
        return cls(grid=g, values=v)


def scaled_ball_potential(eps: float, gamma: float = 0.0) -> RadialPotential:
    """Shrinking well v(r) = (pi^2/(8 eps^2) + gamma/eps) on r <= eps.

    At coupling beta = 1 the family is slightly supercritical with effective
    zero-range coupling tending to gamma as eps -> 0; gamma = 0 recovers an
    exactly critical well for every eps.
    """
    if not (eps > 0.0 and math.isfinite(eps)):
        raise ValueError("eps must be positive and finite")
    square = 8.0 * eps * eps  # 0 once eps * eps underflows
    height = (math.pi**2 / square if square > 0.0 else math.inf) + gamma / eps
    if not math.isfinite(height):
        raise ValueError(f"the well height is not finite at eps = {eps!r}, gamma = {gamma!r}")
    if height <= 0.0:
        raise ValueError("gamma makes the well nonpositive at this eps")
    return RadialPotential(grid=np.array([0.0, eps]), values=np.array([height]))


def unit_ball_potential() -> RadialPotential:
    """The reference well (pi^2/8) 1_{r <= 1}, critical exactly at beta = 1."""
    return scaled_ball_potential(1.0, 0.0)
