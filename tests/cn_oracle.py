"""Crank-Nicolson heat flows: the test-side oracle for the resolvent flows.

The package evaluates p(t, 0, r) and Z(t, r) only by inverting their exact
per-cell Laplace transforms (:mod:`polymer_lab.heatflow`).  This module
keeps the independent route those inversions are checked against: a
time-stepped discretization with its own mesh, schedule and start-up
regularization, so agreement between the two is evidence for both.

Both objects are evolved through the substitution u = r f that turns the
radial operator into a flat 1-d one on (0, L) with Dirichlet walls:

  * the fundamental solution p(t, 0, y) started from a point source at the
    origin (regularized by a short free flight t0, with the first-order
    potential factor e^{beta v t0} applied to cut the startup bias), and
  * the partition function Z(t, y), started from the exact initial state
    Z = 1 with the boundary held at 1 where the potential cannot reach.

Space is a graded finite-volume mesh: spacing h out to 1.5 times the
well's support (uniform first cells, so the origin value extrapolates from
u(h), u(2h)), then max(h, a r) with a = 1e-3 out to L, where the profile
spreads over r ~ sqrt(t).  A T = 400 point-source run on the unit ball
needs 4,729 nodes against 41,489 on a uniform grid of the same h.

Crank-Nicolson steps on a geometrically growing time schedule resolve the
t^{-3/2} startup without paying for it at horizon scale.  Past the startup
every step is dt_max.  The step's matrix M - (dt/2) A is symmetric positive
definite wherever Crank-Nicolson is in range, so it gets an LDL^T factor
(LAPACK dpttrf, no pivoting) once per distinct step size, kept with the
right-hand side's coefficients; each step is one tridiagonal product and
one dpttrs solve.  A step that leaves the matrix indefinite raises
ValueError instead of returning an oscillating profile.

The scheme is second order in h and dt, so its gap to the exact flows
shrinks about fourfold per halving of both (tests/test_heatflow.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from polymer_lab.potentials import RadialPotential

__all__ = [
    "Profile",
    "StepperConfig",
    "evolve_point_source",
    "evolve_partition",
]


# outer mesh spacing max(h, a r); a = 1e-3 keeps the free flow at t = 0.5
# within 9.3e-5 of the heat kernel, a = 2e-3 moves it to 1.7e-4 (bound 2e-4)
_SPACING_SLOPE = 1e-3


@dataclass(frozen=True)
class Profile:
    """Radial profile f(r) of one evolved object at one time, on the run's mesh."""

    t: float
    grid: np.ndarray
    values: np.ndarray

    def interp(self, r) -> np.ndarray:
        return np.interp(r, self.grid, self.values)


@dataclass(frozen=True)
class StepperConfig:
    """Grid and schedule knobs for one evolution run.

    L is the box radius and h the finest spacing: the mesh is uniform at h
    out to 1.5 r_support of the well, then spaced max(h, 1e-3 r), with the
    outer nodes stretched to end on L.  t0 is the point-source
    regularization time; the schedule starts at dt0 and grows geometrically
    until dt_max.  growth = 1 freezes a uniform step dt0 (used by
    convergence tests).  Each distinct step size is factored once (LDL^T),
    so a run costs about one factorization per startup step plus one solve
    per step.  dt_max/2 times the flow's growth rate (the top eigenvalue of
    (1/2) Lap + beta v on the mesh) must stay below 1, or the step's matrix
    is not positive definite and the run raises ValueError.
    """

    L: float
    h: float
    t0: float = 1e-3
    dt0: float = 2.5e-4
    growth: float = 1.04
    dt_max: float = 0.05

    def __post_init__(self) -> None:
        ok = (
            self.L > 0.0
            and 0.0 < self.h < self.L / 16.0
            and self.t0 > 0.0
            and self.dt0 > 0.0
            and self.growth >= 1.0
            and self.dt_max >= self.dt0
        )
        if not ok:
            raise ValueError("inconsistent stepper configuration")

    @classmethod
    def auto_point_source(
        cls, v: RadialPotential, beta: float, t_final: float
    ) -> "StepperConfig":
        # t0 keeps the ignored potential action below ~0.3% before the
        # e^{beta v t0} startup factor even enters
        t0 = min(1e-3, 3e-3 / max(beta * v.v_max, 1.0))
        L = 4.0 * math.sqrt(t_final) + max(2.0, 2.0 * v.r_support)
        h = min(v.r_support / 128.0, math.sqrt(t0) / 16.0)
        return cls(L=L, h=h, t0=t0, dt0=t0 / 4.0, growth=1.04, dt_max=t_final / 1500.0)

    @classmethod
    def auto_partition(
        cls, v: RadialPotential, beta: float, t_final: float
    ) -> "StepperConfig":
        L = 4.0 * math.sqrt(t_final) + max(2.0, 2.0 * v.r_support)
        h = min(v.r_support / 128.0, 0.01)
        dt0 = min(1e-5, h * h)
        return cls(L=L, h=h, t0=1e-3, dt0=dt0, growth=1.04, dt_max=t_final / 1500.0)


def _mesh(v: RadialPotential, cfg: StepperConfig) -> np.ndarray:
    """Nodes 0 = r_0 < r_1 < ... < r_n = L of the graded radial mesh.

    Spacing h out to 1.5 r_support (and at least to 2h, for _origin_value),
    then max(h, a r) with a = _SPACING_SLOPE; the nodes past the uniform
    core are stretched so the last lands on L.
    """
    h, L = cfg.h, cfg.L
    core = min(max(math.ceil(1.5 * v.r_support / h), 2), math.ceil(L / h) - 1)
    nodes = list(h * np.arange(core + 1))
    r = nodes[-1]
    while r < L:
        r += max(h, _SPACING_SLOPE * r)
        nodes.append(r)
    nodes = np.array(nodes)
    r_core = nodes[core]
    nodes[core:] = r_core + (nodes[core:] - r_core) * ((L - r_core) / (r - r_core))
    nodes[-1] = L
    return nodes


def _cn_run(
    v: RadialPotential,
    beta: float,
    nodes: np.ndarray,
    u0: np.ndarray,
    t_start: float,
    stops: Sequence[float],
    cfg: StepperConfig,
    bc_right: float,
) -> list[np.ndarray]:
    """Crank-Nicolson from t_start through each stop; returns u at the stops.

    Finite volumes on the interior nodes: M du/dt = A u with the dual-cell
    widths as the diagonal mass M and A symmetric tridiagonal (flux
    1/(2 gap) between neighbours, beta times the cell average of v on the
    diagonal).  On a uniform grid this is the three-point scheme times h.
    Each step solves (M - (dt/2) A) u' = (M + (dt/2) A) u + dt c, c the
    Dirichlet wall term, with the LDL^T factor of the left matrix; a
    factor that is not positive definite raises ValueError naming the step
    and beta.
    """
    gaps = np.diff(nodes)
    mass = 0.5 * (gaps[:-1] + gaps[1:])
    flux = 0.5 / gaps
    q = beta * v.cell_averages(0.5 * (nodes[:-1] + nodes[1:]))
    off = flux[1:-1]
    diag_a = q * mass - flux[:-1] - flux[1:]

    u = u0.copy()
    t = t_start
    dt = cfg.dt0
    out: list[np.ndarray] = []
    # step -> (M + (step/2) A as diagonal and off-diagonal, LDL^T factor of
    # M - (step/2) A); the latest two
    steps: dict[float, tuple] = {}
    for stop in stops:
        while t < stop - 1e-13 * max(1.0, stop):
            step = min(dt, stop - t)
            coeffs = steps.pop(step, None)
            if coeffs is None:
                half = 0.5 * step
                ld, le, info = dpttrf(mass - half * diag_a, -half * off)
                if info > 0:
                    raise ValueError(
                        f"Crank-Nicolson step {step!r} at beta = {beta!r} exceeds the "
                        "scheme's range for this well (M - (dt/2) A is not positive definite)"
                    )
                coeffs = (mass + half * diag_a, half * off, ld, le)
            steps[step] = coeffs
            if len(steps) > 2:
                del steps[next(iter(steps))]
            b_diag, b_off, ld, le = coeffs
            rhs = b_diag * u
            rhs[:-1] += b_off * u[1:]
            rhs[1:] += b_off * u[:-1]
            rhs[-1] += step * flux[-1] * bc_right  # Dirichlet value, both time levels
            u, _ = dpttrs(ld, le, rhs, overwrite_b=1)
            t += step
            dt = min(dt * cfg.growth, cfg.dt_max)
        out.append(u.copy())
    return out


def _origin_value(u: np.ndarray, h: float) -> float:
    # u is odd in r with u(0) = 0: u = a r + b r^3 + ..., so a = (8u1 - u2)/(6h).
    # The extrapolation breaks when h is refined without dt0: halving only h
    # of auto_point_source (dt0/h^2 from 64 to 256) on the well with edges
    # 0, 0.001, 0.5, 1 and values 3, 0, 2 put p(3, 0, 0) at beta 1.5 327% off
    # the resolvent value, while r = 0.3 stayed within 4.3e-6.  An origin
    # check must refine h and dt0 together, and compare away from r = 0.
    return (8.0 * u[0] - u[1]) / (6.0 * h)


def _profiles_from_u(
    us: list[np.ndarray], stops: Sequence[float], r: np.ndarray, h: float
) -> list[Profile]:
    grid = np.concatenate(([0.0], r))
    out = []
    for t, u in zip(stops, us):
        vals = np.concatenate(([_origin_value(u, h)], u / r))
        out.append(Profile(t=float(t), grid=grid, values=vals))
    return out


def evolve_point_source(
    v: RadialPotential,
    beta: float,
    times: Sequence[float],
    cfg: StepperConfig | None = None,
) -> list[Profile]:
    """Fundamental solution profiles w(t, r) ~ p(t, 0, r) at the given times."""
    times = sorted(float(t) for t in times)
    if not times or times[0] <= 0.0:
        raise ValueError("times must be positive")
    if cfg is None:
        cfg = StepperConfig.auto_point_source(v, beta, times[-1])
    if times[0] <= cfg.t0:
        raise ValueError(f"times must exceed the regularization time t0={cfg.t0}")
    nodes = _mesh(v, cfg)
    r = nodes[1:-1]
    w0 = (2.0 * math.pi * cfg.t0) ** -1.5 * np.exp(-r * r / (2.0 * cfg.t0))
    u0 = r * w0 * np.exp(beta * v(r) * cfg.t0)
    us = _cn_run(v, beta, nodes, u0, cfg.t0, times, cfg, bc_right=0.0)
    return _profiles_from_u(us, times, r, cfg.h)


def evolve_partition(
    v: RadialPotential,
    beta: float,
    times: Sequence[float],
    cfg: StepperConfig | None = None,
) -> list[Profile]:
    """Partition function profiles Z(t, r), from the exact start Z = 1."""
    times = sorted(float(t) for t in times)
    if not times or times[0] <= 0.0:
        raise ValueError("times must be positive")
    if cfg is None:
        cfg = StepperConfig.auto_partition(v, beta, times[-1])
    nodes = _mesh(v, cfg)
    r = nodes[1:-1]
    us = _cn_run(v, beta, nodes, r, 0.0, times, cfg, bc_right=cfg.L)
    return _profiles_from_u(us, times, r, cfg.h)
