"""Acceptance gate: one test per release criterion, run with ``pytest -v``.

Each test carries its tolerance and wall-clock budget inline.  Two criteria
contain demands the arithmetic provably cannot meet; those are split into a
passing part covering the attainable range and a strict xfail documenting
the measured floor, so a silent improvement would surface as a failure.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest
from scipy.integrate import simpson

from bromwich import ContourSpec, kernel_integral_with_noise
from polymer_lab import heatflow, montecarlo, spectral, zerorange
from polymer_lab.laplace import kernel_closed_form, zbar_correction
from polymer_lab.zerorange import ZeroRangeParams, marginal_radial, pbar_sphere_mean

GAMMA1_EXACT = 8.0 * math.sqrt(2.0) / math.pi**2
C_EXACT = math.pi**2 / 8.0
CURVATURE_EXACT = math.pi**4 / 128.0


def test_criterion_01_critical_coupling(ball):
    started = time.monotonic()
    beta_cr = spectral.critical_beta(ball)
    elapsed = time.monotonic() - started
    assert abs(beta_cr - 1.0) < 1e-12
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_criterion_02_expansion_constants(ball, ball_summary):
    started = time.monotonic()
    # the exact route: round-off, not model bias
    assert ball_summary.gamma1 == pytest.approx(GAMMA1_EXACT, rel=1e-12)
    assert ball_summary.c == pytest.approx(C_EXACT, rel=1e-12)
    assert abs(2.0 * math.pi * ball_summary.kappa - 1.0) < 1e-12
    assert ball_summary.psi.at_origin == pytest.approx(math.pi / 2.0, rel=1e-12)
    # the fitted route carries the expansion's truncation bias
    fit = spectral.gamma1_via_expansion(ball, beta_cr=ball_summary.beta_cr)
    assert fit.gamma1 == pytest.approx(GAMMA1_EXACT, rel=2e-2)
    assert time.monotonic() - started < 30.0


def test_criterion_03_quadratic_eigenvalue_growth(ball, ball_summary):
    started = time.monotonic()
    deltas = np.array([0.01, 0.02, 0.03, 0.04])
    lams = np.array(
        [spectral.principal_eigenvalue(ball, ball_summary.beta_cr + d) for d in deltas]
    )
    assert np.all(lams > 0.0)
    slope, _ = np.polyfit(np.log(deltas), np.log(lams), 1)
    assert slope == pytest.approx(2.0, abs=0.05)
    coeff = float(np.mean(lams / deltas**2))
    assert coeff == pytest.approx(CURVATURE_EXACT, rel=5e-2)
    assert time.monotonic() - started < 30.0


_GRID = list(itertools.product((-2.0, 0.0, 1.0, 2.0), (0.1, 1.0, 5.0), (0.1, 0.5, 1.0)))
# saddle-to-contour cancellation at the two far-field short-time cells
_ROUND_OFF_CELLS = {(g, 5.0, 0.1) for g in (-2.0, 0.0, 1.0, 2.0)}


@pytest.fixture(scope="module")
def invariance_grid():
    # the Bromwich quadrature oracle at its default apex and at twice that
    out = {}
    for g, rho, t in _GRID:
        base, _ = kernel_integral_with_noise(g, rho, t, ContourSpec.for_kernel(g, rho, t))
        moved, _ = kernel_integral_with_noise(
            g, rho, t, ContourSpec.for_kernel(g, rho, t, apex_scale=2.0)
        )
        out[(g, rho, t)] = (base, moved)
    return out


def test_criterion_04_closed_form_matches_quadrature(invariance_grid):
    # production's closed form against the test-side quadrature oracle
    for (g, rho, t), (base, _) in invariance_grid.items():
        closed = kernel_closed_form(g, rho, t)
        scale = max(abs(closed), 1e-300)
        assert abs(base - closed) / scale < 1e-6, (g, rho, t)


def test_criterion_04_contour_invariance_attainable(invariance_grid):
    for cell, (base, moved) in invariance_grid.items():
        if cell in _ROUND_OFF_CELLS:
            continue
        assert abs(moved - base) / max(abs(base), 1e-300) < 1e-8, cell


@pytest.mark.xfail(
    strict=True,
    reason="rho = 5, t = 0.1 doubles the apex into a region where the "
    "integrand oscillates at ~1e9 times the result; the round-off floor "
    "there measures 6e-4 relative, and no node count can push double "
    "precision below it.  The attainable-subset test covers the rest.",
)
def test_criterion_04_contour_invariance_full_grid(invariance_grid):
    for cell, (base, moved) in invariance_grid.items():
        assert abs(moved - base) / max(abs(base), 1e-300) < 1e-8, cell


def _zbar_vec(gamma, t, r):
    if t == 0.0:
        return np.ones_like(r)
    return 1.0 + zbar_correction(gamma, r, t) / r


def test_criterion_05_kernel_identities():
    started = time.monotonic()
    y = np.linspace(0.0, 30.0, 60001)

    # mass under the terminal reweighting
    for gamma, t, ry in [(1.0, 0.3, 0.5), (-2.0, 0.7, 1.2), (2.4674011002723395, 0.5, 0.3)]:
        p = ZeroRangeParams(gamma)
        vals = np.empty_like(y)
        vals[1:] = (
            4.0 * math.pi * y[1:] ** 2
            * pbar_sphere_mean(p, t, ry, y[1:])
            * _zbar_vec(gamma, 1.0 - t, y[1:])
        )
        vals[0] = (
            2.0 * kernel_closed_form(gamma, ry, t) * zbar_correction(gamma, 0.0, 1.0 - t) / ry
        )
        lhs = simpson(vals, x=y)
        rhs = zerorange.zbar(p, 1.0, (ry, 0.0, 0.0))
        assert abs(lhs / rhs - 1.0) < 1e-4, (gamma, t, ry)

    # composition of sphere means
    for gamma, t, s, rx, rz in [(1.0, 0.4, 0.35, 0.7, 1.1), (-2.0, 0.25, 0.5, 1.3, 0.4)]:
        p = ZeroRangeParams(gamma)
        vals = np.empty_like(y)
        vals[1:] = (
            4.0 * math.pi * y[1:] ** 2
            * pbar_sphere_mean(p, t, rx, y[1:])
            * pbar_sphere_mean(p, s, y[1:], rz)
        )
        vals[0] = (
            kernel_closed_form(gamma, rx, t) * kernel_closed_form(gamma, rz, s)
            / (math.pi * rx * rz)
        )
        lhs = simpson(vals, x=y)
        rhs = pbar_sphere_mean(p, t + s, rx, rz)
        assert abs(lhs / rhs - 1.0) < 1e-3, (gamma, t, s)

    # flowing the time-s marginal through the bridged transition
    for gamma, s, t in [(1.0, 0.3, 0.8), (-2.0, 0.25, 1.0)]:
        p = ZeroRangeParams(gamma)
        ds = marginal_radial(p, s, grid=y).values
        dt_target = marginal_radial(p, t, grid=y).values
        delta = t - s
        js0 = zbar_correction(gamma, 0.0, 1.0 - s)
        zs = _zbar_vec(gamma, 1.0 - s, y[1:])
        for rx in (0.3, 0.9, 1.8):
            zbx = float(_zbar_vec(gamma, 1.0 - t, np.array([rx]))[0])
            flow = (
                4.0 * math.pi * rx * rx
                * pbar_sphere_mean(p, delta, y[1:], rx)
                * zbx / zs
            )
            vals = np.empty_like(y)
            vals[1:] = ds[1:] * flow
            vals[0] = ds[0] * 2.0 * rx * kernel_closed_form(gamma, rx, delta) * zbx / js0
            got = simpson(vals, x=y)
            want = float(np.interp(rx, y, dt_target))
            assert abs(got / want - 1.0) < 1e-3, (gamma, s, t, rx)

    # marginals carry unit mass
    for gamma in (-2.0, 0.0, 1.0, 2.4674011002723395):
        for t in (0.3, 1.0):
            m = marginal_radial(ZeroRangeParams(gamma), t)
            assert abs(m.integral() - 1.0) < 1e-3, (gamma, t)

    assert time.monotonic() - started < 60.0


def test_criterion_06_density_convergence(ball):
    for chi in (0.0, 1.0):
        table = heatflow.verify_prop1(ball, chi, T_list=(25.0, 100.0, 400.0))
        assert table.strictly_decreasing, (chi, table.rows)


def test_criterion_07_partition_convergence(ball):
    for chi in (0.0, 1.0):
        table = heatflow.verify_prop3(ball, chi, T_list=(25.0, 100.0, 400.0))
        assert table.strictly_decreasing, (chi, table.rows)


@pytest.fixture(scope="module")
def literal_sweep_reports(ball):
    reports = {}
    for k, chi in enumerate((0.0, 2.0)):
        reports[chi] = montecarlo.verify_theorem2(
            ball, chi, (25.0, 100.0, 400.0), (0.5, 1.0),
            n=50_000, seed=k,
        )
    return reports


def test_criterion_08_path_measure_inconclusive_by_analysis(literal_sweep_reports):
    # the importance weights' second moment grows like
    # exp((lam(2 beta) - 2 lam(beta)) T); at these horizons that passes
    # n^2 long before T = 400, so no realized sample of this size can
    # resolve the limit law.  The honest verdict is inconclusive, and the
    # report must say so rather than manufacture a pass.
    for chi, rep in literal_sweep_reports.items():
        assert rep.inconclusive, chi
        assert rep.passed is None, chi
        assert min(rep.ess.values()) < 0.01 * 50_000, chi


@pytest.mark.xfail(
    strict=True,
    reason="with coupling beta_cr + chi / sqrt(T) the weight tails put the "
    "needed evidence beyond any 50k-path ensemble at T >= 25 (measured ESS "
    "ratio below 1e-2 on every horizon); the verdict is inconclusive, not a "
    "pass.  The subcritical control below shows the machinery passing where "
    "passing is possible.",
)
def test_criterion_08_path_measure_literal_pass(literal_sweep_reports):
    for chi, rep in literal_sweep_reports.items():
        assert rep.passed is True, chi


def test_criterion_08_path_measure_subcritical_control(ball):
    started = time.monotonic()
    # doubled coupling still below beta_cr keeps the weights tame, and
    # against the exact Wiener law the KS ladder must both shrink and
    # land under threshold
    rep = montecarlo.verify_theorem2(
        ball, 0.0, (25.0, 100.0, 400.0), (0.5, 1.0),
        n=20_000, seed=0, beta_override=0.4, model="wiener",
    )
    assert not rep.inconclusive
    assert rep.passed is True
    for t, flags in rep.per_time.items():
        assert flags["decreasing"] and flags["final_below"], (t, flags)
    assert time.monotonic() - started < 300.0


def test_criterion_09_narrow_well_family():
    for gamma in (0.0, 0.5):
        table = heatflow.verify_poten_family(gamma)
        assert table.parameter == "eps"
        assert len(table.rows) == 3
        assert table.strictly_decreasing, (gamma, table.rows)


def test_criterion_10_sampler_agrees_with_pde(ball, ball_summary):
    started = time.monotonic()
    beta = ball_summary.beta_cr
    T = 25.0
    t_rec = 12.5

    # marginal at an interior time factorizes into forward flow times the
    # partition function of the remaining window
    r = np.linspace(0.0, 4.0 * math.sqrt(t_rec) + 2.0, 4097)
    w = heatflow.point_source(ball, beta, t_rec, r)
    Z = heatflow.partition(ball, beta, T - t_rec, r)
    dens = 4.0 * math.pi * r**2 * w * Z
    mass = np.trapezoid(dens, r)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(r))])
    cdf /= mass
    quartiles = [float(np.interp(q, cdf, r)) for q in (0.25, 0.5, 0.75)]

    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        e = montecarlo.sample_weighted_paths(
            ball, beta, T, 0.01, 50_000, seed=0, record_times=[t_rec]
        )
    radii = np.linalg.norm(e.positions[:, 0, :], axis=1)
    weights = np.exp(e.log_weights - e.log_weights.max())
    W = weights.sum()
    for q, r_q in zip((0.25, 0.5, 0.75), quartiles):
        inside = radii <= r_q
        p_hat = float(weights[inside].sum() / W)
        se = math.sqrt(float(np.sum((weights / W) ** 2 * (inside - p_hat) ** 2)))
        z = (p_hat - q) / se
        assert abs(z) < 2.0, f"q={q}: p_hat={p_hat:.4f} se={se:.4f} z={z:+.2f}"
    assert time.monotonic() - started < 300.0
