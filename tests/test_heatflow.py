"""Resolvent heat flows, the Crank-Nicolson oracle they are checked against,
and the report tables."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

import cn_oracle
from cn_oracle import StepperConfig
from polymer_lab import heatflow
from polymer_lab.cli import _write_csv, _write_json
from polymer_lab.heatflow import (
    ConvergenceTable,
    partition,
    point_source,
    verify_poten_family,
    verify_prop1,
    verify_prop3,
)
from polymer_lab.potentials import RadialPotential, scaled_ball_potential
from polymer_lab.spectral import critical_beta

# three cells of different heights, so every cell has its own k
CELLS = RadialPotential(np.array([0.0, 0.3, 0.7, 1.2]), np.array([1.5, 0.4, 0.9]))


def _heat_kernel(r, t):
    return np.exp(-r * r / (2.0 * t)) / (2.0 * math.pi * t) ** 1.5


def _radii(t):
    # 4,097 equally spaced radii out to 4 sqrt(t) + 2, past the unit ball
    return np.linspace(0.0, 4.0 * math.sqrt(t) + 2.0, 4097)


class TestEvolution:
    def test_free_flow_reproduces_heat_kernel(self, ball):
        # the Talbot rule's own accuracy: r <= 2 sqrt(t), where the kernel is
        # at least e^{-2} of its peak, over six decades of t
        for t in (0.01, 0.1, 1.0, 25.0, 400.0, 6400.0):
            grid = _radii(t)
            grid = grid[grid <= 2.0 * math.sqrt(t)]
            exact = _heat_kernel(grid, t)
            assert np.max(np.abs(point_source(ball, 0.0, t, grid) / exact - 1.0)) < 1e-9, t
        # out to r^2 / 2t = 9: linear interpolation between the 4,097 radii
        # dominates, the inversion itself stays within 1e-8
        r = np.linspace(0.1, 3.0, 13)
        for t in (0.5, 1.0):
            grid = _radii(t)
            exact = _heat_kernel(r, t)
            interp = np.interp(r, grid, point_source(ball, 0.0, t, grid))
            assert np.max(np.abs(interp / exact - 1.0)) < 1e-5, t
            assert np.max(np.abs(point_source(ball, 0.0, t, r) / exact - 1.0)) < 1e-7, t

    def test_free_flow_tail_error_is_absolute(self, ball):
        # Talbot's error is about fixed in absolute terms, so in the tail it
        # is bounded against the peak, not the local value: over every grid
        # radius, out to r^2 / 2t = 18 at t = 1 and 288 at t = 0.01
        for t in (0.01, 0.1, 1.0, 25.0, 400.0, 6400.0):
            grid = _radii(t)
            err = np.max(np.abs(point_source(ball, 0.0, t, grid) - _heat_kernel(grid, t)))
            assert err < 1e-9 * _heat_kernel(0.0, t), t

    def test_narrow_well_tail_is_node_independent(self, monkeypatch):
        # the narrow-well density that verify_poten_family integrates out to
        # r = 6 at t = 1: 24 and 32 Talbot nodes agree against its peak
        v = scaled_ball_potential(0.125, 0.0)
        r = np.linspace(0.0, 6.0, 601)
        coarse = point_source(v, 1.0, 1.0, r)
        monkeypatch.setattr(heatflow, "_TALBOT_NODES", 32)
        fine = point_source(v, 1.0, 1.0, r)
        assert np.max(np.abs(coarse - fine)) < 1e-9 * np.max(fine)

    def test_free_flow_conserves_mass(self, ball):
        # trapezoid on 4,097 radii out to r = 6
        grid = _radii(1.0)
        mass = np.trapezoid(4.0 * math.pi * grid**2 * point_source(ball, 0.0, 1.0, grid), grid)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_partition_is_one_without_coupling(self, ball):
        z = partition(ball, 0.0, 1.0, _radii(1.0))
        assert np.max(np.abs(z - 1.0)) < 1e-10

    def test_partition_bounded_below_by_one(self, ball):
        # Z is an exponential moment of a nonnegative functional
        z = partition(ball, 1.0, 1.0, _radii(1.0))
        assert np.all(z >= 1.0 - 1e-9)
        assert z[0] > 1.5

    def test_point_source_mass_equals_partition_value(self, ball):
        # 4 pi int p(t, 0, r) r^2 dr = Z(t, 0): both sides are the expected
        # Gibbs weight from the origin, from two different transforms.  p is
        # smooth on each cell, so Gauss-Legendre per cell integrates it
        x, w = np.polynomial.legendre.leggauss(64)
        for v in (ball, CELLS):
            for beta, t in ((1.0, 1.0), (1.3, 4.0)):
                edges = np.concatenate((v.grid, [3.0, v.r_support + 12.0 * math.sqrt(t)]))
                mass = 0.0
                for a, b in zip(edges[:-1], edges[1:]):
                    r = a + 0.5 * (b - a) * (x + 1.0)
                    p = point_source(v, beta, t, r)
                    mass += 4.0 * math.pi * 0.5 * (b - a) * np.sum(w * p * r * r)
                [z0] = partition(v, beta, t, np.array([0.0]))
                assert abs(mass / z0 - 1.0) < 1e-9, (v.grid, beta, t)

    def test_non_finite_inversion_raises(self, ball):
        # e^{lam0 t} with lam0 about 1233 overflows a double
        with pytest.raises(ValueError, match=r"t = 1\.0: the flow value is not finite \(beta = 1000\.0\)"):
            point_source(ball, 1000.0, 1.0, _radii(1.0))

    @pytest.mark.parametrize("flow", [point_source, partition])
    @pytest.mark.parametrize("t", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_bad_time(self, ball, flow, t):
        # without the check t = -1 returned 1095 for p at r = 0.5
        with pytest.raises(ValueError, match="t must be positive and finite"):
            flow(ball, 1.0, t, np.array([0.5]))

    @pytest.mark.parametrize("flow", [point_source, partition])
    @pytest.mark.parametrize(
        "r", [[-0.5], [0.5, math.nan], [math.inf], [[0.5, 1.0]], 0.5],
        ids=["negative", "nan", "inf", "2-d", "scalar"],
    )
    def test_rejects_bad_radii(self, ball, flow, r):
        # without the check r = -0.5 gave p = -0.078 and Z = 0.52 < 1
        with pytest.raises(ValueError, match="radii must be a 1-d array"):
            flow(ball, 1.0, 1.0, r)


class TestOracleGate:
    """Crank-Nicolson converges to the resolvent flow at second order."""

    @pytest.mark.parametrize("well", ["ball", "cells"])
    def test_partition_gap_quarters_per_halving(self, ball, well):
        # h and the whole time schedule halved twice: the oracle's relative
        # Z gap at the ladder radii must shrink 3.5-4.5 fold each time
        v = ball if well == "ball" else CELLS
        beta_cr = critical_beta(v)
        for chi in (0.0, 1.0):
            for T in (25.0, 100.0, 400.0):
                beta = beta_cr + chi / math.sqrt(T)
                r = np.array([0.25, 0.5, 1.0, 2.0]) * math.sqrt(T)
                exact = partition(v, beta, T, r)
                base = StepperConfig.auto_partition(v, beta, T)
                gaps = []
                for f in (1.0, 0.5, 0.25):
                    cfg = StepperConfig(
                        L=base.L, h=f * base.h, t0=base.t0, dt0=f * base.dt0,
                        growth=1.0 + f * (base.growth - 1.0), dt_max=f * base.dt_max,
                    )
                    [z] = cn_oracle.evolve_partition(v, beta, [T], cfg)
                    gaps.append(float(np.max(np.abs(z.interp(r) / exact - 1.0))))
                ratios = [a / b for a, b in zip(gaps, gaps[1:])]
                assert all(3.5 <= q <= 4.5 for q in ratios), (chi, T, gaps)


class TestGradedMesh:
    """The T = 400 runs that verify_prop1 and verify_prop3 read far out."""

    def test_far_field_matches_heat_kernel(self, ball):
        T = 400.0
        r = np.array([0.25, 0.5, 1.0, 2.0]) * math.sqrt(T)
        exact = _heat_kernel(r, T)
        assert np.max(np.abs(point_source(ball, 0.0, T, r) / exact - 1.0)) < 1e-9
        # linear interpolation between 4,097 radii adds (h^2/8) |f''|, h = 82/4096
        grid = _radii(T)
        interp = np.interp(r, grid, point_source(ball, 0.0, T, grid))
        assert np.max(np.abs(interp / exact - 1.0)) < 1e-6

    def test_partition_stays_one_at_long_horizon(self, ball):
        z = partition(ball, 0.0, 400.0, _radii(400.0))
        assert np.max(np.abs(z - 1.0)) < 1e-10

    def test_grid_is_graded_with_uniform_start(self, ball):
        h = StepperConfig.auto_point_source(ball, 0.0, 400.0).h
        grid = cn_oracle.evolve_point_source(ball, 0.0, [400.0])[0].grid
        assert grid.size < 6000
        np.testing.assert_allclose(grid[:3], [0.0, h, 2.0 * h], rtol=0, atol=1e-15)

    def test_one_factorization_per_step_size(self, ball, monkeypatch):
        calls = {"dpttrf": 0, "dpttrs": 0}

        def counted(name):
            original = getattr(cn_oracle, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(cn_oracle, name, counted(name))
        stops = [100.0, 400.0]
        cfg = StepperConfig.auto_point_source(ball, 1.0, stops[-1])
        cn_oracle.evolve_point_source(ball, 1.0, stops, cfg)
        startup = math.ceil(math.log(cfg.dt_max / cfg.dt0) / math.log(cfg.growth))
        assert calls["dpttrf"] <= startup + len(stops) + 1
        assert calls["dpttrf"] < calls["dpttrs"] / 5

    def test_cn_run_matches_dense_crank_nicolson(self, ball):
        # the scheme, not the LAPACK routine: every step of the same schedule
        # solved densely on the assembled M -/+ (dt/2) A
        cfg = StepperConfig(L=4.0, h=0.02, dt0=0.01, growth=2.0, dt_max=0.04)
        nodes = cn_oracle._mesh(ball, cfg)
        r = nodes[1:-1]
        assert 150 < r.size < 250
        beta, bc_right, stops = 1.0, 0.5, [0.13, 0.3]
        u0 = r * (1.0 + np.exp(-r * r))
        got = cn_oracle._cn_run(ball, beta, nodes, u0, 0.0, stops, cfg, bc_right)

        gaps = np.diff(nodes)
        mass = np.diag(0.5 * (gaps[:-1] + gaps[1:]))
        flux = 0.5 / gaps
        q = beta * ball.cell_averages(0.5 * (nodes[:-1] + nodes[1:]))
        a = (np.diag(q * np.diag(mass) - flux[:-1] - flux[1:])
             + np.diag(flux[1:-1], 1) + np.diag(flux[1:-1], -1))
        wall = np.zeros(r.size)
        wall[-1] = flux[-1] * bc_right  # A's coupling to the Dirichlet value
        u, t, dt, want, sizes = u0, 0.0, cfg.dt0, [], set()
        for stop in stops:
            while t < stop - 1e-13 * max(1.0, stop):
                step = min(dt, stop - t)
                sizes.add(step)
                u = np.linalg.solve(mass - 0.5 * step * a,
                                    (mass + 0.5 * step * a) @ u + step * wall)
                t += step
                dt = min(dt * cfg.growth, cfg.dt_max)
            want.append(u)
        assert len(sizes) >= 4  # start-up growth, dt_max and two clipped steps
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) < 1e-12 * np.max(np.abs(w))

    def test_step_beyond_crank_nicolson_range_raises(self, ball):
        # the well's growth rate z/dt is about 45 at beta 50, so z/2 > 1: M -
        # (dt/2) A is indefinite and the CN factor (1 + z/2)/(1 - z/2) is below -1
        cfg = StepperConfig(L=8.0, h=0.05, t0=1e-3, dt0=0.1, growth=1.0, dt_max=0.1)
        with pytest.raises(ValueError, match="Crank-Nicolson step 0.1 at beta = 50.0"):
            cn_oracle.evolve_point_source(ball, 50.0, [1.0], cfg)


class TestConfigValidation:
    def test_spatial_resolution_floor(self):
        # fewer than 16 cells across the box cannot resolve anything
        with pytest.raises(ValueError, match="stepper configuration"):
            StepperConfig(L=8.0, h=0.5)

    def test_schedule_ordering(self):
        with pytest.raises(ValueError, match="stepper configuration"):
            StepperConfig(L=8.0, h=0.1, dt0=0.1, dt_max=0.05)
        with pytest.raises(ValueError, match="stepper configuration"):
            StepperConfig(L=8.0, h=0.1, growth=0.9)

    def test_times_inside_regularized_window(self, ball):
        cfg = StepperConfig(L=8.0, h=0.25, t0=0.01)
        with pytest.raises(ValueError, match="regularization time"):
            cn_oracle.evolve_point_source(ball, 1.0, [0.005], cfg=cfg)


class TestReports:
    def test_prop3_table(self, ball):
        tab = verify_prop3(ball, 1.0, T_list=(9.0, 25.0))
        assert tab.parameter == "T"
        assert [row[0] for row in tab.rows] == [9.0, 25.0]
        assert tab.errors == [row[1] for row in tab.rows]
        assert tab.strictly_decreasing
        assert {"chi", "gamma", "t", "x_list"} <= set(tab.meta)

    def test_prop1_table(self, ball):
        tab = verify_prop1(ball, 0.5, T_list=(9.0, 25.0))
        assert tab.parameter == "T"
        assert len(tab.rows) == 2
        assert tab.strictly_decreasing
        assert all(err > 0.0 for err in tab.errors)

    def test_non_finite_limit_raises_before_any_flow(self, ball, monkeypatch):
        # at chi 40 (gamma 49.3) the limit kernel overflows; the T-independent
        # limit is checked before the first horizon's flow would run
        calls = []
        monkeypatch.setattr(heatflow, "_invert", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match=r"the limit value is not finite \(chi = 40\.0"):
            verify_prop1(ball, 40.0, T_list=(25.0, 100.0))
        assert calls == []

    def test_poten_family_table(self):
        tab = verify_poten_family(0.5, eps_list=(0.5, 0.25))
        assert tab.parameter == "eps"
        assert [row[0] for row in tab.rows] == [0.5, 0.25]
        assert tab.strictly_decreasing

    def test_poten_family_only_unit_horizon(self):
        with pytest.raises(ValueError, match="t = 1"):
            verify_poten_family(0.5, t=0.5)


class TestConvergenceTable:
    def test_monotonicity_flag(self):
        down = ConvergenceTable("T", ((1.0, 0.5), (2.0, 0.2)))
        up = ConvergenceTable("T", ((1.0, 0.5), (2.0, 0.6)))
        assert down.strictly_decreasing
        assert not up.strictly_decreasing
        assert down.errors == [0.5, 0.2]
        # below two rows nothing has decreased
        assert not ConvergenceTable("T", ((1.0, 0.5),)).strictly_decreasing
        assert not ConvergenceTable("T", ()).strictly_decreasing

    def test_serialization_round_trip(self, tmp_path):
        tab = ConvergenceTable("eps", ((0.5, 0.25), (0.25, 0.0625)), meta={"beta": 1.0})
        jpath = tmp_path / "table.json"
        _write_json(jpath, dataclasses.asdict(tab))
        d = json.loads(jpath.read_text())
        assert list(d) == ["parameter", "rows", "meta"]
        assert d["parameter"] == "eps"
        assert d["rows"] == [[0.5, 0.25], [0.25, 0.0625]]
        assert d["meta"] == {"beta": 1.0}

        cpath = tmp_path / "table.csv"
        _write_csv(cpath, (tab.parameter, "error"), tab.rows)
        lines = cpath.read_text().splitlines()
        assert lines[0] == "eps,error"
        assert lines[1].startswith("0.5,")
        assert cpath.read_bytes() == b"eps,error\r\n0.5,0.25\r\n0.25,0.0625\r\n"
