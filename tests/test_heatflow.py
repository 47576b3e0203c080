"""Crank-Nicolson evolution of the tilted heat flow and its report tables."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from polymer_lab import heatflow
from polymer_lab.cli import _write_csv, _write_json
from polymer_lab.heatflow import (
    ConvergenceTable,
    NonConvergedError,
    StepperConfig,
    duality_gap,
    evolve_partition,
    evolve_point_source,
    verify_poten_family,
    verify_prop1,
    verify_prop3,
)


class TestEvolution:
    def test_free_flow_reproduces_heat_kernel(self, ball):
        profiles = evolve_point_source(ball, 0.0, [0.5, 1.0])
        r = np.linspace(0.1, 3.0, 13)
        for prof in profiles:
            exact = np.exp(-r * r / (2.0 * prof.t)) / (2.0 * math.pi * prof.t) ** 1.5
            assert np.max(np.abs(prof.interp(r) / exact - 1.0)) < 2e-4

    def test_free_flow_conserves_mass(self, ball):
        prof = evolve_point_source(ball, 0.0, [1.0])[0]
        mass = np.trapezoid(4.0 * math.pi * prof.grid**2 * prof.values, prof.grid)
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_partition_is_one_without_coupling(self, ball):
        prof = evolve_partition(ball, 0.0, [1.0])[0]
        assert np.max(np.abs(prof.values - 1.0)) < 1e-10

    def test_partition_bounded_below_by_one(self, ball):
        # Z is an exponential moment of a nonnegative functional
        prof = evolve_partition(ball, 1.0, [1.0])[0]
        assert np.all(prof.values >= 1.0 - 1e-9)
        assert prof.interp(0.0) > 1.5

    def test_point_source_mass_equals_partition_value(self, ball):
        assert duality_gap(ball, 1.0, 1.0) < 1e-4

    def test_duality_gap_forwards_config_to_both_runs(self, ball, monkeypatch):
        seen = []

        def recording(evolve):
            def run(v, beta, times, cfg=None):
                seen.append((evolve.__name__, cfg))
                return evolve(v, beta, times, cfg)
            return run

        for name in ("evolve_point_source", "evolve_partition"):
            monkeypatch.setattr(heatflow, name, recording(getattr(heatflow, name)))
        cfg = StepperConfig.auto_point_source(ball, 1.0, 1.0)
        assert duality_gap(ball, 1.0, 1.0, cfg) < 1e-4
        assert seen == [("evolve_point_source", cfg), ("evolve_partition", cfg)]

    def test_profile_interp_hits_nodes(self, ball):
        prof = evolve_partition(ball, 1.0, [1.0])[0]
        k = len(prof.grid) // 3
        assert prof.interp(float(prof.grid[k])) == pytest.approx(
            float(prof.values[k]), rel=1e-12
        )

    def test_halving_check_accepts_default_schedule(self, ball):
        evolve_point_source(ball, 1.0, [0.5], verify_dt=True)

    def test_halving_check_rejects_coarse_schedule(self, ball):
        cfg = StepperConfig(L=8.0, h=0.25, t0=0.01, dt0=0.25, growth=1.0, dt_max=0.25)
        with pytest.raises(NonConvergedError, match="halving dt"):
            evolve_point_source(ball, 4.0, [1.0], cfg=cfg, verify_dt=True)


class TestGradedMesh:
    """The T = 400 runs that verify_prop1 and verify_prop3 read far out."""

    @pytest.fixture(scope="class")
    def free_profile(self, ball):
        return evolve_point_source(ball, 0.0, [400.0])[0]

    def test_far_field_matches_heat_kernel(self, free_profile):
        T = 400.0
        r = np.array([0.25, 0.5, 1.0, 2.0]) * math.sqrt(T)
        exact = np.exp(-r * r / (2.0 * T)) / (2.0 * math.pi * T) ** 1.5
        assert np.max(np.abs(free_profile.interp(r) / exact - 1.0)) < 2e-4

    def test_partition_stays_one_at_long_horizon(self, ball):
        prof = evolve_partition(ball, 0.0, [400.0])[0]
        assert np.max(np.abs(prof.values - 1.0)) < 1e-10

    def test_grid_is_graded_with_uniform_start(self, ball, free_profile):
        h = StepperConfig.auto_point_source(ball, 0.0, 400.0).h
        grid = free_profile.grid
        assert grid.size < 6000
        np.testing.assert_allclose(grid[:3], [0.0, h, 2.0 * h], rtol=0, atol=1e-15)

    def test_one_factorization_per_step_size(self, ball, monkeypatch):
        calls = {"dpttrf": 0, "dpttrs": 0}

        def counted(name):
            original = getattr(heatflow, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(heatflow, name, counted(name))
        stops = [100.0, 400.0]
        cfg = StepperConfig.auto_point_source(ball, 1.0, stops[-1])
        evolve_point_source(ball, 1.0, stops, cfg)
        startup = math.ceil(math.log(cfg.dt_max / cfg.dt0) / math.log(cfg.growth))
        assert calls["dpttrf"] <= startup + len(stops) + 1
        assert calls["dpttrf"] < calls["dpttrs"] / 5

    def test_cn_run_matches_dense_crank_nicolson(self, ball):
        # the scheme, not the LAPACK routine: every step of the same schedule
        # solved densely on the assembled M -/+ (dt/2) A
        cfg = StepperConfig(L=4.0, h=0.02, dt0=0.01, growth=2.0, dt_max=0.04)
        nodes = heatflow._mesh(ball, cfg)
        r = nodes[1:-1]
        assert 150 < r.size < 250
        beta, bc_right, stops = 1.0, 0.5, [0.13, 0.3]
        u0 = r * (1.0 + np.exp(-r * r))
        got = heatflow._cn_run(ball, beta, nodes, u0, 0.0, stops, cfg, bc_right)

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
            evolve_point_source(ball, 50.0, [1.0], cfg)


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
            evolve_point_source(ball, 1.0, [0.005], cfg=cfg)


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
        monkeypatch.setattr(heatflow, "evolve_point_source", lambda *a, **k: calls.append(a))
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
