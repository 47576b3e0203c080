"""Point-interaction kernels on the unit time interval.

The point functions evaluate the closed forms of the kernels; they are
pinned against 50-digit reference values.  Then the semigroup structure is
verified through identities that the closed forms must satisfy together:
total-mass conservation under the reweighted flow, Chapman-Kolmogorov for
the sphere means, marginalization of the two-time density, and continuity
of the bridged transition at the origin.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from polymer_lab import zerorange
from polymer_lab._streams import seed_pcg64, spawn_words
from polymer_lab.laplace import kernel_closed_form, zbar_correction, zeta_constant
from polymer_lab.radial import RadialDensity, default_radial_grid
from polymer_lab.zerorange import (
    GridExhaustionError,
    ZeroRangeParams,
    _interaction_beyond,
    _inverse_cdf,
    _kern_beyond,
    _step_rows,
    _tables,
    _walk,
    fdd_density,
    marginal_radial,
    pbar,
    pbar_sphere_mean,
    sample_paths,
    transition_R,
    transition_R0,
    zbar,
)

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# resolvent coupling at the critical chi for the unit ball family
GAMMA_CR = 2.4674011002723395


class TestFrozenValues:
    """Spot values pinned to 50-digit references, rounded to the nearest double.

    Regenerating: evaluate the same formulas in 50-digit arithmetic (for
    example with mpmath), with I from its erfc closed form and J as the time
    integral of I, then round to double.  The package's closed forms agree
    with those references to 7e-16 relative.
    """

    def test_pbar_interacting(self):
        p = ZeroRangeParams(1.0)
        got = pbar(p, 0.4, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        assert got == pytest.approx(0.021428297301625182, rel=1e-14)

    def test_pbar_free_coupling(self):
        p = ZeroRangeParams(0.0)
        got = pbar(p, 0.4, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        assert got == pytest.approx(0.021278182603846427, rel=1e-14)

    def test_zbar_positive_gamma(self):
        p = ZeroRangeParams(1.0)
        got = zbar(p, 0.3, (0.5, 0.0, 0.0))
        assert got == pytest.approx(1.2850840339472005, rel=1e-14)

    def test_zbar_negative_gamma(self):
        p = ZeroRangeParams(-2.0)
        got = zbar(p, 1.0, (0.3, 0.4, 0.0))
        assert got == pytest.approx(1.3676261530889442, rel=1e-14)

    def test_transition(self):
        p = ZeroRangeParams(1.0)
        got = transition_R(p, 0.2, 0.7, (0.6, 0.0, 0.0), (0.0, 0.8, 0.0))
        assert got == pytest.approx(0.061517917956765165, rel=1e-14)

    def test_transition_from_origin(self):
        p = ZeroRangeParams(1.0)
        got = transition_R0(p, 0.5, (1.0, 0.0, 0.0))
        assert got == pytest.approx(0.030767699673767378, rel=1e-14)

    def test_two_time_density(self):
        p = ZeroRangeParams(1.0)
        got = fdd_density(
            p, 1.0, (0.1, 0.0, 0.0), (0.3, 0.8), [(0.5, 0.0, 0.0), (0.0, 0.2, 0.0)]
        )
        assert got == pytest.approx(0.32506022439830473, rel=1e-14)


def _zbar_vec(gamma: float, t: float, r: np.ndarray) -> np.ndarray:
    return 1.0 + zbar_correction(gamma, r, t) / r


class TestSemigroupIdentities:
    @pytest.mark.parametrize(
        "gamma,s,t,ry",
        [
            (1.0, 0.0, 0.3, 0.5),
            (-2.0, 0.0, 0.7, 1.2),
            (1.0, 0.2, 0.9, 0.8),
            (GAMMA_CR, 0.0, 0.5, 0.3),
        ],
    )
    def test_reweighted_mass_conservation(self, gamma, s, t, ry):
        # integral over y of 4 pi y^2 mean(t-s; ry, y) Zbar(1-t, y)
        # must reproduce Zbar(1-s, ry): the partition function is the
        # kernel's own mass under the terminal reweighting.  The y = 0
        # node is the product of the two 1/y singular prefactors.
        p = ZeroRangeParams(gamma)
        y = np.linspace(0.0, 30.0, 60001)
        vals = np.empty_like(y)
        vals[1:] = (
            4.0
            * math.pi
            * y[1:] ** 2
            * pbar_sphere_mean(p, t - s, ry, y[1:])
            * _zbar_vec(gamma, 1.0 - t, y[1:])
        )
        vals[0] = (
            2.0 * kernel_closed_form(gamma, ry, t - s) * zbar_correction(gamma, 0.0, 1.0 - t) / ry
        )
        lhs = simpson(vals, x=y)
        rhs = zbar(p, 1.0 - s, (ry, 0.0, 0.0))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    @pytest.mark.parametrize(
        "gamma,t,s,rx,rz",
        [(1.0, 0.4, 0.35, 0.7, 1.1), (-2.0, 0.25, 0.5, 1.3, 0.4)],
    )
    def test_chapman_kolmogorov_sphere_means(self, gamma, t, s, rx, rz):
        # sphere averaging projects onto the isotropic sector, where the
        # kernels still compose; the y = 0 node is again the analytic
        # limit of the singular parts.
        p = ZeroRangeParams(gamma)
        y = np.linspace(0.0, 30.0, 60001)
        vals = np.empty_like(y)
        vals[1:] = (
            4.0
            * math.pi
            * y[1:] ** 2
            * pbar_sphere_mean(p, t, rx, y[1:])
            * pbar_sphere_mean(p, s, y[1:], rz)
        )
        vals[0] = (
            kernel_closed_form(gamma, rx, t)
            * kernel_closed_form(gamma, rz, s)
            / (math.pi * rx * rz)
        )
        lhs = simpson(vals, x=y)
        assert lhs == pytest.approx(pbar_sphere_mean(p, t + s, rx, rz), rel=1e-9)

    def test_two_time_density_marginalizes(self):
        # integrating the (t1, t2) density over the second point must give
        # back the t1 density.  The angular integral of the free part is a
        # Gauss-Legendre sum; the interaction part is isotropic.
        gamma = 1.0
        p = ZeroRangeParams(gamma)
        x0, x1 = (0.1, 0.0, 0.0), (0.5, 0.0, 0.0)
        t1, t2 = 0.3, 0.8
        dt = t2 - t1
        r1 = np.linalg.norm(x1)

        f1 = fdd_density(p, 1.0, x0, (t1,), [x1])

        mu, wmu = np.polynomial.legendre.leggauss(96)
        r = np.linspace(1e-6, 12.0, 6001)
        d2 = r1 * r1 + r[:, None] ** 2 - 2.0 * r1 * r[:, None] * mu[None, :]
        ang = (
            np.exp(-d2 / (2.0 * dt)) / (2.0 * math.pi * dt) ** 1.5 * wmu[None, :]
        ).sum(axis=1) / 2.0
        inter = kernel_closed_form(gamma, r1 + r, dt) / (2.0 * math.pi * r1 * r)
        integrand = 4.0 * math.pi * r * r * (ang + inter) * _zbar_vec(gamma, 1.0 - t2, r)
        lhs = f1 * np.trapezoid(integrand, r) / zbar(p, 1.0 - t1, x1)
        assert lhs == pytest.approx(f1, rel=1e-5)

    def test_transition_continuous_at_origin(self):
        # R(0, t, y, x) -> R0(t, x) as y -> 0, quadratically
        p = ZeroRangeParams(1.0)
        x = (0.4, 0.3, 0.0)
        ref = transition_R0(p, 0.7, x)
        devs = []
        for eps in (1e-2, 1e-3):
            got = transition_R(p, 0.0, 0.7, (eps, 0.0, 0.0), x)
            devs.append(abs(got / ref - 1.0))
        assert devs[1] < 1e-5
        assert 30.0 < devs[0] / devs[1] < 300.0

    def test_marginal_is_origin_transition_times_shell_area(self):
        p = ZeroRangeParams(1.0)
        m = marginal_radial(p, 0.5)
        for k in (3, 64, 700, 1500):
            r = float(m.grid[k])
            want = 4.0 * math.pi * r * r * transition_R0(p, 0.5, (r, 0.0, 0.0))
            assert m.values[k] == pytest.approx(want, rel=1e-12)


class TestRadialMarginal:
    @pytest.mark.parametrize("gamma", [-2.0, 0.0, 1.0, GAMMA_CR])
    @pytest.mark.parametrize("t", [0.3, 0.5, 1.0])
    def test_unit_mass(self, gamma, t):
        m = marginal_radial(ZeroRangeParams(gamma), t)
        assert isinstance(m, RadialDensity)
        assert m.integral() == pytest.approx(1.0, abs=1e-3)

    def test_origin_density_positive_before_terminal_time(self):
        # the terminal reweighting 1/|x| concentrates mass near the
        # origin for t < 1; at t = 1 the shell factor wins again
        for gamma in (-2.0, 1.0):
            p = ZeroRangeParams(gamma)
            assert marginal_radial(p, 0.3).values[0] > 0.0
            assert marginal_radial(p, 1.0).values[0] == 0.0

    def test_origin_mass_grows_with_coupling(self):
        cdf_half, d0 = [], []
        for gamma in (-2.0, 0.0, 1.0, GAMMA_CR):
            m = marginal_radial(ZeroRangeParams(gamma), 0.5)
            cdf_half.append(float(np.interp(0.5, m.grid, m.cdf())))
            d0.append(float(m.values[0]))
        assert all(a < b for a, b in zip(cdf_half, cdf_half[1:]))
        assert all(a < b for a, b in zip(d0, d0[1:]))

    @pytest.mark.parametrize("gamma", [1.0, 20.0, 37.4])
    @pytest.mark.parametrize("t", [0.3, 0.5, 1.0])
    def test_scaled_route_matches_plain_product(self, gamma, t):
        # the overflow fallback against the plain product where that is a
        # finite, normal double (below ~1e-200 the plain product passes
        # through subnormals on the way and loses digits)
        m = marginal_radial(ZeroRangeParams(gamma), t)
        got = zerorange._scaled_marginal(gamma, m.grid, t)
        ok = m.values > 1e-200
        assert np.max(np.abs(got[ok] / m.values[ok] - 1.0)) < 1e-11
        assert got[~ok].max(initial=0.0) < 1e-190

    def test_far_tail_keeps_its_digits(self):
        # at gamma 37.4, t 0.3 the plain product's first factors, (2/zeta) r I,
        # underflow before Z(1 - t, r) scales them back up (a density of
        # 6.8e-229 came out 0); those elements come from the scaled route
        m = marginal_radial(ZeroRangeParams(37.4), 0.3)
        want = zerorange._scaled_marginal(37.4, m.grid, 0.3)
        ok = want >= np.finfo(float).tiny
        assert np.all(np.abs(m.values[ok] / want[ok] - 1.0) <= 1e-12)

    def test_far_tail_fix_leaves_other_elements_alone(self):
        # at t 0.5 no partial product underflows: every body element is
        # the plain product, bit for bit
        gamma, t = 37.4, 0.5
        m = marginal_radial(ZeroRangeParams(gamma), t)
        r = m.grid[1:]
        plain = (2.0 / zeta_constant(gamma)) * r * kernel_closed_form(gamma, r, t) \
            * _zbar_vec(gamma, 1.0 - t, r)
        assert np.array_equal(m.values[1:], plain)

    def test_custom_grid(self):
        grid = np.linspace(0.0, 10.0, 2001)
        m = marginal_radial(ZeroRangeParams(1.0), 0.5, grid=grid)
        assert np.array_equal(m.grid, grid)
        assert m.integral() == pytest.approx(1.0, abs=1e-3)


class TestValidation:
    def setup_method(self):
        self.p = ZeroRangeParams(1.0)

    def test_times_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            fdd_density(self.p, 1.0, (0.1, 0, 0), (0.8, 0.3), [(1, 0, 0), (0, 1, 0)])

    def test_times_must_fit_horizon(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            fdd_density(self.p, 1.0, (0.1, 0, 0), (0.3, 1.2), [(1, 0, 0), (0, 1, 0)])
        with pytest.raises(ValueError, match="strictly increasing"):
            fdd_density(self.p, 1.0, (0.1, 0, 0), (0.0, 0.5), [(1, 0, 0), (0, 1, 0)])

    def test_times_points_must_pair(self):
        with pytest.raises(ValueError, match="times but"):
            fdd_density(self.p, 1.0, (0.1, 0, 0), (0.3, 0.5), [(1, 0, 0)])

    def test_transition_window(self):
        with pytest.raises(ValueError, match="0 <= s < t <= 1"):
            transition_R(self.p, 0.7, 0.7, (1, 0, 0), (0, 1, 0))
        with pytest.raises(ValueError, match="0 <= s < t <= 1"):
            transition_R(self.p, -0.1, 0.7, (1, 0, 0), (0, 1, 0))
        with pytest.raises(ValueError, match="0 <= s < t <= 1"):
            transition_R(self.p, 0.2, 1.3, (1, 0, 0), (0, 1, 0))

    def test_origin_transition_window(self):
        with pytest.raises(ValueError, match="positive time"):
            transition_R0(self.p, 0.0, (1, 0, 0))
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            transition_R0(self.p, 1.5, (1, 0, 0))

    def test_origin_arguments_rejected(self):
        with pytest.raises(ValueError, match="origin"):
            transition_R0(self.p, 0.5, (0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="origin"):
            pbar(self.p, 0.5, (1, 0, 0), (0.0, 0.0, 0.0))

    def test_overflowing_coupling_rejected(self):
        # J(60, 0.1, 1) ~ e^{1794}: no double holds Z, nor zeta(60)
        p = ZeroRangeParams(60.0)
        with pytest.raises(ValueError, match=r"zbar at \(gamma, t, \|x\|\) = \(60.0, 1.0, 0.1\)"):
            zbar(p, 1.0, (0.1, 0.0, 0.0))
        with pytest.raises(ValueError, match="gamma = 60.0"):
            marginal_radial(p, 1.0)

    def test_sampler_arguments(self):
        with pytest.raises(ValueError, match="n_steps"):
            sample_paths(self.p, 0, 10, seed=1)
        with pytest.raises(ValueError, match="n_paths"):
            sample_paths(self.p, 4, 0, seed=1)


def _marginal_ks(p, paths, t):
    """KS distance of the sampled radii at time t from the closed-form marginal."""
    n, col = paths.shape[0], round(t * (paths.shape[1] - 1))
    m = marginal_radial(p, t)
    model = np.interp(np.sort(paths[:, col]), m.grid, m.cdf())
    return float(np.max(np.abs(np.arange(1, n + 1) / n - model)))


class TestSampler:
    def test_deterministic_and_batch_consistent(self):
        p = ZeroRangeParams(1.0)
        a = sample_paths(p, 8, 200, seed=2)
        b = sample_paths(p, 8, 200, seed=2)
        assert np.array_equal(a, b)
        assert a.shape == (200, 9)
        # path i does not depend on how many siblings were drawn
        assert np.array_equal(sample_paths(p, 8, 20, seed=2), a[:20])

    def test_paths_start_at_origin_and_stay_nonnegative(self):
        paths = sample_paths(ZeroRangeParams(1.0), 8, 500, seed=3)
        assert np.all(paths[:, 0] == 0.0)
        assert np.all(paths >= 0.0)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -2.0])
    def test_marginals_match_density(self, gamma):
        # KS at the terminal and middle times against the closed-form
        # radial marginal; 1.36 / sqrt(n) would be the 5% band for iid
        # exact draws, the factor 3 absorbs quantile interpolation bias
        p = ZeroRangeParams(gamma)
        paths = sample_paths(p, 16, 30000, seed=11)
        for t in (1.0, 0.5):
            ks = _marginal_ks(p, paths, t)
            assert ks < 0.025, f"gamma={gamma} t={t}: KS {ks:.4f}"

    @pytest.mark.parametrize("gamma", [1.0, -2.0])
    def test_marginals_match_density_at_512_steps(self, gamma):
        # a step count whose rows sit near the grid's spacing seam, under
        # the same bound as the 16-step draws
        p = ZeroRangeParams(gamma)
        paths = sample_paths(p, 512, 10000, seed=11)
        for t in (1.0, 0.5):
            ks = _marginal_ks(p, paths, t)
            assert ks < 0.025, f"gamma={gamma} t={t}: KS {ks:.4f}"

    def test_anchor_rows_certified_in_bulk(self):
        tab = _tables(ZeroRangeParams(1.0), 4)
        anchors = np.arange(tab.y_grid.size)
        for k in range(2, 5):
            # the bulk of the grid, 90% of the anchors from the origin out,
            # holds both conditions; far-edge anchors honestly fail the tail's
            cdfs = _step_rows(tab, k, anchors[:231])
            assert np.all(cdfs[:, -1] == 1.0) and np.all(np.diff(cdfs, axis=1) >= 0.0), k
            with pytest.raises(GridExhaustionError, match="beyond the grid's end 8; enlarge"):
                _step_rows(tab, k, anchors)

    def test_uncertified_row_raises(self):
        tab = _tables(ZeroRangeParams(1.0), 4)
        # half the kernel's mass: no row reaches the partition factor ahead
        bad = dataclasses.replace(tab, kern=0.5 * tab.kern)
        with pytest.raises(GridExhaustionError, match="holds 0.5.* too coarse .* use fewer steps"):
            _walk(bad, np.full((3, 5), 0.5))

    def test_short_grid_trips_tail_condition(self, monkeypatch):
        p = ZeroRangeParams(1.0)
        # built past the cache, so no short-grid table outlives the test
        monkeypatch.setattr(zerorange, "default_radial_grid", lambda: default_radial_grid(3.0))
        tab = _tables.__wrapped__(p, 4)
        with pytest.raises(GridExhaustionError, match="beyond the grid's end 3; enlarge the grid"):
            _walk(tab, np.full((3, 5), 0.5))
        # shorter still, the first draw's own tail trips it
        monkeypatch.setattr(zerorange, "default_radial_grid", lambda: default_radial_grid(2.4))
        with pytest.raises(GridExhaustionError, match="time-0.25 marginal; enlarge the grid"):
            _tables.__wrapped__(p, 4)

    def test_escaping_grid_raises(self):
        tab = _tables(ZeroRangeParams(1.0), 4)
        tiny = dataclasses.replace(tab, y_grid=tab.y_grid / 100.0)
        with pytest.raises(GridExhaustionError, match="left the anchor grid"):
            _walk(tiny, np.full((3, 5), 0.9))

    def test_paths_pinned_bit_for_bit(self):
        # pins the draws themselves: any change in the order of the table's
        # or the walk's floating-point operations shows up here.  Re-pinned
        # once when the table's erfcx moved to the package's own (largest
        # relative change: 4.9e-16 in the table, 2.7e-14 in the paths)
        paths = sample_paths(ZeroRangeParams(1.0), 64, 2000, seed=101)
        assert hashlib.sha256(paths.tobytes()).hexdigest() == (
            "5be8804c16ee16d609b3c9749a78be16b67eb36c7234b9739de454b809ed32b0"
        )

    @pytest.mark.parametrize(
        "gamma, n_steps, n_paths, seed, digest",
        [
            (-2.0, 16, 5000, 3, "81c14d50db719a81eb82ad74839cdba40409116f1a630a0c34fc66aa543071aa"),
            (10.0, 64, 3000, 5, "738b68233959568d5e9cdacfb622533a38a4059dfcb918213f4394095832ee7c"),
            (1.0, 512, 1000, 101, "25b6e638a5d4c615bf5c465c60e49192dee769bf852ee8e1a86cc491df709057"),
        ],
    )
    def test_more_settings_pinned_bit_for_bit(self, gamma, n_steps, n_paths, seed, digest):
        # repulsive, strongly attractive and fine-stepped draws, pinned
        # before the table and the rows were built in blocks of anchors
        paths = sample_paths(ZeroRangeParams(gamma), n_steps, n_paths, seed=seed)
        assert hashlib.sha256(paths.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("seed", [0, 1, 2**40 + 3])
    def test_streams_match_spawned_generators(self, seed):
        n = 3000
        words = spawn_words(seed, n)
        children = np.random.SeedSequence(seed).spawn(n)
        assert words.dtype == np.uint64 and words.shape == (n, 4)
        assert np.array_equal(words, [c.generate_state(4, np.uint64) for c in children])
        bitgen = np.random.PCG64(0)
        for w, child in zip(words.tolist(), children):
            seed_pcg64(bitgen, w)
            assert bitgen.state == np.random.PCG64(child).state
        # a child's words do not depend on how many siblings there are
        assert np.array_equal(spawn_words(seed, 17), words[:17])

    def test_negative_seed_raises_seedsequences_error(self):
        with pytest.raises(ValueError) as want:
            np.random.SeedSequence(-1)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            sample_paths(ZeroRangeParams(1.0), 4, 10, seed=-1)

    def test_spawn_keys_stay_one_word(self):
        with pytest.raises(ValueError, match="32-bit"):
            spawn_words(0, 2**32 + 1)

    def test_oversized_n_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"n = 1000000000000 paths need"):
                sample_paths(ZeroRangeParams(1.0), 8, 10**12, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_sampler_working_memory(self):
        # 20k paths of 64 steps: the 10.4 MB of paths, their stream words
        # and the walk's per-step arrays traced 19.1 MB at peak (34.9 MB
        # with a separate uniforms array and whole-array rows)
        p = ZeroRangeParams(1.0)
        _tables(p, 64)
        tracemalloc.start()
        try:
            sample_paths(p, 64, 20_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_table_build_memory(self):
        # the 4.2 MB table built 16 anchors at a time traced 8.1 MB at peak
        # (51.4 MB when the kernel was evaluated on the whole 256 x 2047 grid)
        tracemalloc.start()
        try:
            _tables.__wrapped__(ZeroRangeParams(1.0), 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("gamma", [-2.0, 0.0, 1.0, 10.0, 37.0])
    @pytest.mark.parametrize("n_steps", [16, 64, 512])
    def test_blocked_kern_matches_whole_array(self, gamma, n_steps):
        p = ZeroRangeParams(gamma)
        tab = _tables.__wrapped__(p, n_steps)
        body = tab.x_grid[1:]
        mean = pbar_sphere_mean(p, 1.0 / n_steps, tab.y_grid[:, None], body[None, :])
        whole = 4.0 * math.pi * body[None, :] ** 2 * mean
        assert tab.kern.tobytes() == whole.tobytes()

    def test_table_memory_independent_of_steps(self):
        def held(tab):
            return sum(a.nbytes for a in vars(tab).values() if isinstance(a, np.ndarray))

        p = ZeroRangeParams(1.0)
        short, long = held(_tables(p, 16)), held(_tables(p, 256))
        assert short == long
        assert long < 16 * 2**20

    def test_quantile_lookup_matches_searchsorted(self):
        rng = np.random.default_rng(5)
        # the search covers each row's first n - 1 entries: 2047 on the
        # sampler's 2048-point grid, a power of two at n = 2049
        for n in (37, 2048, 2049):
            xs = np.linspace(0.0, 3.0, n)
            inc = rng.random((6, n - 1))
            inc[:, 10:14] = 0.0  # flat stretches: ties must resolve leftmost
            inc[:3, -(n // 4):] = 0.0  # rows that reach 1.0 early and stay there
            cdfs = np.concatenate([np.zeros((6, 1)), np.cumsum(inc, axis=1)], axis=1)
            cdfs /= cdfs[:, -1:]
            row = rng.integers(0, 6, 400)
            u = np.concatenate([
                rng.random(200), cdfs[row[200:390], rng.integers(0, n, 190)],
                np.zeros(5), np.ones(5),
            ])
            got = _inverse_cdf(xs, cdfs, row, u)
            for i in range(u.size):
                cdf = cdfs[row[i]]
                j = min(max(int(np.searchsorted(cdf, u[i], side="left")), 1), n - 1)
                w = min(max((u[i] - cdf[j - 1]) / max(cdf[j] - cdf[j - 1], 1e-300), 0.0), 1.0)
                assert got[i] == xs[j - 1] + w * (xs[j] - xs[j - 1]), (n, i)


class TestChainTails:
    """The sampler's mass beyond the grid's end, against quadrature as the oracle."""

    X = 8.0

    @pytest.mark.parametrize("gamma", [-2.0, 0.0, 1.0, 10.0])
    @pytest.mark.parametrize("s", [0.25, 1.0 / 64])
    def test_kern_tail_matches_quadrature(self, gamma, s):
        ys = np.array([1.0, 5.0, 6.5, 7.5])
        got = _kern_beyond(gamma, self.X, ys, s)
        for y, g in zip(ys, got):
            # the law of |y e + B_s| and the interaction excess of one kern row
            def row(x, y=y):
                free = x * (math.exp(-(x - y) ** 2 / (2 * s)) - math.exp(-(x + y) ** 2 / (2 * s)))
                return (free / math.sqrt(2 * math.pi * s)
                        + 2.0 * x * kernel_closed_form(gamma, x + y, s)) / y

            want = quad(row, self.X, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            assert g == pytest.approx(want, rel=1e-12, abs=0.0), (y, g, want)

    def test_tables_store_the_row_tails(self):
        tab = _tables(ZeroRangeParams(1.0), 64)
        want = _kern_beyond(1.0, tab.x_grid[-1], tab.y_grid, 1.0 / 64)
        assert tab.kern_tail.tobytes() == want.tobytes()

    @pytest.mark.parametrize("gamma", [-2.0, 0.0, 1.0, 10.0])
    @pytest.mark.parametrize("s", [0.25, 1.0 / 64])
    def test_marginal_tail_matches_quadrature(self, gamma, s):
        p = ZeroRangeParams(gamma)
        zeta = zeta_constant(gamma)
        unweighted = _interaction_beyond(gamma, self.X, 0.0, s) / zeta
        want = quad(lambda r: 2.0 * r * kernel_closed_form(gamma, r, s) / zeta,
                    self.X, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        assert unweighted == pytest.approx(want, rel=1e-12, abs=0.0)
        # Z(1 - s, r) <= Z(1 - s, X) past X bounds the first draw's true tail,
        # up to the quadrature's own error: Z is all but flat there
        bound = unweighted * zbar(p, 1.0 - s, (self.X, 0.0, 0.0))
        tail = quad(lambda r: 4.0 * math.pi * r * r * transition_R0(p, s, (r, 0.0, 0.0)),
                    self.X, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        assert tail <= bound * (1.0 + 1e-12)

    @pytest.mark.parametrize("tau", [1.0 / 4096, 1.0 / 64, 0.25, 1.0])
    def test_partition_factor_decreases_beyond_grid(self, tau):
        x = np.linspace(8.0, 40.0, 3201)
        for gamma in np.linspace(-5.0, 37.0, 85):
            z = zerorange._zbar_closed(float(gamma), x, tau)
            assert np.all(np.isfinite(z)) and np.all(np.diff(z) <= 0.0), gamma


class TestGoldenTables:
    def _rows(self, name):
        with (GOLDEN / name).open(newline="") as fh:
            return list(csv.DictReader(fh))

    def test_marginal_table(self):
        rows = self._rows("zerorange_marginal.csv")
        assert len(rows) == 32
        for row in rows:
            p = ZeroRangeParams(float(row["gamma"]))
            r = float(row["r"])
            got = 4.0 * math.pi * r * r * transition_R0(p, float(row["t"]), (r, 0.0, 0.0))
            assert got == pytest.approx(float(row["density"]), rel=1e-12), row

    def test_transition_table(self):
        rows = self._rows("zerorange_transition.csv")
        assert len(rows) == 16
        for row in rows:
            p = ZeroRangeParams(float(row["gamma"]))
            got = transition_R(
                p,
                float(row["s"]),
                float(row["t"]),
                (float(row["ry"]), 0.0, 0.0),
                (0.0, float(row["rx"]), 0.0),
            )
            assert got == pytest.approx(float(row["value"]), rel=1e-12), row
