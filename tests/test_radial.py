import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid
from scipy.stats import maxwell

from polymer_lab.radial import (
    RadialDensity,
    _cumulative_trapezoid,
    default_radial_grid,
    density_cdf,
    gauss_sphere_integral,
    wiener_radial_cdf,
)


class TestDefaultRadialGrid:
    def test_shape_and_endpoints(self):
        g = default_radial_grid()
        assert g[0] == 0.0 and g[-1] == 8.0
        assert g.size == 2048
        assert np.all(np.diff(g) > 0.0)

    def test_origin_crowding(self):
        g = default_radial_grid()
        # a quarter of the points sit below rmax/16
        assert np.count_nonzero(g < 0.5) >= 500

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            default_radial_grid(n=8)


class TestWienerRadialCdf:
    def test_matches_maxwell_law(self):
        r = np.linspace(0.0, 10.0, 301)
        for t in (0.25, 1.0, 7.0):
            ours = wiener_radial_cdf(r, t)
            ref = maxwell.cdf(r, scale=math.sqrt(t))
            assert np.max(np.abs(ours - ref)) < 1e-12

    def test_scalar_in_float_out(self):
        out = wiener_radial_cdf(1.0, 2.0)
        assert isinstance(out, float)

    def test_requires_positive_time(self):
        with pytest.raises(ValueError):
            wiener_radial_cdf(1.0, 0.0)

    @given(st.floats(min_value=0.01, max_value=20.0))
    def test_monotone_to_one(self, t):
        r = np.linspace(0.0, 12.0 * math.sqrt(t), 200)
        f = wiener_radial_cdf(r, t)
        assert np.all(np.diff(f) >= -1e-15)
        assert f[0] == 0.0
        assert f[-1] == pytest.approx(1.0, abs=1e-10)


class TestGaussSphereIntegral:
    def test_against_angular_quadrature(self):
        # S(t,a,b) = 2 pi int_{-1}^{1} (2 pi t)^{-3/2} e^{-(a^2+b^2-2ab mu)/2t} dmu
        mu, w = np.polynomial.legendre.leggauss(64)
        for t, a, b in [(0.5, 1.0, 2.0), (1.0, 0.3, 0.2), (0.1, 2.5, 2.4)]:
            direct = 2.0 * math.pi * np.sum(
                w * (2 * math.pi * t) ** -1.5
                * np.exp(-(a * a + b * b - 2 * a * b * mu) / (2 * t))
            )
            assert gauss_sphere_integral(t, a, b) == pytest.approx(direct, rel=1e-12)

    def test_total_mass_is_one(self):
        b = np.linspace(0.0, 14.0, 20001)[1:]
        for t, a in [(0.5, 1.0), (1.0, 0.01), (2.0, 3.0)]:
            mass = np.trapezoid(b * b * gauss_sphere_integral(t, a, b), b)
            assert mass == pytest.approx(1.0, abs=1e-7)

    def test_symmetric_in_endpoints(self):
        assert gauss_sphere_integral(0.7, 1.3, 0.4) == pytest.approx(
            gauss_sphere_integral(0.7, 0.4, 1.3), rel=1e-14
        )

    def test_origin_limit(self):
        t, b = 0.8, 1.7
        lim = 4.0 * math.pi * (2 * math.pi * t) ** -1.5 * math.exp(-b * b / (2 * t))
        assert gauss_sphere_integral(t, 1e-13, b) == pytest.approx(lim, rel=1e-7)
        assert gauss_sphere_integral(t, 0.0, b) == pytest.approx(lim, rel=1e-12)

    def test_broadcasts(self):
        a = np.array([0.5, 1.0])[:, None]
        b = np.array([0.2, 0.9, 1.4])[None, :]
        assert gauss_sphere_integral(1.0, a, b).shape == (2, 3)


class TestRadialDensity:
    def _maxwell_density(self, n=3001):
        g = np.linspace(0.0, 10.0, n)
        vals = (
            math.sqrt(2.0 / math.pi) * g * g * np.exp(-0.5 * g * g)
        )
        return RadialDensity(grid=g, values=vals)

    def test_integral_and_normalization_gate(self):
        d = self._maxwell_density()
        assert d.integral() == pytest.approx(1.0, abs=1e-6)
        d.require_normalized(1e-3)
        bad = RadialDensity(grid=d.grid, values=2.0 * d.values)
        with pytest.raises(ValueError):
            bad.require_normalized(1e-3)

    def test_cdf_monotone_and_clipped(self):
        d = self._maxwell_density()
        c = d.cdf()
        assert c[0] == 0.0 and c[-1] <= 1.0
        assert np.all(np.diff(c) >= 0.0)
        ref = maxwell.cdf(d.grid)
        assert np.max(np.abs(c - ref)) < 1e-6

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            RadialDensity(grid=np.array([0.0, 1.0]), values=np.array([1.0, -0.1]))

    def test_rejects_grid_off_origin(self):
        with pytest.raises(ValueError):
            RadialDensity(grid=np.array([0.5, 1.0]), values=np.array([1.0, 1.0]))


def test_density_cdf_rescales_unnormalized_input():
    g = np.linspace(0.0, 1.0, 101)
    c = density_cdf(g, 7.0 * np.ones_like(g))
    assert c[-1] == pytest.approx(1.0, rel=1e-15)
    assert c[50] == pytest.approx(0.5, rel=1e-12)


def test_density_cdf_rejects_zero_mass():
    g = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        density_cdf(g, np.zeros_like(g))


@given(
    steps=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40),
    data=st.data(),
)
def test_cumulative_trapezoid_matches_scipy_bit_for_bit(steps, data):
    x = np.concatenate(([0.0], steps)).cumsum()
    y = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=x.size, max_size=x.size)))
    want = cumulative_trapezoid(y, x, initial=0)
    assert _cumulative_trapezoid(x, y).tobytes() == want.tobytes()


@given(
    steps=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40),
    n_rows=st.integers(1, 4),
    data=st.data(),
)
def test_cumulative_trapezoid_rows_match_scipy_bit_for_bit(steps, n_rows, data):
    x = np.concatenate(([0.0], steps)).cumsum()
    size = n_rows * x.size
    y = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=size, max_size=size)))
    y = y.reshape(n_rows, x.size)
    want = cumulative_trapezoid(y, x, axis=-1, initial=0)
    assert _cumulative_trapezoid(x, y).tobytes() == want.tobytes()


def test_density_cdf_normalizes_each_row():
    g = np.linspace(0.0, 1.0, 11)
    rows = np.array([np.ones_like(g), 3.0 * g])
    c = density_cdf(g, rows)
    for got, row in zip(c, rows):
        assert got.tobytes() == density_cdf(g, row).tobytes()
    with pytest.raises(ValueError):
        density_cdf(g, np.array([np.ones_like(g), np.zeros_like(g)]))
