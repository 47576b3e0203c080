import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from bromwich import (
    ContourPlacementError,
    ContourSpec,
    LaplaceEvaluationError,
    bromwich_invert,
    kernel_integral_with_noise,
    zbar_correction_quadrature,
)
from polymer_lab.laplace import (
    kernel_closed_form,
    kernel_integral,
    zbar_correction,
    zeta_constant,
)


class TestBromwichInvert:
    """Inversion of transforms with known originals."""

    def test_inverts_one_over_lambda(self):
        for t in (0.2, 1.0):
            c = ContourSpec.bent(1.0, t)
            assert bromwich_invert(lambda lam: 1.0 / lam, t, c) == pytest.approx(
                1.0, abs=1e-11
            )

    def test_inverts_one_over_lambda_squared(self):
        t = 0.7
        c = ContourSpec.bent(1.0, t)
        assert bromwich_invert(lambda lam: lam**-2.0, t, c) == pytest.approx(
            t, abs=1e-11
        )

    def test_inverts_shifted_pole(self):
        t = 0.5
        c = ContourSpec.bent(1.0, t)
        got = bromwich_invert(lambda lam: 1.0 / (lam + 1.0), t, c)
        assert got == pytest.approx(math.exp(-t), abs=1e-11)

    def test_node_doubling_is_stable(self):
        t = 0.6
        a = bromwich_invert(lambda lam: 1.0 / (lam + 2.0), t, ContourSpec.bent(1.0, t, nodes=400))
        b = bromwich_invert(lambda lam: 1.0 / (lam + 2.0), t, ContourSpec.bent(1.0, t, nodes=800))
        assert a == pytest.approx(b, abs=1e-12)

    def test_nan_transform_is_reported_with_node(self):
        c = ContourSpec.bent(1.0, 1.0)
        with pytest.raises(LaplaceEvaluationError, match="node"):
            bromwich_invert(lambda lam: np.full_like(lam, np.nan), 1.0, c)


class TestContourSpec:
    def test_rejects_nonpositive_apex(self):
        with pytest.raises(ValueError):
            ContourSpec(apex=0.0)

    def test_rejects_unknown_shape(self):
        with pytest.raises(ValueError):
            ContourSpec(apex=1.0, shape="circle")

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError):
            ContourSpec(apex=1.0, nodes=8)

    def test_for_kernel_clears_pole_and_saddle(self):
        c = ContourSpec.for_kernel(3.0, 1.0, 1.0)
        assert c.apex > 0.5 * 9.0
        c2 = ContourSpec.for_kernel(0.0, 5.0, 0.1)
        assert c2.apex > 0.5 * (5.0 / 0.1) ** 2


class TestKernelIntegral:
    """The production point entry and the quadrature oracle it is pinned to."""

    def test_free_kernel_value(self):
        # gamma = 0 has the heat-kernel original e^{-rho^2/2t}/sqrt(2 pi t)
        exact = math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert kernel_integral(0.0, 1.0, 1.0) == pytest.approx(exact, rel=1e-14)
        assert kernel_integral_with_noise(0.0, 1.0, 1.0)[0] == pytest.approx(exact, rel=1e-10)

    def test_matches_closed_form_spot_checks(self):
        for g, r, t in [(1.0, 1.0, 1.0), (-2.0, 0.5, 0.3), (2.0, 2.0, 0.5)]:
            assert kernel_integral_with_noise(g, r, t)[0] == pytest.approx(
                kernel_closed_form(g, r, t), rel=1e-9
            )

    def test_vertical_contour_agrees_with_bent(self):
        g, r, t = 1.0, 1.0, 1.0
        cv = ContourSpec.for_kernel(g, r, t, shape="vertical")
        got = kernel_integral_with_noise(g, r, t, contour=cv)[0]
        assert got == pytest.approx(kernel_closed_form(g, r, t), rel=1e-9)

    def test_noise_flags_off_saddle_cancellation(self):
        # noise is the round-off floor of the oscillatory sum: negligible on
        # a saddle-anchored contour, dominant once the apex is forced past it
        val, noise = kernel_integral_with_noise(0.0, 5.0, 0.1)
        assert noise < 1e-10 * abs(val)
        c2 = ContourSpec.for_kernel(0.0, 5.0, 0.1, apex_scale=2.0)
        val2, noise2 = kernel_integral_with_noise(0.0, 5.0, 0.1, contour=c2)
        assert noise2 > 1e-8 * abs(val2)

    def test_pole_right_of_apex_is_rejected(self):
        bad = ContourSpec(apex=1.0, shape="bent45")
        with pytest.raises(ContourPlacementError):
            kernel_integral_with_noise(3.0, 1.0, 1.0, contour=bad)


class TestKernelClosedForm:
    def test_frozen_values(self):
        assert kernel_closed_form(0.0, 1.0, 1.0) == pytest.approx(
            0.24197072451914337, rel=1e-14
        )
        assert kernel_closed_form(1.0, 1.0, 1.0) == pytest.approx(
            0.5452360543754601, rel=1e-14
        )
        assert kernel_closed_form(-2.0, 0.5, 0.3) == pytest.approx(
            0.25921483078470287, rel=1e-14
        )
        assert kernel_closed_form(2.0, 2.0, 0.5) == pytest.approx(
            0.018164959052669356, rel=1e-14
        )

    def test_broadcasts_elementwise(self):
        rho = np.array([1.0, 0.5])
        out = kernel_closed_form(0.0, rho, 1.0)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(0.24197072451914337, rel=1e-14)
        assert out[1] == kernel_closed_form(0.0, 0.5, 1.0)
        grid = kernel_closed_form(-2.0, rho.reshape(2, 1) * [1.0, 2.0, 3.0], 0.3)
        assert grid.shape == (2, 3)
        assert grid[1, 0] == kernel_closed_form(-2.0, 0.5, 0.3)

    @given(
        st.floats(min_value=-5.0, max_value=2.5),
        st.floats(min_value=1e-3, max_value=6.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_positive_on_physical_range(self, g, r, t):
        val = kernel_closed_form(g, r, t)
        assert val >= 0.0
        if r * r / (2.0 * t) < 700.0:  # above this the Gaussian underflows
            assert val > 0.0


class TestZbarCorrection:
    def test_frozen_values(self):
        assert zbar_correction(0.0, 0.0, 1.0) == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-14
        )
        assert zbar_correction(1.0, 0.0, 0.5) == pytest.approx(
            0.952360489182557, rel=1e-14
        )
        assert zbar_correction(1.5, 0.7, 0.8) == pytest.approx(
            0.527780587622458, rel=1e-14
        )
        assert zbar_correction(-3.0, 0.4, 1.0) == pytest.approx(
            0.16258738963139083, rel=1e-14
        )

    def test_is_time_integral_of_kernel(self):
        for g, r, t in [(1.5, 0.7, 0.8), (-2.0, 0.3, 0.6), (0.0, 1.0, 1.0)]:
            ref, err = quad(lambda u: kernel_closed_form(g, r, u), 0.0, t, limit=200)
            assert zbar_correction(g, r, t) == pytest.approx(ref, rel=1e-9)

    def test_origin_column_against_quadrature(self):
        # the rho = 0 branch has an integrable 1/sqrt(tau) singularity
        for g, t in [(0.0, 1.0), (1.0, 0.5), (-1.5, 0.8)]:
            ref, err = quad(lambda u: kernel_closed_form(g, 1e-14, u), 0.0, t, limit=200)
            assert zbar_correction(g, 0.0, t) == pytest.approx(ref, rel=1e-7)

    def test_small_gamma_branch_is_seamless(self):
        below = zbar_correction(9.9e-7, 0.5, 0.8)
        above = zbar_correction(1.01e-6, 0.5, 0.8)
        assert abs(above - below) < 1e-8
        assert zbar_correction(0.0, 0.5, 0.8) == pytest.approx(below, abs=1e-6)

    def test_quadrature_route_matches_closed_form(self):
        for g, r, t in [(1.0, 0.6, 1.0), (-2.0, 1.2, 0.5), (0.0, 0.3, 0.25)]:
            q = zbar_correction_quadrature(g, r, t)
            c = zbar_correction(g, r, t)
            assert q == pytest.approx(c, rel=1e-10)

    @given(
        st.floats(min_value=-5.0, max_value=2.5),
        st.floats(min_value=0.0, max_value=6.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_nonnegative(self, g, r, t):
        assert zbar_correction(g, r, t) >= 0.0


class TestPastErfcxOverflow:
    """At (58, 20, 1) erfcx((rho - gamma t)/sqrt(2t)) = erfcx(-26.87) overflows,
    yet I = 58 e^522 and J = 2 e^522 / 58 fit a double.  The references are
    50-digit values of the erfc forms (J cross-checked against the time
    integral of I to 1e-58)."""

    I_58 = 2.9184183480563615926682720876079798856787295963033e228
    J_58 = 1.7350881974175752631797099212889297774546549324039e225

    def test_point_values(self):
        assert kernel_closed_form(58.0, 20.0, 1.0) == pytest.approx(self.I_58, rel=1e-15)
        assert kernel_integral(58.0, 20.0, 1.0) == pytest.approx(self.I_58, rel=1e-15)
        assert zbar_correction(58.0, 20.0, 1.0) == pytest.approx(self.J_58, rel=1e-15)

    def test_arrays_reflect_only_the_overflowing_elements(self):
        # erfcx(-12.7) at rho 40 fits a double; erfcx(-26.87) at rho 20 does not
        kernel = kernel_closed_form(58.0, [40.0, 20.0], 1.0)
        assert kernel[0] == kernel_closed_form(58.0, 40.0, 1.0)
        assert kernel[1] == pytest.approx(self.I_58, rel=1e-15)
        j = zbar_correction(58.0, [40.0, 20.0], 1.0)
        assert j[0] == zbar_correction(58.0, 40.0, 1.0)
        assert j[1] == pytest.approx(self.J_58, rel=1e-15)

    def test_true_overflow_is_inf(self):
        # e^{gamma^2 t/2 - gamma rho} = e^1794 and e^1000: past a double, and
        # the expected 0 * inf on the way there warns nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g, r in [(60.0, 0.1), (100.0, 40.0)]:
                assert kernel_closed_form(g, r, 1.0) == math.inf
                assert zbar_correction(g, r, 1.0) == math.inf

    def test_zeta_overflow_names_gamma(self):
        with pytest.raises(ValueError, match="gamma = 60.0"):
            zeta_constant(60.0)


class TestScalarCouplingAndTime:
    """gamma and t are scalars; rho alone is a scalar or an array."""

    # rho 20 overflows erfcx at gamma 58, and e^{gamma^2 t/2 - gamma rho}
    # itself overflows at rho 0.1
    RHOS = (0.0, 0.1, 1.0, 20.0, 40.0)

    @pytest.mark.parametrize("f", [kernel_closed_form, zbar_correction])
    @pytest.mark.parametrize("gamma", [0.0, 5e-7, -1e-7, -2.0, 37.4, 58.0])
    def test_point_call_is_the_one_element_call(self, f, gamma):
        with np.errstate(over="ignore"):
            for rho in self.RHOS:
                point = f(gamma, rho, 1.0)
                row = f(gamma, np.array([rho]), 1.0)
                assert type(point) is float and row.shape == (1,)
                assert np.array(point).tobytes() == row.tobytes(), rho
                assert np.array(f(gamma, np.array(rho), 1.0)).tobytes() == row.tobytes()

    @pytest.mark.parametrize("f", [kernel_closed_form, zbar_correction])
    def test_non_scalar_coupling_or_time_is_refused(self, f):
        with pytest.raises(TypeError):
            f(np.array([0.0, 1.0]), 1.0, 1.0)
        with pytest.raises(TypeError):
            f(1.0, 1.0, np.array([0.5, 1.0]))
        with pytest.raises(TypeError):
            f(np.array([1.0]), 1.0, 1.0)


class TestZetaConstant:
    def test_is_origin_time_integral_at_horizon_one(self):
        for g in (-3.0, -1.0, 0.0, 1.0, 2.4674011002723395):
            assert zeta_constant(g) == pytest.approx(
                zbar_correction(g, 0.0, 1.0), rel=1e-13
            )

    def test_frozen_values(self):
        assert zeta_constant(0.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)
        assert zeta_constant(-3.0) == pytest.approx(0.2523240344296252, rel=1e-13)
        assert zeta_constant(1.0) == pytest.approx(1.7742859576700099, rel=1e-13)
        assert zeta_constant(2.4674011002723395) == pytest.approx(
            16.49258757851088, rel=1e-13
        )

    def test_monotone_increasing_in_gamma(self):
        gs = np.linspace(-6.0, 3.0, 40)
        zs = [zeta_constant(float(g)) for g in gs]
        assert np.all(np.diff(zs) > 0.0)
        assert all(z > 0.0 for z in zs)
