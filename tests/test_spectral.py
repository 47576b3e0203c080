import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import brentq

from polymer_lab.potentials import RadialPotential, scaled_ball_potential, unit_ball_potential
from polymer_lab.spectral import (
    FitQualityError,
    SpectralSummary,
    alpha_of_f,
    beta0_of_lambda,
    compute_summary,
    critical_beta,
    gamma1_via_expansion,
    gamma_of_chi,
    ground_state_psi,
    principal_eigenvalue,
)

GAMMA1_BALL = 8.0 * math.sqrt(2.0) / math.pi**2
C_BALL = math.pi**2 / 8.0


def ball_lambda(beta: float) -> float:
    """Transcendental bound-state eigenvalue for the (pi^2/8) 1_{r<=1} well.

    Inside u = sin(kr) with k^2 = 2(beta pi^2/8 - lam), outside u ~ e^{-kap r}
    with kap = sqrt(2 lam); matching u'/u at r = 1 gives k cot k = -kap.  The
    ground state is the node-free root, k in (pi/2, pi); the bracket stays on
    that branch so excited states (k past pi) are never returned.
    """
    w2 = 2.0 * beta * math.pi**2 / 8.0

    def match(lam):
        k = math.sqrt(w2 - 2.0 * lam)
        return k / math.tan(k) + math.sqrt(2.0 * lam)

    lo = max(1e-300, 0.5 * (w2 - math.pi**2) + 1e-12 * w2)  # k just under pi
    hi = 0.5 * (w2 - 0.25 * math.pi**2)  # k = pi/2
    return brentq(match, lo, hi, xtol=1e-15, rtol=1e-15)


class TestCriticalBeta:
    def test_ball_is_critical_at_one(self, ball):
        assert critical_beta(ball) == pytest.approx(1.0, abs=5e-4)

    def test_scaling_family_keeps_product_invariant(self):
        # beta_cr * v0 * eps^2 = pi^2/8 for every well in the family
        for eps in (0.5, 0.25):
            v = scaled_ball_potential(eps, 0.3)
            expected = (math.pi**2 / 8.0) / (v.v_max * eps * eps)
            assert critical_beta(v) == pytest.approx(expected, rel=5e-4)


class TestPrincipalEigenvalue:
    def test_matches_transcendental_oracle(self, ball):
        # 1 + 1e-4 sits just past criticality (lam ~ 7.6e-9); 9.5 and 12 lie
        # past the second zero-energy resonance at beta = 9
        for beta in (1.0 + 1e-4, 1.05, 1.2, 1.5, 9.5, 12.0):
            assert principal_eigenvalue(ball, beta) == pytest.approx(
                ball_lambda(beta), rel=1e-5
            )

    def test_none_below_criticality(self, ball):
        assert principal_eigenvalue(ball, 0.9) is None
        assert principal_eigenvalue(ball, 0.2) is None

    def test_monotone_in_beta(self, ball):
        lams = [principal_eigenvalue(ball, b) for b in (1.1, 1.3, 1.6)]
        assert lams[0] < lams[1] < lams[2]


class TestBeta0OfLambda:
    def test_round_trip_through_eigenvalue(self, ball):
        for lam in (1e-3, 1e-2, 0.1):
            beta = beta0_of_lambda(ball, lam)
            assert principal_eigenvalue(ball, beta) == pytest.approx(lam, rel=1e-6)

    def test_decreasing_lambda_approaches_critical_coupling(self, ball):
        b_small = beta0_of_lambda(ball, 1e-6)
        assert b_small == pytest.approx(1.0, abs=5e-3)
        assert beta0_of_lambda(ball, 1e-2) > b_small


class TestGroundState:
    def test_ball_profile_is_sinc(self, ball):
        # psi(r) = sin(pi r / 2) / r inside the well, A/r outside (A = 1)
        psi = ground_state_psi(ball)
        rs = np.array([0.25, 0.5, 0.9])
        ref = np.sin(math.pi * rs / 2.0) / rs
        assert np.allclose(psi(rs), ref, rtol=2e-3)
        assert psi(2.0) == 0.5  # exterior continues as exactly 1/r
        assert psi.at_origin == pytest.approx(math.pi / 2.0, rel=2e-3)


class TestSummaryConstants:
    def test_gamma1_kappa_c(self, ball_summary):
        assert ball_summary.beta_cr == pytest.approx(1.0, abs=5e-4)
        assert ball_summary.gamma1 == pytest.approx(GAMMA1_BALL, rel=1e-3)
        assert ball_summary.kappa == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-3)
        assert ball_summary.c == pytest.approx(C_BALL, rel=1e-3)

    def test_identity_linking_constants(self, ball_summary):
        # c = sqrt(2) / (beta_cr^2 gamma1) by construction
        lhs = ball_summary.c * ball_summary.gamma1 * ball_summary.beta_cr**2
        assert lhs == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_gamma_of_chi_is_linear(self, ball_summary):
        assert gamma_of_chi(ball_summary, 0.0) == 0.0
        assert gamma_of_chi(ball_summary, 2.0) == pytest.approx(
            2.0 * ball_summary.c, rel=1e-15
        )

    def test_json_dict_round_trips_scalars(self, ball_summary):
        d = ball_summary.to_json_dict()
        assert d["beta_cr"] == ball_summary.beta_cr
        assert d["gamma1"] == ball_summary.gamma1
        assert isinstance(d["gamma1"], float)


class TestExpansionFit:
    def test_gamma1_from_inverse_coupling_slope(self, ball):
        fit = gamma1_via_expansion(ball)
        assert fit.gamma1 == pytest.approx(GAMMA1_BALL, rel=0.02)
        assert fit.r_squared > 0.999
        assert fit.intercept == pytest.approx(1.0, rel=1e-3)

    def test_rejects_garbage_ladder(self, ball):
        # a ladder spanning O(1) lambdas leaves the sqrt regime; the fit
        # quality gate must refuse to report a slope from it
        with pytest.raises(FitQualityError):
            gamma1_via_expansion(
                ball,
                lambdas=[0.2, 0.4, 0.8, 1.4, 2.0],
                min_r_squared=1.0 - 1e-12,
            )

    def test_needs_three_points(self, ball):
        with pytest.raises(ValueError):
            gamma1_via_expansion(ball, lambdas=[1e-3, 1e-2])


def _check_exact_constants(v: RadialPotential, eps: float) -> None:
    # beta_cr int v psi = 2 pi by the divergence theorem, for every well
    summary = compute_summary(v)
    assert abs(2.0 * math.pi * summary.kappa - 1.0) < 1e-10
    # v_eps(r) = v(r/eps)/eps^2 leaves the zero-energy problem unchanged
    scaled = RadialPotential(grid=v.grid * eps, values=v.values / eps**2)
    assert critical_beta(scaled) == pytest.approx(summary.beta_cr, rel=1e-12)


class TestExactCellSolution:
    @given(
        cells=st.integers(1, 5).flatmap(
            lambda m: st.tuples(
                st.lists(st.floats(0.1, 1.0), min_size=m, max_size=m),
                st.floats(0.01, 3.0),
                st.lists(st.floats(0.0, 3.0), min_size=m - 1, max_size=m - 1),
            )
        ),
        eps=st.floats(0.05, 20.0),
    )
    # a near-empty outer cell: the zero of u inside it must still be counted
    @example(cells=([0.5, 1.0], 1.0, [3.63918857762309e-287]), eps=1.0)
    def test_random_wells(self, cells, eps):
        widths, first, rest = cells
        v = RadialPotential(
            grid=np.concatenate(([0.0], np.cumsum(widths))), values=np.array([first, *rest])
        )
        _check_exact_constants(v, eps)

    def test_two_hundred_cells(self):
        rng = np.random.default_rng(200)
        widths = rng.uniform(0.1, 1.0, 200)
        values = rng.uniform(0.0, 3.0, 200)
        v = RadialPotential(grid=np.concatenate(([0.0], np.cumsum(widths))), values=values)
        _check_exact_constants(v, 0.3)


class TestAlphaOfF:
    def test_potential_recovers_inverse_coupling(self, ball, ball_summary):
        got = alpha_of_f(ball_summary, ball)
        assert got == pytest.approx(1.0 / ball_summary.beta_cr, rel=1e-6)

    def test_potential_wider_than_the_resonance(self, ball_summary):
        # f = v0 on r <= 2 against psi = sin(pi r/2)/r inside 1, 1/r outside:
        # 4 pi v0 (int_0^1 r sin(pi r/2) dr + int_1^2 r dr) = 4 pi v0 (4/pi^2 + 3/2)
        f = scaled_ball_potential(2.0)
        got = alpha_of_f(ball_summary, f, r_max=5.0)
        want = ball_summary.kappa * 4.0 * math.pi * f.v_max * (4.0 / math.pi**2 + 1.5)
        assert got == pytest.approx(want, rel=1e-6)

    def test_constant_profile_reduces_to_psi_mass(self, ball_summary):
        got = alpha_of_f(ball_summary, lambda r: np.ones_like(r), r_max=40.0)
        psi = ball_summary.psi
        r = np.linspace(1e-6, 40.0, 200001)
        ref = ball_summary.kappa * 4.0 * math.pi * np.trapezoid(psi(r) * r * r, r)
        assert got == pytest.approx(ref, rel=1e-4)
