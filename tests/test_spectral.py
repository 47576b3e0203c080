import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import brentq

from polymer_lab import spectral
from polymer_lab.potentials import RadialPotential, scaled_ball_potential, unit_ball_potential
from polymer_lab.spectral import (
    FitQualityError,
    _brentq,
    SpectralSummary,
    beta0_of_lambda,
    compute_summary,
    critical_beta,
    gamma1_via_expansion,
    gamma_of_chi,
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
    def test_ball_profile_is_sinc(self, ball_summary):
        # psi(r) = sin(pi r / 2) / r inside the well, A/r outside (A = 1)
        psi = ball_summary.psi
        rs = np.array([0.25, 0.5, 0.9])
        ref = np.sin(math.pi * rs / 2.0) / rs
        assert np.allclose(np.interp(rs, psi.grid, psi.values), ref, rtol=2e-3)
        # the table spans the support and meets the exterior 1/r there
        assert psi.grid[-1] == psi.r_support == 1.0
        assert psi.values[-1] == pytest.approx(1.0 / psi.r_support, rel=1e-14)
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


# root-finding test functions f(x; c, s) with a sign change near c; the last
# is a step, so a tight xtol on a wide bracket exhausts the iterations
_ROOT_FAMILIES = [
    lambda c, s: lambda x: s * (x - c) ** 3,
    lambda c, s: lambda x: s * (math.tanh(5.0 * (x - c)) + 1e-3 * x),
    lambda c, s: lambda x: s * math.copysign(math.sqrt(abs(x - c)), x - c),
    lambda c, s: lambda x: s * (math.exp(x) - math.exp(c)),
    lambda c, s: lambda x: s if x >= c else -s,
]


def _run_root_finder(solver, f, a, b, **tols):
    """(result's repr or exception type, every abscissa f was called at)."""
    calls = []

    def traced(x):
        calls.append(x)
        return f(x)

    try:
        got = solver(traced, a, b, **tols)
    except Exception as exc:  # the port must raise what SciPy raises
        return type(exc), calls
    return repr(float(got)), calls


class TestBrentqPort:
    """spectral._brentq against scipy.optimize.brentq, its test oracle."""

    @given(
        family=st.integers(0, len(_ROOT_FAMILIES) - 1),
        c=st.floats(-3.0, 3.0),
        scale_exp=st.floats(-300.0, 300.0),
        below=st.floats(0.0, 5.0),
        above=st.floats(0.0, 5.0),
        swap=st.booleans(),
        xtol_exp=st.floats(-300.0, -1.0),
        rtol_mult=st.floats(1.0, 1e10),
    )
    def test_same_iterates_and_result(
        self, family, c, scale_exp, below, above, swap, xtol_exp, rtol_mult
    ):
        f = _ROOT_FAMILIES[family](c, 10.0**scale_exp)
        a, b = c - below, c + above
        if swap:
            a, b = b, a
        tols = dict(xtol=10.0**xtol_exp, rtol=4.0 * np.finfo(float).eps * rtol_mult)
        assert _run_root_finder(_brentq, f, a, b, **tols) == _run_root_finder(
            brentq, f, a, b, **tols
        )

    @pytest.mark.parametrize("f, a, b, tols", [
        (lambda x: x - 0.3, 0.0, 1.0, dict(xtol=1e-12, rtol=1e-16)),  # rtol < 4 eps
        (lambda x: x - 0.3, 0.0, 1.0, dict(xtol=0.0, rtol=1e-15)),
        (lambda x: x * x + 1.0, -1.0, 1.0, dict(xtol=1e-12, rtol=1e-15)),  # no sign change
        (lambda x: math.nan, 0.0, 1.0, dict(xtol=1e-12, rtol=1e-15)),
        (lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5, 0.0, 1.0,
         dict(xtol=1e-12, rtol=1e-15)),  # nan at an iterate
        (_ROOT_FAMILIES[4](0.1, 1.0), -1e300, 1e300, dict(xtol=1e-300, rtol=1e-15)),
    ])
    def test_error_paths_raise_scipys_exception(self, f, a, b, tols):
        got, _ = _run_root_finder(_brentq, f, a, b, **tols)
        want, _ = _run_root_finder(brentq, f, a, b, **tols)
        assert isinstance(want, type) and got is want

    def test_spectral_roots_match_scipy(self, ball, monkeypatch):
        # the production brackets and tolerances of the three solvers
        v = scaled_ball_potential(0.5, 0.3)
        got = critical_beta(v), principal_eigenvalue(ball, 9.5), beta0_of_lambda(ball, 1e-3)
        monkeypatch.setattr(spectral, "_brentq", brentq)
        want = critical_beta(v), principal_eigenvalue(ball, 9.5), beta0_of_lambda(ball, 1e-3)
        assert got == want
