"""Importance-sampled path ensembles and the statistical verdicts built on them.

Weighted sampling near a collapse point is the one place where every
empirical health signal can lie at once, so the verdict objects carry an
explicit inconclusive state.  The tests pin both directions: runs that must
stay conclusive, and runs whose evidence is provably insufficient.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from polymer_lab.montecarlo import (
    PathEnsemble,
    Theorem2Report,
    WeightedECDF,
    _derived_seed,
    empirical_radial_marginal,
    ks_distance,
    load_ensemble,
    rescale_ensemble,
    sample_weighted_paths,
    save_ensemble,
    verify_prop2,
    verify_theorem2,
)
from polymer_lab.radial import wiener_radial_cdf


@pytest.fixture(scope="module")
def free_ensemble(ball):
    # coupling off: every weight is exactly one, terminal radius is the
    # free radial law
    return sample_weighted_paths(ball, 0.0, 1.0, 0.01, 4000, seed=13)


class TestSampler:
    def test_free_weights_are_unity(self, free_ensemble):
        assert np.all(free_ensemble.log_weights == 0.0)
        assert free_ensemble.ess == pytest.approx(4000.0)
        assert not free_ensemble.ess_warning

    def test_free_terminal_radius(self, free_ensemble):
        ecdf = empirical_radial_marginal(free_ensemble, 1.0)
        ks = ks_distance(ecdf, lambda r: wiener_radial_cdf(r, 1.0))
        assert ks < 0.025

    def test_seed_reproducibility(self, ball):
        a = sample_weighted_paths(ball, 0.5, 1.0, 0.01, 1000, seed=21)
        b = sample_weighted_paths(ball, 0.5, 1.0, 0.01, 1000, seed=21)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.log_weights, b.log_weights)

    def test_path_identity_independent_of_ensemble_size(self, ball):
        small = sample_weighted_paths(ball, 0.5, 1.0, 0.01, 1000, seed=21)
        big = sample_weighted_paths(ball, 0.5, 1.0, 0.01, 1300, seed=21)
        assert np.array_equal(big.positions[:1000], small.positions)
        assert np.array_equal(big.log_weights[:1000], small.log_weights)

    def test_default_recording_grid(self, free_ensemble):
        times = free_ensemble.times
        assert len(times) == 101
        assert times[0] == 0.0
        assert times[-1] == 1.0

    def test_start_offset_recorded(self, ball):
        e = sample_weighted_paths(
            ball, 0.0, 1.0, 0.01, 1000, seed=2, start=(2.0, 0.0, 0.0),
            record_times=[0.0, 1.0],
        )
        assert np.all(e.positions[:, 0, :] == np.array([2.0, 0.0, 0.0]))

    def test_ess_shrinks_with_coupling(self, ball):
        import warnings

        ratios = []
        for beta in (0.0, 0.6, 1.2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                e = sample_weighted_paths(ball, beta, 9.0, 0.01, 1000, seed=4)
            ratios.append(e.ess_ratio)
        assert ratios[0] > ratios[1] > ratios[2]

    def test_collapse_warning(self, ball):
        with pytest.warns(RuntimeWarning, match="ratio"):
            e = sample_weighted_paths(ball, 1.2, 25.0, 0.01, 1000, seed=1)
        assert e.ess_warning

    def test_halved_dt_keeps_mean_weight(self, ball):
        coarse = sample_weighted_paths(ball, 0.3, 1.0, 0.01, 4000, seed=5)
        fine = sample_weighted_paths(ball, 0.3, 1.0, 0.005, 4000, seed=5)
        m_c = float(np.exp(coarse.log_weights).mean())
        m_f = float(np.exp(fine.log_weights).mean())
        assert m_c == pytest.approx(m_f, rel=1e-2)

    def test_argument_validation(self, ball):
        with pytest.raises(ValueError, match="beta"):
            sample_weighted_paths(ball, float("nan"), 1.0, 0.01, 1000, seed=0)
        with pytest.raises(ValueError, match="positive"):
            sample_weighted_paths(ball, 0.0, -1.0, 0.01, 1000, seed=0)
        with pytest.raises(ValueError, match="integer multiple"):
            sample_weighted_paths(ball, 0.0, 0.9, 0.007, 1000, seed=0)
        with pytest.raises(ValueError, match="too coarse"):
            sample_weighted_paths(ball, 0.0, 1.0, 0.02, 1000, seed=0)
        with pytest.raises(ValueError, match=">= 1000"):
            sample_weighted_paths(ball, 0.0, 1.0, 0.01, 64, seed=0)
        with pytest.raises(ValueError, match="start"):
            sample_weighted_paths(ball, 0.0, 1.0, 0.01, 1000, seed=0, start=(1.0, 2.0))
        with pytest.raises(ValueError, match="record_times"):
            sample_weighted_paths(ball, 0.0, 1.0, 0.01, 1000, seed=0, record_times=[2.0])
        with pytest.raises(ValueError, match="record_times"):
            sample_weighted_paths(ball, 0.0, 1.0, 0.01, 1000, seed=0, record_times=[])


class TestRescale:
    def test_rescaling_is_exact(self, ball):
        e = sample_weighted_paths(
            ball, 0.4, 4.0, 0.01, 1000, seed=8, record_times=[1.0, 2.0, 4.0]
        )
        r = rescale_ensemble(e)
        assert r.T == 1.0
        assert r.dt == pytest.approx(0.0025)
        assert np.array_equal(r.times, np.array([0.25, 0.5, 1.0]))
        assert np.array_equal(r.positions, e.positions / 2.0)
        assert np.array_equal(r.log_weights, e.log_weights)
        assert r.beta == e.beta and r.seed == e.seed

    def test_rescaling_commutes_with_marginal(self, ball):
        # the diffusive map r -> r / sqrt(T) on radii, t -> t / T on
        # times, with weights untouched
        e = sample_weighted_paths(
            ball, 0.4, 4.0, 0.01, 1000, seed=8, record_times=[2.0]
        )
        r = rescale_ensemble(e)
        raw = empirical_radial_marginal(e, 2.0)
        scaled = empirical_radial_marginal(r, 0.5)
        probes = np.linspace(0.0, 3.0, 50)
        assert np.array_equal(scaled.evaluate(probes), raw.evaluate(2.0 * probes))


class TestWeightedECDF:
    def test_known_distance(self):
        e = WeightedECDF.from_samples(np.array([1.0, 2.0, 3.0]), np.ones(3))
        ks = ks_distance(e, lambda r: np.clip(np.asarray(r) / 4.0, 0.0, 1.0))
        assert ks == pytest.approx(0.25, abs=1e-12)

    def test_right_continuous_steps(self):
        e = WeightedECDF.from_samples(np.array([1.0, 2.0, 3.0]), np.ones(3))
        got = e.evaluate(np.array([0.5, 1.0, 1.5, 3.0, 5.0]))
        want = np.array([0.0, 1.0 / 3.0, 1.0 / 3.0, 1.0, 1.0])
        assert np.allclose(got, want, atol=1e-12)

    def test_log_weight_construction(self):
        samples = np.array([1.0, 2.0])
        e = WeightedECDF.from_log_weights(samples, np.array([0.0, math.log(3.0)]))
        # atom masses 1/4 and 3/4
        assert e.evaluate(np.array([1.0, 2.0])) == pytest.approx([0.25, 1.0])

    def test_degenerate_weights_rejected(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="total weight"):
                WeightedECDF.from_log_weights(
                    np.array([1.0, 2.0]), np.array([-np.inf, -np.inf])
                )
        with pytest.raises(ValueError, match="non-negative"):
            WeightedECDF.from_samples(np.array([1.0, 2.0]), np.array([1.0, -1.0]))

    def test_model_cdf_range_checked(self):
        e = WeightedECDF.from_samples(np.array([1.0, 2.0]), np.ones(2))
        with pytest.raises(ValueError, match="model_cdf"):
            ks_distance(e, lambda r: 2.0 * np.asarray(r))


def _tiny_ensemble():
    times = np.array([0.5, 1.0])
    pos = np.arange(24, dtype=float).reshape(4, 2, 3) / 10.0
    return PathEnsemble(times, pos, np.zeros(4), T=1.0, dt=0.5, beta=0.0, seed=9)


class TestEnsembleIO:
    def test_round_trip_is_exact(self, tmp_path):
        e = _tiny_ensemble()
        p = tmp_path / "e.bin"
        save_ensemble(e, p)
        back = load_ensemble(p)
        assert np.array_equal(back.times, e.times)
        assert np.array_equal(back.positions, e.positions)
        assert np.array_equal(back.log_weights, e.log_weights)
        assert (back.T, back.dt, back.beta, back.seed) == (e.T, e.dt, e.beta, e.seed)

    def test_corruption_detected(self, tmp_path):
        p = tmp_path / "e.bin"
        save_ensemble(_tiny_ensemble(), p)
        good = p.read_bytes()

        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XXXX" + good[4:])
        with pytest.raises(ValueError, match="not an ensemble file"):
            load_ensemble(bad)

        raw = bytearray(good)
        raw[4] = 99
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unsupported ensemble version"):
            load_ensemble(bad)

        bad.write_bytes(good[:16])
        with pytest.raises(ValueError, match="truncated"):
            load_ensemble(bad)

        bad.write_bytes(good[:-8])
        with pytest.raises(ValueError, match="payload"):
            load_ensemble(bad)

    def test_ensemble_validation(self):
        times = np.array([0.5, 1.0])
        pos = np.zeros((4, 2, 3))
        with pytest.raises(ValueError, match="strictly increasing"):
            PathEnsemble(times[::-1].copy(), pos, np.zeros(4), T=1.0, dt=0.5, beta=0.0, seed=0)
        with pytest.raises(ValueError, match=r"\[0, T\]"):
            PathEnsemble(np.array([0.5, 2.0]), pos, np.zeros(4), T=1.0, dt=0.5, beta=0.0, seed=0)
        with pytest.raises(ValueError):
            PathEnsemble(times, np.zeros((4, 3, 3)), np.zeros(4), T=1.0, dt=0.5, beta=0.0, seed=0)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="finite"):
                PathEnsemble(times, pos, np.array([0.0, np.nan, 0.0, 0.0]), T=1.0, dt=0.5, beta=0.0, seed=0)
        with pytest.raises(ValueError, match="positive"):
            PathEnsemble(times, pos, np.zeros(4), T=1.0, dt=-0.5, beta=0.0, seed=0)


class TestDerivedSeeds:
    def test_frozen_chain(self):
        # partner runs must never collide with the base stream; these
        # values are part of the reproducibility contract
        assert [_derived_seed(0, k) for k in range(3)] == [
            2968811710,
            3964924996,
            3141116543,
        ]
        assert _derived_seed(123, 7) == 1738871637


class TestTheorem2Verdicts:
    def test_exact_model_control_passes(self, ball, ball_summary):
        rep = verify_theorem2(
            ball, 0.0, (4.0, 16.0), (0.5, 1.0), n=2000, seed=4,
            beta_override=0.0, model="wiener", summary=ball_summary,
        )
        assert rep.passed is True
        assert not rep.inconclusive
        assert set(rep.ess) == {4.0, 16.0}
        assert len(rep.table) == 4
        for t, flags in rep.per_time.items():
            assert flags["decreasing"] and flags["final_below"]
        assert rep.params["model"] == "wiener"

    def test_collapsed_run_is_inconclusive(self, ball, ball_summary):
        rep = verify_theorem2(
            ball, 2.0, (25.0,), (1.0,), n=2000, seed=3, summary=ball_summary
        )
        assert rep.inconclusive
        assert rep.passed is None
        assert rep.ess[25.0] < 0.01 * 2000

    def test_predicted_collapse_is_inconclusive(self, ball, ball_summary):
        # at chi = 0 and T = 25 the weights' second moment grows like
        # e^{lam(2) 25} ~ e^11, far past 1/ESS floor; this seed's realized
        # ESS stays above the floor, so only the prediction catches it
        rep = verify_theorem2(
            ball, 0.0, (9.0, 25.0), (0.5, 1.0), n=8000, seed=0, summary=ball_summary
        )
        assert rep.inconclusive
        assert rep.passed is None

    def test_verdict_serialization(self, tmp_path):
        rep = Theorem2Report(
            params={"chi": 0.0},
            ess={4.0: 10.0},
            table=[(4.0, 1.0, 0.02)],
            inconclusive=False,
            passed=True,
            per_time={1.0: {"decreasing": True, "final_below": True}},
        )
        lines = rep.to_csv().splitlines()
        assert lines[0] == "T,t,ks"
        assert lines[1] == "4.0,1.0,0.02"
        p = tmp_path / "rep.json"
        rep.save_json(p)
        assert json.loads(p.read_text()) == rep.to_json_dict()

    def test_argument_validation(self, ball, ball_summary):
        with pytest.raises(ValueError, match="model"):
            verify_theorem2(ball, 0.0, (4.0,), (1.0,), n=1000, seed=0,
                            model="exact", summary=ball_summary)
        with pytest.raises(ValueError, match="T_list"):
            verify_theorem2(ball, 0.0, (16.0, 4.0), (1.0,), n=1000, seed=0,
                            summary=ball_summary)
        with pytest.raises(ValueError, match="times"):
            verify_theorem2(ball, 0.0, (4.0,), (1.5,), n=1000, seed=0,
                            summary=ball_summary)


class TestPartitionFunctionalSweep:
    def test_conclusive_sweep(self, ball, ball_summary):
        f = lambda r: np.exp(-np.asarray(r) ** 2 / 2.0)
        rep = verify_prop2(
            ball, 0.5, (9.0, 25.0), 1.0, (0.5, 0.0, 0.0), f,
            n=2000, seed=7, summary=ball_summary,
        )
        assert not rep.inconclusive
        assert rep.gaps_decreasing
        # the reference is the T-independent limit functional
        refs = [row[2] for row in rep.rows]
        assert refs[0] == pytest.approx(refs[1], rel=1e-3)
        assert rep.to_csv().splitlines()[0] == "T,estimate,reference,rel_gap,se"
        assert sorted(rep.to_json_dict()) == [
            "gaps_decreasing", "inconclusive", "notes", "params", "rows",
        ]

    def test_gap_at_noise_floor_is_inconclusive(self, ball, ball_summary):
        # by T = 16 the true gap has shrunk below this n's standard
        # error, so no decrease can be certified
        f = lambda r: np.exp(-np.asarray(r) ** 2 / 2.0)
        rep = verify_prop2(
            ball, 0.5, (9.0, 16.0), 1.0, (0.5, 0.0, 0.0), f,
            n=2000, seed=7, summary=ball_summary,
        )
        assert rep.inconclusive

    def test_start_point_validated(self, ball, ball_summary):
        f = lambda r: np.asarray(r)
        with pytest.raises(ValueError, match="y0"):
            verify_prop2(ball, 0.5, (9.0,), 1.0, (0.0, 0.0, 0.0), f,
                         n=1000, seed=0, summary=ball_summary)
