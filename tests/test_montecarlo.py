"""Importance-sampled path ensembles and the statistical verdicts built on them.

Weighted sampling near a collapse point is the one place where every
empirical health signal can lie at once, so the verdict objects carry an
explicit inconclusive state.  The tests pin both directions: runs that must
stay conclusive, and runs whose evidence is provably insufficient.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from polymer_lab import montecarlo
from polymer_lab.cli import _write_csv, _write_json
from polymer_lab.montecarlo import (
    PathEnsemble,
    Theorem2Report,
    _derived_seed,
    ks_distance,
    sample_weighted_paths,
    verify_prop2,
    verify_theorem2,
)
from polymer_lab.radial import wiener_radial_cdf


@pytest.fixture(scope="module")
def free_ensemble(ball):
    # coupling off: every weight is exactly one, terminal radius is the
    # free radial law
    return sample_weighted_paths(ball, 0.0, 1.0, 0.01, 4000, seed=13)


def _traced_peak(call) -> int:
    """Peak bytes traced while a second call() runs.

    The first call warms numpy's lazy imports (numpy.random, and numpy.ma
    under np.unique), about 1.2 MB traced when the file runs alone.
    """
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSampler:
    def test_oversized_n_refused_before_allocating(self, ball):
        def call():
            with pytest.raises(ValueError, match=r"n = 1000000000000 paths need"):
                sample_weighted_paths(ball, 1.0, 9.0, 0.01, 10**12, seed=0)

        assert _traced_peak(call) < 2**20

    def test_long_horizon_refused_before_allocating(self, ball):
        # 1e11 steps: one path's buffers alone take 3.2 TB
        def call():
            with pytest.raises(ValueError, match=r"n = 1000 paths need"):
                sample_weighted_paths(ball, 1.0, 1e9, 0.01, 1000, seed=0)

        assert _traced_peak(call) < 2**20

    def test_worker_buffers_bounded(self, ball, monkeypatch):
        # two workers' path and r^2 buffers, about 1.25 MiB each, and 2000
        # paths' two recorded positions trace 2.8 MiB; with a separate path
        # and v buffer per worker, as 2 MiB each, they traced 10.9 MiB
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
        peak = _traced_peak(lambda: sample_weighted_paths(
            ball, 1.0, 25.0, 0.01, 2000, seed=0, record_times=[12.5, 25.0]
        ))
        assert peak < 4 * 2**20

    def test_free_weights_are_unity(self, free_ensemble):
        assert np.all(free_ensemble.log_weights == 0.0)
        assert free_ensemble.ess == pytest.approx(4000.0)
        assert not free_ensemble.ess_warning

    def test_free_terminal_radius(self, free_ensemble):
        radii = np.linalg.norm(free_ensemble.positions[:, -1, :], axis=1)
        ks = ks_distance(radii, free_ensemble.log_weights, lambda r: wiener_radial_cdf(r, 1.0))
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

    def test_weighted_paths_pinned_bit_for_bit(self, ball):
        # digests taken from the single-threaded 64-path chunk loop, so a
        # block, mask or thread layout that moves one bit fails here.
        # T = 25 has 2501 grid points, so 1000 paths make 62 full 16-path
        # blocks and a ragged 8-path one; the off-origin start at T = 4
        # sends paths across the well edge both ways
        cases = [
            (dict(beta=1.0, T=25.0, seed=11, record_times=[12.5, 25.0]),
             "41db4a6b377cee15f6964b1815cfbfe52247650c72340322265d8f0ca0e32729",
             "fb73ea87f1c6934ab7b85887e191d99ab47c87f0e3872e2c41a46928335aa453"),
            (dict(beta=0.5, T=4.0, seed=3, start=(1.0, 0.0, 0.0)),
             "006543c80ca055286be14aa7fd135d00ec23852d8afe136e3b660e94cfc21e69",
             "1f1e5238c25177040b3a5559731b934f930733900e533654b4599310a316cb1b"),
        ]
        for kwargs, pos_digest, lw_digest in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                e = sample_weighted_paths(ball, dt=0.01, n=1000, **kwargs)
            assert hashlib.sha256(e.positions.tobytes()).hexdigest() == pos_digest
            assert hashlib.sha256(e.log_weights.tobytes()).hexdigest() == lw_digest
        # some paths of the second case never reach the well, most do
        assert 0.0 < np.mean(e.log_weights == 0.0) < 0.5

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_draws_independent_of_block_size(self, ball, monkeypatch, block):
        # digests taken from the four-buffer sampler, which recorded step 0
        # from its path buffer; T = 4 has 401 grid points, each path's
        # buffers take 4 * 8 * 401 bytes, and the off-origin start crosses
        # the well edge
        monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", block * 4 * 8 * 401)
        sizes = set()
        simulate = montecarlo._simulate_block

        def spy(normals, lo, hi, *args):
            sizes.add(hi - lo)
            simulate(normals, lo, hi, *args)

        monkeypatch.setattr(montecarlo, "_simulate_block", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            e = sample_weighted_paths(
                ball, 0.8, 4.0, 0.01, 1000, seed=17, start=(0.3, -0.7, 1.1),
                record_times=[0.0, 0.01, 2.0, 4.0],
            )
        assert max(sizes) == block
        assert np.all(e.positions[:, 0, :] == np.array([0.3, -0.7, 1.1]))
        assert hashlib.sha256(e.positions.tobytes()).hexdigest() == (
            "d34e73d4e048a4bc3de592badb41f22ca4c05f58b7d83b3f4d0fdf6c3ec2c9d1")
        assert hashlib.sha256(e.log_weights.tobytes()).hexdigest() == (
            "2900b64b99fee51f93370e7b6224c8ac1bbb6dd896ed39c7f08058664599ce7a")

    def test_draws_independent_of_core_count(self, ball, monkeypatch):
        # 1003 paths at T = 2 make 15 full 64-path blocks and a ragged one,
        # dealt to one worker or round-robin to three
        runs = []
        for cores in (1, 3):
            monkeypatch.setattr(montecarlo, "_usable_cores", lambda c=cores: c)
            runs.append(sample_weighted_paths(
                ball, 0.8, 2.0, 0.01, 1003, seed=9, start=(0.5, 0.5, 0.0)
            ))
        assert np.array_equal(runs[0].positions, runs[1].positions)
        assert np.array_equal(runs[0].log_weights, runs[1].log_weights)

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
        # the verdict scores each time's recorded positions divided by
        # sqrt(T), with the weights untouched, at the snapped step index
        rep = verify_theorem2(
            ball, 0.0, (4.0,), (0.5, 1.0), n=1000, seed=8,
            beta_override=0.4, model="wiener",
        )
        e = sample_weighted_paths(
            ball, 0.4, 4.0, 0.01, 1000, seed=_derived_seed(8, 0), record_times=[2.0, 4.0]
        )
        for j, t in enumerate((0.5, 1.0)):
            # the verdict's own arithmetic: np.linalg.norm rounds some radii
            # one ulp apart, and the model CDF need not map both to one value
            pos = e.positions[:, j, :] / math.sqrt(4.0)
            radii = np.sqrt(np.einsum("ij,ij->i", pos, pos))
            want = ks_distance(radii, e.log_weights, lambda r, t=t: wiener_radial_cdf(r, t))
            assert rep.table[j] == (4.0, t, want)


class TestWeightedECDF:
    """The self-normalized weighted ECDF that ks_distance scores."""

    def test_known_distance(self):
        ks = ks_distance(
            np.array([1.0, 2.0, 3.0]), np.zeros(3),
            lambda r: np.clip(np.asarray(r) / 4.0, 0.0, 1.0),
        )
        assert ks == pytest.approx(0.25, abs=1e-12)

    def test_log_weight_construction(self):
        # atom masses 1/4 at r = 1 and 3/4 at r = 2, whatever the input
        # order; against model values 0.1 and 0.95 the largest gap is the
        # ECDF's left limit 1/4 at r = 2 (equal masses would give 0.45,
        # swapped ones 0.65)
        ks = ks_distance(
            np.array([2.0, 1.0]), np.array([math.log(3.0), 0.0]),
            lambda r: np.where(np.asarray(r) < 1.5, 0.1, 0.95),
        )
        assert ks == pytest.approx(0.7, abs=1e-12)

    def test_degenerate_weights_rejected(self):
        with pytest.raises(ValueError, match="log-weight must be finite"):
            ks_distance(np.array([1.0, 2.0]), np.array([-np.inf, -np.inf]), lambda r: r)
        with pytest.raises(ValueError, match="matching"):
            ks_distance(np.array([1.0, 2.0]), np.zeros(3), lambda r: r)

    def test_model_cdf_range_checked(self):
        with pytest.raises(ValueError, match="model_cdf"):
            ks_distance(np.array([1.0, 2.0]), np.zeros(2), lambda r: 2.0 * np.asarray(r))


class TestEnsembleIO:
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
    def test_exact_model_control_passes(self, ball):
        rep = verify_theorem2(
            ball, 0.0, (4.0, 16.0), (0.5, 1.0), n=2000, seed=4,
            beta_override=0.0, model="wiener",
        )
        assert rep.passed is True
        assert not rep.inconclusive
        assert set(rep.ess) == {4.0, 16.0}
        assert len(rep.table) == 4
        for t, flags in rep.per_time.items():
            assert flags["decreasing"] and flags["final_below"]
        assert rep.params["model"] == "wiener"

    def test_collapsed_run_is_inconclusive(self, ball):
        rep = verify_theorem2(
            ball, 2.0, (25.0,), (1.0,), n=2000, seed=3
        )
        assert rep.inconclusive
        assert rep.passed is None
        assert rep.ess[25.0] < 0.01 * 2000
        assert rep.inconclusive_reasons == {25.0: "realized_ess"}

    def test_predicted_collapse_is_inconclusive(self, ball):
        # at chi = 0 and T = 25 the weights' second moment grows like
        # e^{lam(2) 25} ~ e^11, far past 1/ESS floor; this seed's realized
        # ESS stays above the floor, so only the prediction catches it
        rep = verify_theorem2(
            ball, 0.0, (9.0, 25.0), (0.5, 1.0), n=8000, seed=0
        )
        assert rep.inconclusive
        assert rep.passed is None
        assert min(rep.ess.values()) > 0.01 * 8000
        assert rep.inconclusive_reasons == {25.0: "predicted_moment"}

    def test_verdict_serialization(self, tmp_path):
        rep = Theorem2Report(
            params={"chi": 0.0},
            ess={4.0: 10.0},
            table=[(4.0, 1.0, 0.02)],
            inconclusive=False,
            inconclusive_reasons={},
            passed=True,
            per_time={1.0: {"decreasing": True, "final_below": True}},
        )
        c = tmp_path / "rep.csv"
        _write_csv(c, ("T", "t", "ks"), rep.table)
        lines = c.read_text().splitlines()
        assert lines[0] == "T,t,ks"
        assert lines[1] == "4.0,1.0,0.02"
        p = tmp_path / "rep.json"
        _write_json(p, dataclasses.asdict(rep))
        payload = json.loads(p.read_text())
        assert list(payload) == [
            "params", "ess", "table", "inconclusive", "inconclusive_reasons",
            "passed", "per_time", "notes",
        ]
        # float keys as repr(k), tuples as lists
        assert payload["ess"] == {"4.0": 10.0}
        assert payload["table"] == [[4.0, 1.0, 0.02]]
        assert payload["per_time"] == {"1.0": {"decreasing": True, "final_below": True}}

    def test_argument_validation(self, ball):
        with pytest.raises(ValueError, match="model"):
            verify_theorem2(ball, 0.0, (4.0,), (1.0,), n=1000, seed=0,
                            model="exact")
        with pytest.raises(ValueError, match="T_list"):
            verify_theorem2(ball, 0.0, (16.0, 4.0), (1.0,), n=1000, seed=0)
        with pytest.raises(ValueError, match="times"):
            verify_theorem2(ball, 0.0, (4.0,), (1.5,), n=1000, seed=0)
        # t T = 0.001 < dt / 2 would record the point mass at the start and
        # report KS = 1 rows as a failed verdict
        with pytest.raises(ValueError, match=r"t = 0\.001 at T = 1\.0"):
            verify_theorem2(ball, 0, [1, 4], [0.001, 1], n=1000, seed=0,
                            beta_override=0.4, model="wiener")


class TestPartitionFunctionalSweep:
    def test_conclusive_sweep(self, ball):
        f = lambda r: np.exp(-np.asarray(r) ** 2 / 2.0)
        rep = verify_prop2(
            ball, 0.5, (9.0, 25.0), 1.0, (0.5, 0.0, 0.0), f,
            n=2000, seed=7,
        )
        assert not rep.inconclusive
        assert rep.gaps_decreasing
        # the reference is the T-independent limit functional
        refs = [row[2] for row in rep.rows]
        assert refs[0] == pytest.approx(refs[1], rel=1e-3)
        assert all(len(row) == 5 for row in rep.rows)
        assert sorted(dataclasses.asdict(rep)) == [
            "gaps_decreasing", "inconclusive", "inconclusive_reasons", "notes",
            "params", "rows",
        ]
        assert rep.inconclusive_reasons == {}

    def test_gap_at_noise_floor_is_inconclusive(self, ball):
        # by T = 16 the true gap has shrunk below this n's standard
        # error, so no decrease can be certified
        f = lambda r: np.exp(-np.asarray(r) ** 2 / 2.0)
        rep = verify_prop2(
            ball, 0.5, (9.0, 16.0), 1.0, (0.5, 0.0, 0.0), f,
            n=2000, seed=7,
        )
        assert rep.inconclusive
        assert rep.inconclusive_reasons == {16.0: "standard_error"}

    def test_start_point_validated(self, ball):
        f = lambda r: np.asarray(r)
        with pytest.raises(ValueError, match="y0"):
            verify_prop2(ball, 0.5, (9.0,), 1.0, (0.0, 0.0, 0.0), f,
                         n=1000, seed=0)
