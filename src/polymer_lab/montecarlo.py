"""Weighted Brownian ensembles and the Monte Carlo verdicts scored on them.

Self-normalized importance sampling from the Wiener measure: each path
carries a Gibbs weight e^{beta * trapezoid(v along path)}, the partition
function cancels on normalization, and the recorded health metric is the
effective sample size (Sum w)^2 / Sum w^2.  Near criticality the weight is
dominated by paths that sit inside the well for a macroscopic fraction of
the horizon, so the ESS of a plain Wiener proposal decays exponentially in
T; verification reports detect that collapse and mark themselves
inconclusive instead of failing.  Variance reduction beyond
self-normalization is deliberately out of scope.

Every path draws from its own random stream spawned off the ensemble seed,
so path i is reproducible independently of the ensemble size.  The seed
words of all n streams come from one vectorized pass over SeedSequence's
mixing, and each worker keeps a single PCG64 that it re-seeds to path i's
stream just before drawing path i.  The arithmetic runs in blocks of paths
sized to about 2 MB per buffer, on one worker thread per usable core (one
in all for paths under 200 steps), and evaluates v only at the points
inside its support; the draws, positions and weights are bit-for-bit the
same whatever the block size or the core count.  Positions are recorded
only at the requested record times; weights always accumulate over the
full step grid.

The verdicts read a recorded time's positions straight from the ensemble's
array, rescale them diffusively by 1/sqrt(T), and score the weighted radii
against a model CDF with ks_distance.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import spectral, zerorange
from ._streams import refuse_oversized, seed_pcg64, spawn_words
from .laplace import kernel_closed_form
from .potentials import RadialPotential
from .radial import gauss_sphere_integral, wiener_radial_cdf
from .zerorange import ZeroRangeParams

__all__ = [
    "PathEnsemble",
    "sample_weighted_paths",
    "ks_distance",
    "Theorem2Report",
    "verify_theorem2",
    "Prop2Report",
    "verify_prop2",
]

# Below this ESS/n the self-normalized estimator is running on a handful of
# paths; ensembles warn and verification reports turn inconclusive.
_ESS_FLOOR = 0.01

# Each worker's increment and path buffers hold about this many bytes, and
# never more than _BLOCK_PATHS_MAX paths.
_BLOCK_BYTES = 2 << 20
_BLOCK_PATHS_MAX = 64
# Paths shorter than this run on one worker: each path's normal fill is then
# too short a GIL-free call for a second worker to gain more than the GIL
# hand-overs cost (measured at 50-100 steps, break-even near 200).
_THREADED_MIN_STEPS = 200

# a Theorem-2 pass needs the largest horizon's KS below this at every time
_KS_THRESHOLD = 0.05

_THRESHOLD_NOTE = (
    "KS thresholds and T schedules are engineering choices; no convergence "
    "rate is available to set them from first principles."
)


@dataclass(frozen=True)
class PathEnsemble:
    """Wiener paths with Gibbs log-weights.

    positions holds the recorded trajectory points only, shape
    (n_paths, len(times), 3); weights live in log scale because at large
    horizons e^{beta int v} overflows double precision long before the
    sampler breaks down.
    """

    times: np.ndarray
    positions: np.ndarray
    log_weights: np.ndarray
    T: float
    dt: float
    beta: float
    seed: int
    ess_warning: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        pos = np.asarray(self.positions, dtype=float)
        lw = np.asarray(self.log_weights, dtype=float)
        if times.ndim != 1 or times.size == 0 or np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be non-empty and strictly increasing")
        if times[0] < 0.0 or times[-1] > self.T * (1.0 + 1e-12):
            raise ValueError("times must lie in [0, T]")
        if pos.shape != (lw.size, times.size, 3):
            raise ValueError(
                f"positions shape {pos.shape} does not match "
                f"(n_paths, {times.size}, 3)"
            )
        if not np.all(np.isfinite(lw)):
            raise ValueError("log-weights must be finite")
        if not (self.dt > 0.0 and self.T > 0.0):
            raise ValueError("dt and T must be positive")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "log_weights", lw)
        if self.ess_ratio < _ESS_FLOOR:
            object.__setattr__(self, "ess_warning", True)
            warnings.warn(
                f"effective sample size {self.ess:.2f} of {self.n_paths} paths "
                f"(ratio {self.ess_ratio:.2e}); weighted estimates are "
                "unreliable",
                RuntimeWarning,
                stacklevel=2,
            )

    @property
    def n_paths(self) -> int:
        return int(self.log_weights.size)

    @property
    def weights(self) -> np.ndarray:
        """Gibbs weights e^{log_weights}; may overflow to inf at huge horizons."""
        return np.exp(self.log_weights)

    @property
    def ess(self) -> float:
        w = np.exp(self.log_weights - self.log_weights.max())
        return float(np.sum(w) ** 2 / np.sum(w * w))

    @property
    def ess_ratio(self) -> float:
        return self.ess / self.n_paths


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _snap_record_times(record_times, T: float, dt: float, steps: int) -> np.ndarray:
    if record_times is None:
        ts = np.linspace(0.0, T, 101)
    else:
        ts = np.asarray(record_times, dtype=float)
        if ts.ndim != 1 or ts.size == 0:
            raise ValueError("record_times must be a non-empty 1-d sequence")
        if np.any(ts < 0.0) or np.any(ts > T * (1.0 + 1e-12)):
            raise ValueError("record_times must lie in [0, T]")
    idx = np.unique(np.clip(np.rint(ts / dt).astype(int), 0, steps))
    return idx


def sample_weighted_paths(
    v: RadialPotential,
    beta: float,
    T: float,
    dt: float,
    n: int,
    seed: int,
    start=(0.0, 0.0, 0.0),
    record_times=None,
) -> PathEnsemble:
    """Simulate n weighted Wiener paths on [0, T].

    Increments are standard Gaussians scaled by sqrt(dt); the log-weight is
    beta times the trapezoid rule for int v(|path|) dt over the full step
    grid.  dt must resolve the well: dt <= 0.01 * min(1, R_support^2).
    Path i draws from the i-th stream spawned off SeedSequence(seed), so it
    is deterministic in (seed, i) alone; the worker count and the block
    size do not change a bit of the output.
    """
    if not (math.isfinite(beta)):
        raise ValueError("beta must be finite")
    if not (math.isfinite(T) and T > 0.0 and math.isfinite(dt) and dt > 0.0):
        raise ValueError("T and dt must be positive and finite")
    R = v.r_support
    cap = 0.01 * min(1.0, R * R)
    if dt > cap * (1.0 + 1e-12):
        raise ValueError(
            f"dt = {dt:g} too coarse for a well of radius {R:g}; need "
            f"dt <= {cap:g}"
        )
    if not (isinstance(n, (int, np.integer)) and n >= 1000):
        raise ValueError(f"n must be an integer >= 1000, got {n!r}")
    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-8 * max(1.0, T):
        raise ValueError(f"T = {T:g} is not an integer multiple of dt = {dt:g}")
    start = np.asarray(start, dtype=float)
    if start.shape != (3,) or not np.all(np.isfinite(start)):
        raise ValueError("start must be a finite point in R^3")

    rec_idx = _snap_record_times(record_times, T, dt, steps)
    times = rec_idx * dt

    n = int(n)
    # positions at the record times, the log-weight and four stream words
    # per path; the workers' buffers are bounded by _BLOCK_BYTES
    refuse_oversized(n, 8 * n * (3 * rec_idx.size + 5))
    # stream i belongs to path i whatever n, the block size or the worker
    # count is
    words = spawn_words(seed, n)
    positions = np.empty((n, rec_idx.size, 3))
    log_weights = np.empty(n)
    # Paths go in blocks of about _BLOCK_BYTES per buffer, so every pass
    # over a block (scale, cumsum, shift, r^2, v, sum) runs in cache at any
    # horizon.  Block b goes to worker b % workers; the normal fills and
    # ufunc loops release the GIL, so the workers run on separate cores.
    block = max(1, min(_BLOCK_PATHS_MAX, _BLOCK_BYTES // (3 * 8 * (steps + 1))))
    bounds = [(lo, min(lo + block, n)) for lo in range(0, n, block)]
    workers = 1
    if steps >= _THREADED_MIN_STEPS:
        workers = min(_usable_cores(), len(bounds))

    def work(mine):
        gen = np.random.Generator(np.random.PCG64(0))

        def normals(i, out):
            # path i's stream: the worker's one generator, re-seeded
            seed_pcg64(gen.bit_generator, words[i].tolist())
            gen.standard_normal(out=out)

        # increments, path, r^2 and v; coordinates-major so the cumsum runs
        # on the contiguous axis
        bufs = (
            np.empty((block, 3, steps)),
            np.empty((block, 3, steps + 1)),
            np.empty((block, steps + 1)),
            np.empty((block, steps + 1)),
        )
        for lo, hi in mine:
            _simulate_block(
                normals, lo, hi, bufs, v, beta, dt, start, rec_idx,
                positions, log_weights,
            )

    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(work, bounds[w::workers]) for w in range(workers)]
        # result() re-raises a worker's exception (a MemoryError included)
        for f in futures:
            f.result()
    return PathEnsemble(
        times=times,
        positions=positions,
        log_weights=log_weights,
        T=float(T),
        dt=float(dt),
        beta=float(beta),
        seed=int(seed),
    )


def _simulate_block(
    normals, lo, hi, bufs, v, beta, dt, start, rec_idx, positions, log_weights
) -> None:
    """Paths lo..hi-1 into rows lo..hi-1 of positions and log_weights.

    normals(i, out) fills out with standard normals from path i's stream.
    """
    incr, path, r2, vals = bufs
    m = hi - lo
    for j in range(m):
        normals(lo + j, incr[j])
    incr[:m] *= math.sqrt(dt)
    np.cumsum(incr[:m], axis=2, out=path[:m, :, 1:])
    path[:m, :, 1:] += start[:, np.newaxis]
    path[:m, :, 0] = start
    np.einsum("ikj,ikj->ij", path[:m], path[:m], out=r2[:m])
    # v only where it can be nonzero (the slack keeps round-off in r^2 from
    # dropping a point on the edge); the zeros elsewhere keep the sum below
    # running over the same full-grid array
    inside = r2[:m] <= (v.r_support * (1.0 + 1e-9)) ** 2
    vals[:m] = 0.0
    vals[:m][inside] = v(np.sqrt(r2[:m][inside]))
    # trapezoid along the grid: interior points full weight, ends half
    log_weights[lo:hi] = beta * dt * (
        vals[:m].sum(axis=1) - 0.5 * (vals[:m, 0] + vals[:m, -1])
    )
    positions[lo:hi] = path[:m, :, rec_idx].transpose(0, 2, 1)


def ks_distance(samples, log_weights, model_cdf) -> float:
    """sup over the samples of |weighted ECDF - model CDF|, both one-sided limits.

    Sample i carries the self-normalized weight e^{log_weights[i]}; the ECDF
    is right-continuous, and tied samples keep their input order.
    """
    samples = np.asarray(samples, dtype=float)
    lw = np.asarray(log_weights, dtype=float)
    if samples.ndim != 1 or samples.size == 0 or lw.shape != samples.shape:
        raise ValueError("samples and log_weights must be matching non-empty 1-d arrays")
    top = lw.max()
    if not math.isfinite(top):
        raise ValueError(f"the largest log-weight must be finite, got {top!r}")
    w = np.exp(lw - top)
    w = w / w.sum()
    order = np.argsort(samples, kind="stable")
    cum = np.cumsum(w[order]) / w.sum()
    cum[-1] = 1.0
    m = np.asarray(model_cdf(samples[order]), dtype=float)
    if np.any(m < -1e-12) or np.any(m > 1.0 + 1e-12):
        raise ValueError("model_cdf must map into [0, 1]")
    lo = np.concatenate(([0.0], cum[:-1]))
    d = float(max(np.max(np.abs(cum - m)), np.max(np.abs(lo - m))))
    return min(d, 1.0)


# ---------------------------------------------------------------------------
# Verification reports
# ---------------------------------------------------------------------------


def _derived_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence(entropy=(int(seed), int(k))).generate_state(1)[0])


def _window(v: RadialPotential, chi: float, T_list, dt: float) -> tuple[list, float, float]:
    """The drivers' prologue: check T_list and dt; the horizons, beta_cr and gamma = c chi."""
    T_list = spectral.window_horizons(T_list)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    summary = spectral.compute_summary(v)
    return T_list, summary.beta_cr, spectral.gamma_of_chi(summary, chi)


def _sample_quietly(*args, **kwargs) -> PathEnsemble:
    """sample_weighted_paths without its ESS warning; the drivers report ESS."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return sample_weighted_paths(*args, **kwargs)


def _weight_moment_exponent(v: RadialPotential, beta: float, horizon: float) -> float:
    """(lam(2 beta) - 2 lam(beta)) * horizon, the growth exponent of E[w^2]/E[w]^2.

    The weights' ESS ratio tends to the exponential of minus this, so the
    spectrum alone says when a horizon is out of reach.  Exponential weight
    tails hide that from the realized ESS and standard error whenever the
    dominant paths were never drawn.
    """
    lam2 = spectral.principal_eigenvalue(v, 2.0 * beta) or 0.0
    lam1 = spectral.principal_eigenvalue(v, beta) or 0.0
    return (lam2 - 2.0 * lam1) * horizon


@dataclass(frozen=True)
class Theorem2Report:
    """KS table of rescaled radial marginals against a model law."""

    params: dict
    ess: dict
    table: list
    inconclusive: bool
    # horizon -> "realized_ess" or "predicted_moment", for each horizon
    # that made the verdict inconclusive
    inconclusive_reasons: dict
    passed: bool | None
    per_time: dict
    notes: str = _THRESHOLD_NOTE


def verify_theorem2(
    v: RadialPotential,
    chi: float,
    T_list,
    times,
    n: int,
    seed: int,
    dt: float = 0.01,
    beta_override: float | None = None,
    model: str = "limit",
) -> Theorem2Report:
    """Convergence of rescaled marginals to the zero-range law.

    For each horizon T the coupling is beta_cr + chi / sqrt(T) (unless
    overridden), paths start at the origin, and the rescaled radial
    marginal at each t in times is compared to the model CDF: the
    zero-range marginal with gamma = c * chi by default, or the Wiener
    radial law with model="wiener".  Passing means every t shows a KS
    decrease from the smallest to the largest horizon and the largest
    horizon lands under 0.05.  ESS collapse (ratio below 1%) on
    any horizon makes the verdict inconclusive ("realized_ess"), and so does
    a predicted collapse ("predicted_moment"): a weight second moment more
    than 1/1% = 100 times the squared mean, which a realized sample can hide
    by never drawing the dominant paths.  The report keeps the reason per
    horizon.
    """
    if model not in ("limit", "wiener"):
        raise ValueError(f"model must be 'limit' or 'wiener', got {model!r}")
    T_list, beta_cr, gamma = _window(v, chi, T_list, dt)
    times = [float(t) for t in times]
    if not times or any(not 0.0 < t <= 1.0 for t in times):
        raise ValueError("times must lie in (0, 1]")
    for T in T_list:
        for t in times:
            # the marginal at recorded time 0 is a point mass at the start
            if round(t * T / dt) == 0:
                raise ValueError(
                    f"t = {t!r} at T = {T!r} snaps to recorded time 0 on the "
                    f"dt = {dt!r} grid; need t * T > dt / 2"
                )

    model_cdfs = {}
    for t in times:
        if model == "limit":
            dens = zerorange.marginal_radial(ZeroRangeParams(gamma), t)
            grid, cdf = dens.grid, dens.cdf()
            model_cdfs[t] = lambda r, g=grid, c=cdf: np.interp(r, g, c, left=0.0, right=1.0)
        else:
            model_cdfs[t] = lambda r, tt=t: wiener_radial_cdf(r, tt)

    rows = []
    ess = {}
    reasons = {}
    for k, T in enumerate(T_list):
        beta = beta_override if beta_override is not None else beta_cr + chi / math.sqrt(T)
        # each time's step index, and the sorted distinct ones the sampler records
        idx = [round(t * T / dt) for t in times]
        rec = sorted(set(idx))
        e = _sample_quietly(
            v, beta, T, dt, n, _derived_seed(seed, k), record_times=[i * dt for i in rec]
        )
        ess[T] = e.ess
        if e.ess_ratio < _ESS_FLOOR:
            reasons[T] = "realized_ess"
        for t, i in zip(times, idx):
            pos = e.positions[:, rec.index(i), :] / math.sqrt(T)
            radii = np.sqrt(np.einsum("ij,ij->i", pos, pos))
            rows.append((T, t, ks_distance(radii, e.log_weights, model_cdfs[t])))
        if T not in reasons and _weight_moment_exponent(v, beta, T) > -math.log(_ESS_FLOOR):
            reasons[T] = "predicted_moment"

    per_time = {}
    ok = True
    for t in times:
        ks_by_T = [ks for (T, tt, ks) in rows if tt == t]
        decreasing = ks_by_T[-1] < ks_by_T[0]
        below = ks_by_T[-1] < _KS_THRESHOLD
        per_time[t] = {"decreasing": decreasing, "final_below": below}
        ok = ok and decreasing and below
    return Theorem2Report(
        params={
            "chi": chi,
            "gamma": gamma,
            "T_list": T_list,
            "times": times,
            "n": n,
            "dt": dt,
            "seed": seed,
            "model": model,
            "beta_override": beta_override,
            "ks_threshold": _KS_THRESHOLD,
        },
        ess=ess,
        table=rows,
        inconclusive=bool(reasons),
        passed=None if reasons else ok,
        per_time=per_time,
        inconclusive_reasons=reasons,
    )


@dataclass(frozen=True)
class Prop2Report:
    """Partition-functional estimates against the kernel expansion."""

    params: dict
    rows: list  # (T, estimate, reference, rel_gap, se)
    gaps_decreasing: bool
    inconclusive: bool
    # horizon -> "standard_error", "realized_ess" or "predicted_moment", for
    # each horizon that made the verdict inconclusive
    inconclusive_reasons: dict
    notes: str = _THRESHOLD_NOTE


def verify_prop2(
    v: RadialPotential,
    chi: float,
    T_list,
    t: float,
    y0,
    f,
    n: int,
    seed: int,
    dt: float = 0.01,
) -> Prop2Report:
    """Off-origin partition functionals against the first-order kernel expansion.

    Estimates E^y[e^{beta int_0^{tT} v} f(|path(tT)|/sqrt(T))] with
    y = sqrt(T) * y0 by plain (unnormalized) Monte Carlo and compares against

        int [p0(tT, y, x) + T^{-1/2} I(gamma, (|x|+|y|)/sqrt(T), t)
             / (2 pi |x| |y|)] f(|x|/sqrt(T)) dx,

    reduced to a radial quadrature.  f is a radial profile evaluated on the
    diffusively rescaled endpoint, so a single callable serves the whole T
    sweep (y0 is likewise the rescaled start).  Relative gaps should shrink
    as T grows; a Monte Carlo standard error larger than the gap it is
    supposed to resolve marks the report inconclusive ("standard_error"), as
    does an ESS collapse ("realized_ess") or a weight second moment too heavy
    for n paths to resolve even in principle ("predicted_moment").  The
    report keeps the first of these reasons per horizon.
    """
    T_list, beta_cr, gamma = _window(v, chi, T_list, dt)
    if not 0.0 < t <= 1.0:
        raise ValueError(f"t must lie in (0, 1], got {t!r}")
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (3,) or not 0.0 < float(np.linalg.norm(y0)) < np.inf:
        raise ValueError("y0 must be a finite nonzero point; |y| scales as sqrt(T)|y0|")

    rows = []
    reasons = {}
    for k, T in enumerate(T_list):
        beta = beta_cr + chi / math.sqrt(T)
        y = math.sqrt(T) * y0
        ry = float(np.linalg.norm(y))
        tau = round(t * T / dt) * dt
        e = _sample_quietly(
            v, beta, tau, dt, n, _derived_seed(seed, k), start=y, record_times=[tau]
        )
        pos = e.positions[:, -1, :]
        radii = np.sqrt(np.einsum("ij,ij->i", pos, pos))
        vals = e.weights * np.asarray(f(radii / math.sqrt(T)), dtype=float)
        est = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(vals.size))

        r = np.linspace(0.0, ry + 8.0 * math.sqrt(tau), 4096)[1:]
        fr = np.asarray(f(r / math.sqrt(T)), dtype=float)
        free = np.trapezoid(r * r * fr * gauss_sphere_integral(tau, ry, r), r)
        inter = np.trapezoid(
            r * fr * kernel_closed_form(gamma, (r + ry) / math.sqrt(T), t), r
        ) * 2.0 / (ry * math.sqrt(T))
        ref = float(free + inter)

        gap = abs(est - ref) / abs(ref)
        rows.append((T, est, ref, gap, se))
        # once the weights' second moment exceeds n^2 times the squared
        # mean, n paths cannot resolve the mean no matter what the realized
        # sample claims, so the row is inconclusive by analysis
        if se > abs(est - ref):
            reasons[T] = "standard_error"
        elif e.ess_warning:
            reasons[T] = "realized_ess"
        elif _weight_moment_exponent(v, beta, tau) > 2.0 * math.log(n):
            reasons[T] = "predicted_moment"

    gaps = [r[3] for r in rows]
    return Prop2Report(
        params={
            "chi": chi,
            "gamma": gamma,
            "T_list": T_list,
            "t": t,
            "y0": [float(c) for c in y0],
            "n": n,
            "dt": dt,
            "seed": seed,
        },
        rows=rows,
        gaps_decreasing=gaps[-1] < gaps[0],
        inconclusive=bool(reasons),
        inconclusive_reasons=reasons,
    )
