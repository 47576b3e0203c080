"""Zero-range polymer measures on the unit time horizon.

After diffusive rescaling the attractive region shrinks to a point and the
path measure remembers it only through a single coupling ``gamma``.  Every
observable quantity then reduces to two scalar transforms of the radius:
the interaction kernel I (excess transition density picked up by visiting
the origin) and the partition correction J (its integral in time).  This
module exposes the transition density ``pbar``, the partition factor
``zbar``, finite-dimensional densities of the pinned measure, the
origin-started transition kernel, radial marginals, and an inverse-CDF
path sampler whose one-step kernel is tabulated once, whatever the step count.

Point calls (`pbar`, `zbar`, and everything composed from them) and
grid-level machinery (marginals, sampler tables) use the same closed forms
from :mod:`.laplace`; the Bromwich quadrature is a test oracle that pins
them in the test suite.  The overflow-free marginal takes erfc from
:mod:`._special`, and the sampler's per-path streams come from
:mod:`._streams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._special import erfc
from ._streams import refuse_oversized, seed_pcg64, spawn_words
from .laplace import kernel_closed_form, kernel_integral, zbar_correction, zeta_constant
from .radial import (
    RadialDensity,
    default_radial_grid,
    density_cdf,
    gauss_sphere_integral,
)

__all__ = [
    "GridExhaustionError",
    "ZeroRangeParams",
    "pbar",
    "zbar",
    "fdd_density",
    "transition_R",
    "transition_R0",
    "marginal_radial",
    "pbar_sphere_mean",
    "sample_paths",
]

# A transition row may have at most this fraction of its mass beyond the
# grid's end (else the grid is too short), and its trapezoid total must match
# that mass this closely, marginal_radial's own bound (else it is too coarse).
_TAIL_DEFICIT = 1e-6
_ROW_MASS_TOL = 1e-3

_TWO_PI = 2.0 * math.pi
_TINY = np.finfo(float).tiny


class GridExhaustionError(RuntimeError):
    """Radial grid too short for the requested transition; enlarge it."""


@dataclass(frozen=True)
class ZeroRangeParams:
    """Coupling of the limiting measure.

    gamma > 0 tilts paths toward the origin, gamma < 0 away from it,
    gamma = 0 reduces every formula to the free Wiener quantities.
    """

    gamma: float

    def __post_init__(self) -> None:
        if not (isinstance(self.gamma, (int, float)) and math.isfinite(self.gamma)):
            raise ValueError("gamma must be a finite real number")
        object.__setattr__(self, "gamma", float(self.gamma))


def _point(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a point in R^3, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _radius(x, name: str) -> tuple[np.ndarray, float]:
    arr = _point(x, name)
    r = float(np.sqrt(arr @ arr))
    if r == 0.0:
        raise ValueError(
            f"{name} is the origin; the interaction term 1/|{name}| is "
            "singular there (use transition_R0 for origin-started kernels)"
        )
    return arr, r


def _check_time(t: float, name: str = "t") -> float:
    if not (isinstance(t, (int, float)) and math.isfinite(t) and t > 0.0):
        raise ValueError(f"{name} must be a finite positive time, got {t!r}")
    return float(t)


def pbar(p: ZeroRangeParams, t: float, x, y) -> float:
    """Transition density of the zero-range evolution between off-origin points.

    Free Gaussian kernel plus the interaction excess
    I(gamma, |x|+|y|, t) / (2 pi |x| |y|), the latter from the closed form
    of I.  Symmetric in (x, y); strictly positive.
    """
    t = _check_time(t)
    xa, rx = _radius(x, "x")
    ya, ry = _radius(y, "y")
    d = xa - ya
    p0 = math.exp(-(d @ d) / (2.0 * t)) / (_TWO_PI * t) ** 1.5
    inter = kernel_integral(p.gamma, rx + ry, t) / (_TWO_PI * rx * ry)
    return p0 + inter


def zbar(p: ZeroRangeParams, t: float, x) -> float:
    """Partition factor Z(t, x) = 1 + J(gamma, |x|, t) / |x|.

    Raises ValueError when the result is not finite.
    """
    t = _check_time(t)
    _, rx = _radius(x, "x")
    value = float(_zbar_closed(p.gamma, rx, t))
    if not math.isfinite(value):
        raise ValueError(
            f"zbar at (gamma, t, |x|) = ({p.gamma!r}, {t!r}, {rx!r}) is {value!r}: "
            "e^{gamma^2 t/2 - gamma |x|} overflows a double"
        )
    return value


def _zbar_closed(gamma: float, r: np.ndarray, t: float) -> np.ndarray:
    # t = 0 means no remaining horizon: the factor degenerates to 1.
    if t == 0.0:
        return np.ones_like(np.asarray(r, dtype=float))
    return 1.0 + zbar_correction(gamma, r, t) / np.asarray(r, dtype=float)


def fdd_density(p: ZeroRangeParams, T: float, x0, times, points) -> float:
    """Finite-dimensional density of the measure on horizon T started at x0.

    For strictly increasing times 0 < t_1 < ... < t_n <= T and points
    x_1 ... x_n, returns

        (1 / Z(T, x0)) * prod pbar(t_{i+1} - t_i, x_i, x_{i+1}) * Z(T - t_n, x_n)

    with the terminal factor dropped when t_n = T.
    """
    T = _check_time(T, "T")
    _, _ = _radius(x0, "x0")
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(ts)):
        raise ValueError("times must be finite")
    if ts[0] <= 0.0 or np.any(np.diff(ts) <= 0.0) or ts[-1] > T:
        raise ValueError("times must be strictly increasing with 0 < t_1 and t_n <= T")
    pts = [_point(q, f"points[{i}]") for i, q in enumerate(points)]
    if len(pts) != ts.size:
        raise ValueError(f"{ts.size} times but {len(pts)} points")

    dens = 1.0
    prev, prev_t = np.asarray(x0, dtype=float), 0.0
    for t_i, x_i in zip(ts, pts):
        dens *= pbar(p, float(t_i) - prev_t, prev, x_i)
        prev, prev_t = x_i, float(t_i)
    tail = T - prev_t
    if tail > 0.0:
        dens *= zbar(p, tail, prev)
    return dens / zbar(p, T, x0)


def transition_R(p: ZeroRangeParams, s: float, t: float, y, x) -> float:
    """Markov kernel of the unit-horizon bridge of the measure, 0 <= s < t <= 1.

    R(s, t, y, x) = pbar(t - s, y, x) Z(1 - t, x) / Z(1 - s, y); at t = 1 the
    numerator partition factor is absent.
    """
    if not (0.0 <= s < t <= 1.0):
        raise ValueError(f"need 0 <= s < t <= 1, got s = {s!r}, t = {t!r}")
    num = pbar(p, t - s, y, x)
    if t < 1.0:
        num *= zbar(p, 1.0 - t, x)
    return num / zbar(p, 1.0 - s, y)


def transition_R0(p: ZeroRangeParams, t: float, x) -> float:
    """Origin-started kernel R(0, t, 0, x) for 0 < t <= 1, in closed form.

    The 1/|y| blowups of pbar and of Z(1, y) cancel as y -> 0, leaving

        [I(gamma, |x|, t) / (2 pi |x|)] * Z(1 - t, x) / zeta(gamma).
    """
    t = _check_time(t)
    if t > 1.0:
        raise ValueError(f"t must lie in (0, 1], got {t!r}")
    _, rx = _radius(x, "x")
    val = float(kernel_closed_form(p.gamma, rx, t)) / (_TWO_PI * rx)
    if t < 1.0:
        val *= float(_zbar_closed(p.gamma, np.asarray(rx), 1.0 - t))
    return val / zeta_constant(p.gamma)


def marginal_radial(
    p: ZeroRangeParams, t: float, grid: np.ndarray | None = None
) -> RadialDensity:
    """Radial density of |path(t)| under the origin-started unit bridge.

    4 pi r^2 R0(t, x) collapses to (2 / zeta) r I(gamma, r, t) Z(1 - t, r).
    Where that product of separate factors overflows (gamma from about
    37.5), or where (2 / zeta) r I underflows before Z(1 - t, r) scales it
    back up (large gamma, far tail), it is redone with zeta's e^{gamma^2/2}
    divided out of I Z first, so the density keeps its digits wherever it
    fits a double.
    Normalized analytically; the returned table must integrate to 1 within
    1e-3 or the grid is rejected.
    """
    t = _check_time(t)
    if t > 1.0:
        raise ValueError(f"t must lie in (0, 1], got {t!r}")
    if grid is None:
        grid = default_radial_grid()
    r = np.asarray(grid, dtype=float)
    if r.ndim != 1 or r.size < 8 or r[0] != 0.0 or np.any(np.diff(r) <= 0.0):
        raise ValueError("grid must be 1-d, start at 0, and strictly increase")
    body = r[1:]
    # an overflow here is redone by _scaled_marginal below
    with np.errstate(over="ignore", invalid="ignore"):
        head = (2.0 / zeta_constant(p.gamma)) * body * kernel_closed_form(p.gamma, body, t)
        vals = head * _zbar_closed(p.gamma, body, 1.0 - t)
    # r Z(1-t, r) -> J(gamma, 0, 1-t) as r -> 0, so the density does not
    # vanish at the origin for t < 1: the pinned path revisits it
    if t < 1.0:
        d0 = (
            (2.0 / zeta_constant(p.gamma))
            * float(kernel_closed_form(p.gamma, 0.0, t))
            * float(zbar_correction(p.gamma, 0.0, 1.0 - t))
        )
    else:
        d0 = 0.0
    values = np.concatenate(([d0], vals))
    redo = ~np.isfinite(values)
    if p.gamma > 0.0:
        # a subnormal head has lost digits that Z(1 - t, r) would scale back up
        redo[1:] |= head < _TINY
    if redo.any():
        values[redo] = _scaled_marginal(p.gamma, r[redo], t)
    dens = RadialDensity(grid=r, values=values)
    dens.require_normalized(1e-3)
    return dens


def _scaled_marginal(gamma: float, r: np.ndarray, t: float) -> np.ndarray:
    """marginal_radial's density with e^{gamma^2/2} divided out of zeta and I Z.

    e^{-r^2/2s} erfcx((r - gamma s)/sqrt(2s)) = e^{gamma^2 s/2 - gamma r} erfc(...),
    so e^{-gamma^2 s/2} I(gamma, r, s) and e^{-gamma^2 s/2} J(gamma, r, s) keep
    only e^{-gamma r} erfc, which cannot overflow for gamma, r >= 0.  The
    kernel takes e^{-gamma^2 t/2}, Z(1 - t, r) the rest, and zeta = J(gamma, 0, 1)
    all of it.  Valid for gamma > 0, the only side where the plain product
    can overflow.
    """
    def scaled_j(x, s):
        return (np.exp(-gamma * x) * erfc((x - gamma * s) / math.sqrt(2.0 * s))
                - math.exp(-0.5 * gamma * gamma * s) * erfc(x / math.sqrt(2.0 * s))) / gamma

    kern = (math.exp(-0.5 * gamma * gamma * t) * np.exp(-r * r / (2.0 * t)) / math.sqrt(_TWO_PI * t)
            + 0.5 * gamma * np.exp(-gamma * r) * erfc((r - gamma * t) / math.sqrt(2.0 * t)))
    if t < 1.0:
        r_zbar = r * math.exp(-0.5 * gamma * gamma * (1.0 - t)) + scaled_j(r, 1.0 - t)
    else:
        r_zbar = r
    return 2.0 * kern * r_zbar / scaled_j(0.0, 1.0)


def pbar_sphere_mean(p: ZeroRangeParams, t, r_from, r_to):
    """Mean of pbar(t, y, x) over the directions of x at fixed radii.

    Closed form: the sphere average of the free Gaussian kernel plus the
    (direction-independent) interaction term.  Broadcasts over radii.
    Underlies the radial chain: integrating r_to^2 * 4 pi * this against
    the tail partition factor reproduces Z at the earlier time, which the
    walk checks row by row.
    """
    t = _check_time(t)
    a = np.asarray(r_from, dtype=float)
    b = np.asarray(r_to, dtype=float)
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise ValueError("radii must be positive; use transition_R0 at the origin")
    free = gauss_sphere_integral(t, a, b) / (4.0 * math.pi)
    inter = kernel_closed_form(p.gamma, a + b, t) / (_TWO_PI * a * b)
    return free + inter


# ---------------------------------------------------------------------------
# Path sampler
# ---------------------------------------------------------------------------
#
# The bridge radius is Markov, so a path is a chain of one-dimensional
# inverse-CDF draws: the first step from the radial marginal at t_1, each
# later step from the radial transition row anchored at the current radius;
# y-anchoring interpolates quantiles linearly between the two bracketing
# rows.  The sphere-mean kernel of one step does not depend on the step, so
# it is tabulated once per (params, n_steps) on fixed grids: 256 anchors by
# 2047 radii, about 4 MB whatever n_steps is.  Step k only weights it by the
# partition factor of the horizon left; the walk builds those rows for the
# anchors its paths occupy, checks their mass beyond the grid and on it
# (docs/derivations.md), draws and drops them.
#
# Both the table and each step's rows are built _BLOCK anchors at a time,
# so the work arrays stay cache-sized; every operation is elementwise or
# runs along one row, so a block holds the bits the whole array would.  A
# path's uniforms are drawn straight into its output row, and the walk
# replaces step k's uniform with the radius it selects.  Beside the paths
# and the table, a walk holds one step's rows (at most 256 by 2048 values,
# 4 MB) and about 22 values per path of per-step work arrays.

_BLOCK = 16


@dataclass(frozen=True, eq=False)
class _ChainTables:
    gamma: float
    n_steps: int
    x_grid: np.ndarray
    y_grid: np.ndarray
    first_cdf: np.ndarray
    kern: np.ndarray  # (ny, nx - 1): 4 pi x^2 pbar_sphere_mean(dt, y, x), x > 0
    col0: np.ndarray  # (ny,): 2 I(gamma, y, dt); times J(0, tail) / y at x = 0
    kern_tail: np.ndarray  # (ny,): mass of each kern row beyond x_grid[-1]


def _interaction_beyond(gamma: float, x_end: float, y, s: float):
    """2 int_{x_end}^inf x I(gamma, x + y, s) dx = x_end E(x_end + y) + J(gamma, x_end + y, s).

    E(rho) = e^{-rho^2/2s} erfcx((rho - gamma s)/sqrt(2s)) = gamma J + erfc(rho/sqrt(2s)),
    and I = -(1/2) dE/drho, J(gamma, rho, s) = int_rho^inf E (docs/derivations.md).
    """
    rho = x_end + y
    j = zbar_correction(gamma, rho, s)
    return x_end * (gamma * j + erfc(rho / math.sqrt(2.0 * s))) + j


def _kern_beyond(gamma: float, x_end: float, y: np.ndarray, s: float) -> np.ndarray:
    """Mass beyond x_end of each kern row, 4 pi x^2 pbar_sphere_mean(s, y, x).

    Its free part is the law of |y e + B_s|, whose tail is
    (erfc(a/sqrt2) + erfc(b/sqrt2))/2 + (sqrt(s)/y) (phi(a) - phi(b)).
    """
    a = (x_end - y) / math.sqrt(s)
    b = (x_end + y) / math.sqrt(s)
    # phi(a) - phi(b) = -phi(a) expm1(-2 x_end y / s), without cancellation
    free = (0.5 * (erfc(a / math.sqrt(2.0)) + erfc(b / math.sqrt(2.0)))
            - math.sqrt(s / _TWO_PI) / y * np.exp(-0.5 * a * a) * np.expm1(-2.0 * x_end * y / s))
    return free + _interaction_beyond(gamma, x_end, y, s) / y


@lru_cache(maxsize=4)
def _tables(p: ZeroRangeParams, n_steps: int) -> _ChainTables:
    x = default_radial_grid()
    # anchor radii: geometric, same span as the sample grid so a drawn
    # radius always brackets
    y = np.geomspace(1e-3, x[-1], 256)
    dt = 1.0 / n_steps

    marg = marginal_radial(p, dt, grid=x)
    # the first draw's mass beyond the grid: Z(1 - dt, x) decreases in x, so
    # it is at most Z(1 - dt, x[-1]) times the interaction part's tail
    lost = (_interaction_beyond(p.gamma, x[-1], 0.0, dt) / zeta_constant(p.gamma)
            * _zbar_closed(p.gamma, x[-1], 1.0 - dt))
    if not lost <= _TAIL_DEFICIT:
        raise GridExhaustionError(
            f"radial grid [0, {x[-1]:g}] misses {lost:.3g} of the time-{dt:g} marginal; "
            "enlarge the grid"
        )
    first_cdf = density_cdf(x, marg.values)
    body = x[1:]
    shell = 4.0 * math.pi * body ** 2
    kern = np.empty((y.size, body.size))
    for i in range(0, y.size, _BLOCK):
        np.multiply(shell, pbar_sphere_mean(p, dt, y[i:i + _BLOCK, None], body),
                    out=kern[i:i + _BLOCK])
    col0 = 2.0 * kernel_closed_form(p.gamma, y, dt)
    kern_tail = _kern_beyond(p.gamma, x[-1], y, dt)
    return _ChainTables(p.gamma, n_steps, x, y, first_cdf, kern, col0, kern_tail)


def _step_rows(tab: _ChainTables, k: int, anchors: np.ndarray) -> np.ndarray:
    """Normalized CDF rows of step k (2 <= k <= n_steps) from the given anchors.

    A row's exact mass is Z(tail + dt, y).  Raises GridExhaustionError if its
    bound beyond the grid's end exceeds _TAIL_DEFICIT of that, or its
    trapezoid total misses it by more than _ROW_MASS_TOL.
    """
    x, y = tab.x_grid, tab.y_grid
    dt = 1.0 / tab.n_steps
    tail = (tab.n_steps - k) * dt
    weight = _zbar_closed(tab.gamma, x[1:], tail)
    mass = _zbar_closed(tab.gamma, y[anchors], tail + dt)
    short = ~(tab.kern_tail[anchors] * weight[-1] <= _TAIL_DEFICIT * mass)
    if short.any():
        raise GridExhaustionError(
            f"transition row from r = {y[anchors][short][0]:.4g} at step {k} has more than "
            f"{_TAIL_DEFICIT:g} of its mass beyond the grid's end {x[-1]:g}; enlarge the grid"
        )
    # x = 0 column: x^2 * [I/(2 pi x y)] * [J(x, tail)/x] survives the
    # limit, everything else dies; zero only on the final step
    if tail > 0.0:
        zc = float(zbar_correction(tab.gamma, 0.0, tail))
        col0 = tab.col0[anchors] * zc / y[anchors]
    else:
        col0 = np.zeros(anchors.size)
    dx = np.diff(x)
    cdfs = np.empty((anchors.size, x.size))
    cdfs[:, 0] = 0.0
    rows = np.empty((min(_BLOCK, anchors.size), x.size - 1))
    for i in range(0, anchors.size, _BLOCK):
        # one block of rows at a time, in _cumulative_trapezoid's operand
        # order: cum[j] = sum of dx * (row[j + 1] + row[j]) / 2
        blk = slice(i, i + _BLOCK)
        cum = cdfs[blk, 1:]
        row = rows[:cum.shape[0]]
        np.take(tab.kern, anchors[blk], axis=0, out=row)
        row *= weight
        np.add(row[:, 0], col0[blk], out=cum[:, 0])
        np.add(row[:, 1:], row[:, :-1], out=cum[:, 1:])
        cum *= dx
        cum /= 2.0
        np.cumsum(cum, axis=1, out=cum)
        total = cum[:, -1].copy()
        ratio = total / mass[blk]
        coarse = ~(np.abs(ratio - 1.0) <= _ROW_MASS_TOL)
        if coarse.any():
            j = np.flatnonzero(coarse)[0]
            raise GridExhaustionError(
                f"transition row from r = {y[anchors[i + j]]:.4g} at step {k} holds {ratio[j]:.6f} "
                f"of its mass on the grid, off by more than {_ROW_MASS_TOL:g}: the grid is too "
                f"coarse for {tab.n_steps} steps; use fewer steps"
            )
        cum /= total[:, None]
    return cdfs


def _inverse_cdf(
    xs: np.ndarray, cdfs: np.ndarray, row: np.ndarray, u: np.ndarray
) -> np.ndarray:
    # quantile u[i] of CDF row cdfs[row[i]], all i at once.  A branchless
    # binary search over each row's first n - 1 entries finds idx = the count
    # of them below u[i], which on a sorted row is
    # min(np.searchsorted(cdfs[row[i]], u[i], side="left"), n - 1)
    n = xs.size
    flat = cdfs.ravel()
    start = row * n
    pos = start.copy()  # the answer lies in [pos, pos + size]
    at = np.empty_like(pos)
    c = np.empty(u.size)
    below = np.empty(u.size, dtype=bool)
    size = n - 1
    while size > 1:
        half = size // 2
        np.add(pos, half, out=at)
        np.less(np.take(flat, at, out=c), u, out=below)
        pos += np.multiply(below, half, out=at)  # no branch on a random mask
        size -= half
    np.less(np.take(flat, pos, out=c), u, out=below)
    pos += below
    idx = np.maximum(pos - start, 1)
    c0 = np.take(flat, start + idx - 1)
    span = np.maximum(np.take(flat, start + idx) - c0, 1e-300)
    w = np.clip((u - c0) / span, 0.0, 1.0)
    return xs[idx - 1] + w * (xs[idx] - xs[idx - 1])


def _walk(tab: _ChainTables, out: np.ndarray) -> np.ndarray:
    # out[:, k] holds step k's uniform on entry and the radius at step k on
    # return; each column is read before it is overwritten
    m = out.shape[0]
    x, y = tab.x_grid, tab.y_grid
    out[:, 0] = 0.0
    out[:, 1] = _inverse_cdf(x, tab.first_cdf, np.zeros(m, np.intp), out[:, 1].copy())
    for k in range(2, out.shape[1]):
        r_prev = out[:, k - 1].copy()
        if np.any(r_prev > y[-1]):
            raise GridExhaustionError(
                f"path radius {r_prev.max():.4g} left the anchor grid "
                f"[0, {y[-1]:g}] at step {k}; enlarge the grid"
            )
        hi = np.clip(np.searchsorted(y, r_prev), 1, y.size - 1)
        lo = hi - 1
        # this step's rows, for the bracketing anchors in use only: an
        # anchor's row is its rank among them, and hi's row follows lo's
        used = np.zeros(y.size, dtype=bool)
        used[lo] = used[hi] = True
        rank = np.cumsum(used) - 1
        cdfs = _step_rows(tab, k, np.flatnonzero(used))
        # quantile interpolation between the bracketing anchor rows
        frac = np.clip((r_prev - y[lo]) / (y[hi] - y[lo]), 0.0, 1.0)
        u = out[:, k].copy()
        row = rank[lo]
        q_lo = _inverse_cdf(x, cdfs, row, u)
        q_hi = _inverse_cdf(x, cdfs, row + 1, u)
        out[:, k] = (1.0 - frac) * q_lo + frac * q_hi
        del cdfs  # before the next step's rows are built
    return out


def _check_steps(n_steps: int) -> int:
    if not (isinstance(n_steps, (int, np.integer)) and n_steps >= 1):
        raise ValueError(f"n_steps must be a positive integer, got {n_steps!r}")
    return int(n_steps)


def sample_paths(
    p: ZeroRangeParams, n_steps: int, n_paths: int, seed: int
) -> np.ndarray:
    """Radial bridge paths at times k / n_steps, shape (n_paths, n_steps + 1).

    Path i draws from the i-th stream spawned off SeedSequence(seed), so it
    is deterministic in (seed, i) alone, whatever n_paths is.  Its uniforms
    are drawn into its own row of the returned array, and the walk replaces
    them with radii step by step.  Beyond that array, the cached table
    (about 4 MB, built in blocks of anchors) and one step's rows (at most
    4 MB), the walk holds about 22 values per path.
    """
    n_steps = _check_steps(n_steps)
    if not (isinstance(n_paths, (int, np.integer)) and n_paths >= 1):
        raise ValueError(f"n_paths must be a positive integer, got {n_paths!r}")
    n_paths = int(n_paths)
    # per path: the walk's output, four stream words and up to 27 values of
    # the walk's per-step work arrays (20 and 22 traced at 64 and 512 steps)
    refuse_oversized(n_paths, 8 * n_paths * (n_steps + 32))
    words = spawn_words(seed, n_paths)
    tab = _tables(p, n_steps)
    gen = np.random.Generator(np.random.PCG64(0))
    out = np.empty((n_paths, n_steps + 1))
    for i in range(n_paths):
        seed_pcg64(gen.bit_generator, words[i].tolist())
        gen.random(out=out[i, 1:])
    return _walk(tab, out)
