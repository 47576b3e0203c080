"""The three workloads: their operations, seeded inputs and acceptance checks.

An operation is one CLI command (through ``polymer_lab.cli.main``), one
library driver call or one point query.  Each belongs to one of three legs
of its workload; a leg's time is the sum of its operations in one pass.
Every check is a verdict or an acceptance tolerance from
``tests/test_acceptance.py``, never a bit-exact value, so a change that
validly alters RNG draws still passes.  Why each workload exists, and which
layer metrics should move which leg, is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("pde-ladder", "mc-ensemble", "zero-range")

# per workload, the per-command metrics (`<name>_s`) each of the three legs sums
LEGS = {
    "pde-ladder": ("prop1", "prop3", "poten"),
    "mc-ensemble": ("theorem", "prop2", "control"),
    "zero-range": ("spectral+expansion", "sample", "query"),
}

GAMMA1_EXACT = 8.0 * math.sqrt(2.0) / math.pi**2
C_EXACT = math.pi**2 / 8.0
CURVATURE_EXACT = math.pi**4 / 128.0

# sampler size: 64 steps make the transition tables (264 MB) outweigh the walk
SAMPLE_GAMMA, SAMPLE_STEPS, SAMPLE_PATHS = 1.0, 64, 20_000
SAMPLE_KS_BOUND = 0.025  # test_zerorange::test_marginals_match_density
QUERY_KINDS = ("kernel_integral", "pbar", "zbar", "fdd_density", "transition_R")
QUERIES_PER_KIND = 24  # 120 queries: twelve lie beyond p90
QUERY_RTOL = 1e-6  # criterion 04


@dataclass
class Op:
    key: str  # unique within a pass
    group: str  # the per-command metric (`<group>_s`) this op counts towards
    leg: int  # 1, 2 or 3
    run: Callable[[], object]
    check: Callable[[object, dict], str | None]  # returns a failure reason or None


class Workload:
    def __init__(self, name: str, seed: int, pl) -> None:
        self.name, self.seed, self.pl = name, seed, pl
        self.ops: list[Op] = []
        self.results: dict = {}  # op key -> value, filled in as the ops run

    def add(self, key, group, run, check) -> None:
        leg = next(i for i, g in enumerate(LEGS[self.name], 1) if group in g.split("+"))
        self.ops.append(Op(key, group, leg, run, check))

    def cli(self, key, group, argv, expect_code, check_files=None) -> None:
        cli = self.pl.cli
        argv = list(argv) + ["--seed", str(self.seed), "--out", f"out/{key}"]

        def run():
            with contextlib.redirect_stdout(io.StringIO()) as text:
                code = cli.main(argv)
            return code, text.getvalue()

        def check(result, _):
            code, stdout = result
            if code != expect_code:
                last = stdout.strip().splitlines()[-1:] or ["(no output)"]
                return f"exit {code}, expected {expect_code}: {last[0]}"
            return check_files(Path("out") / key) if check_files else None

        self.add(key, group, run, check)


def _ladder_rows(path: Path, rows: int):
    def check(out: Path):
        lines = (out / path).read_text().splitlines()
        return None if len(lines) == rows + 1 else f"{path} has {len(lines) - 1} rows, want {rows}"
    return check


def _pde_ladder(w: Workload) -> None:
    # default T ladder 25,100,400 on ball(1,0); criteria 06, 07 and 09
    for chi in ("0", "1"):
        w.cli(f"prop1_chi{chi}", "prop1", ["verify-prop1", "--chi", chi], 0,
              _ladder_rows(Path("prop1.csv"), 3))
    for chi in ("0", "1"):
        w.cli(f"prop3_chi{chi}", "prop3", ["verify-prop3", "--chi", chi], 0,
              _ladder_rows(Path("prop3.csv"), 3))
    for gamma in ("0", "0.5"):
        w.cli(f"poten_gamma{gamma}", "poten", ["verify-poten", "--gamma", gamma], 0,
              _ladder_rows(Path("poten.csv"), 3))


def _mc_ensemble(w: Workload) -> None:
    pl = w.pl
    # criterion 08, literal window from the origin: the verdict is
    # inconclusive; 16k paths make the ESS collapse on one of the two
    # horizons for every seed tried (fewer paths let some seeds report FAIL)
    w.cli("theorem", "theorem",
          ["verify-theorem", "--chi", "2", "--T", "9,25", "--times", "0.5,1",
           "--n-paths", "16000"], 3)
    # short horizons off the origin: at T = 25 the weights' second moment
    # exp((lam(2b) - 2 lam(b)) 25), from e^17.6 at chi 1 to e^22.8 at chi 2,
    # exceeds n^2 = e^16.0, so the verdict is inconclusive by analysis,
    # whatever the draws
    for chi in ("1", "1.5", "2"):
        w.cli(f"prop2_chi{chi}", "prop2",
              ["verify-prop2", "--chi", chi, "--T", "9,25", "--times", "1",
               "--n-paths", "3000"], 3)
    ball = pl.potentials.unit_ball_potential()

    def control():
        return pl.montecarlo.verify_theorem2(
            ball, 0.0, (4.0, 400.0), (0.5, 1.0), n=6000, seed=w.seed,
            beta_override=0.4, model="wiener")

    def control_ok(rep, _):
        if rep.inconclusive or rep.passed is not True:
            return f"subcritical control did not pass: {rep.table}"
        return None

    w.add("control", "control", control, control_ok)


def _write_well(seed: int, path: Path) -> None:
    """A seeded multi-cell well as CSV plus its JSON sidecar."""
    rng = np.random.default_rng([seed, 1])
    cells = int(rng.integers(2, 6))
    R = float(rng.uniform(0.5, 2.0))
    edges = np.concatenate(([0.0], np.sort(rng.uniform(0.0, R, cells - 1)), [R]))
    values = rng.uniform(0.2, 2.0, cells) / R**2
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = ["r,v"] + [f"{e!r},{v!r}" for e, v in zip(edges[:-1].tolist(), values.tolist())]
    rows.append(f"{R!r},0.0")
    path.write_text("\n".join(rows) + "\n")
    Path(str(path) + ".json").write_text(json.dumps({"r_support": R}))


def _direction(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _queries(seed: int) -> list[tuple]:
    """Seeded point queries over the criterion-04 box.

    gamma in [-2, 2]; every kernel argument rho in [0.1, 5] (radii in
    [0.1, 2.5], so a sum of two stays inside); every time gap in [0.1, 1].
    """
    rng = np.random.default_rng([seed, 2])
    out = []
    for kind in QUERY_KINDS:
        for _ in range(QUERIES_PER_KIND):
            gamma = float(rng.uniform(-2.0, 2.0))
            if kind == "kernel_integral":
                args = (float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.1, 1.0)))
            elif kind == "pbar":
                args = (float(rng.uniform(0.1, 1.0)),
                        rng.uniform(0.1, 2.5) * _direction(rng),
                        rng.uniform(0.1, 2.5) * _direction(rng))
            elif kind == "zbar":
                args = (float(rng.uniform(0.1, 1.0)), rng.uniform(0.1, 5.0) * _direction(rng))
            elif kind == "fdd_density":
                gaps = rng.uniform(0.1, 0.25, 4)
                times = np.cumsum(gaps[:3])
                points = [rng.uniform(0.1, 2.5) * _direction(rng) for _ in range(3)]
                args = (float(gaps.sum()), rng.uniform(0.1, 2.5) * _direction(rng),
                        times, points)
            else:
                s = float(rng.uniform(0.0, 0.5))
                t = s + float(rng.uniform(0.1, 0.4))
                args = (s, t, rng.uniform(0.1, 2.5) * _direction(rng),
                        rng.uniform(0.1, 2.5) * _direction(rng))
            out.append((kind, gamma, args))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


class _ClosedForms:
    """The criterion-04 references: each query rebuilt from the closed forms."""

    def __init__(self, laplace) -> None:
        self.kcf, self.zc = laplace.kernel_closed_form, laplace.zbar_correction

    def pbar(self, g, t, x, y):
        rx, ry = np.linalg.norm(x), np.linalg.norm(y)
        d = np.asarray(x) - np.asarray(y)
        free = math.exp(-(d @ d) / (2.0 * t)) / (2.0 * math.pi * t) ** 1.5
        return free + self.kcf(g, rx + ry, t) / (2.0 * math.pi * rx * ry)

    def zbar(self, g, t, x):
        r = np.linalg.norm(x)
        return 1.0 + self.zc(g, r, t) / r

    def kernel_integral(self, g, rho, t):
        return self.kcf(g, rho, t)

    def fdd_density(self, g, T, x0, times, points):
        dens, prev, prev_t = 1.0, x0, 0.0
        for t_i, x_i in zip(times, points):
            dens *= self.pbar(g, t_i - prev_t, prev, x_i)
            prev, prev_t = x_i, t_i
        return dens * self.zbar(g, T - prev_t, prev) / self.zbar(g, T, x0)

    def transition_R(self, g, s, t, y, x):
        return self.pbar(g, t - s, y, x) * self.zbar(g, 1.0 - t, x) / self.zbar(g, 1.0 - s, y)


def _zero_range(w: Workload) -> None:
    pl = w.pl
    well = Path("inputs") / "well.csv"
    _write_well(w.seed, well)

    def ball_constants(out: Path):
        got = json.loads((out / "spectral.json").read_text())
        if abs(got["beta_cr"] - 1.0) >= 1e-3:
            return f"beta_cr = {got['beta_cr']!r}"  # criterion 01
        if abs(got["gamma1"] / GAMMA1_EXACT - 1.0) >= 1e-2 or abs(got["c"] / C_EXACT - 1.0) >= 1e-2:
            return f"gamma1 = {got['gamma1']!r}, c = {got['c']!r}"  # criterion 02
        return None

    def well_kappa(out: Path):
        kappa = json.loads((out / "spectral.json").read_text())["kappa"]
        return None if abs(2.0 * math.pi * kappa - 1.0) < 1e-3 else f"kappa*2pi = {2 * math.pi * kappa!r}"

    w.cli("spectral_ball", "spectral", ["spectral"], 0, ball_constants)
    w.cli("spectral_well", "spectral", ["spectral", "--potential", str(well)], 0, well_kappa)

    ball = pl.potentials.unit_ball_potential()
    spectral = pl.spectral
    w.add("critical_beta", "expansion", lambda: spectral.critical_beta(ball),
          lambda b, _: None if abs(b - 1.0) < 1e-3 else f"beta_cr = {b!r}")
    w.add("gamma1_via_expansion", "expansion",
          lambda: spectral.gamma1_via_expansion(ball, beta_cr=w.results["critical_beta"]),
          lambda fit, _: None if abs(fit.gamma1 / GAMMA1_EXACT - 1.0) < 2e-2
          else f"gamma1 = {fit.gamma1!r}")
    deltas = (0.01, 0.02, 0.03, 0.04)
    for d in deltas:
        w.add(f"principal_eigenvalue_{d}", "expansion",
              lambda d=d: spectral.principal_eigenvalue(ball, w.results["critical_beta"] + d),
              lambda lam, _: None if lam is not None and lam > 0.0 else f"lam = {lam!r}")

    def ladder_ok(lam, results):
        # criterion 03 on the whole ladder, checked with its last rung
        lams = np.array([results[f"principal_eigenvalue_{d}"] for d in deltas])
        slope = np.polyfit(np.log(deltas), np.log(lams), 1)[0]
        coeff = float(np.mean(lams / np.square(deltas)))
        if abs(slope - 2.0) > 0.05 or abs(coeff / CURVATURE_EXACT - 1.0) > 5e-2:
            return f"slope {slope!r}, coefficient {coeff!r}"
        return None

    last = w.ops[-1]
    rung_ok = last.check
    last.check = lambda lam, results: rung_ok(lam, results) or ladder_ok(lam, results)

    def sample_ks(out: Path):
        table = np.loadtxt(out / "paths.csv", delimiter=",", skiprows=1,
                           usecols=(1 + SAMPLE_STEPS // 2, 1 + SAMPLE_STEPS))
        if table.shape[0] != SAMPLE_PATHS:
            return f"{table.shape[0]} paths, want {SAMPLE_PATHS}"
        params = pl.zerorange.ZeroRangeParams(SAMPLE_GAMMA)
        n = SAMPLE_PATHS
        for t, col in ((0.5, 0), (1.0, 1)):
            m = pl.zerorange.marginal_radial(params, t)
            radii = np.sort(table[:, col])
            ks = float(np.max(np.abs(np.arange(1, n + 1) / n - np.interp(radii, m.grid, m.cdf()))))
            if ks >= SAMPLE_KS_BOUND:
                return f"KS {ks!r} at t = {t}"
        return None

    w.cli("sample", "sample",
          ["sample", "--gamma", repr(SAMPLE_GAMMA), "--steps", str(SAMPLE_STEPS),
           "--n-paths", str(SAMPLE_PATHS)], 0, sample_ks)

    refs = _ClosedForms(pl.laplace)
    for k, (kind, gamma, args) in enumerate(_queries(w.seed)):
        if kind == "kernel_integral":
            run = lambda a=args, g=gamma: pl.laplace.kernel_integral(g, *a)
        else:
            params = pl.zerorange.ZeroRangeParams(gamma)
            run = lambda a=args, p=params, f=kind: getattr(pl.zerorange, f)(p, *a)

        def check(value, _, kind=kind, gamma=gamma, args=args):
            want = getattr(refs, kind)(gamma, *args)
            rel = abs(value - want) / max(abs(want), 1e-300)
            return None if rel < QUERY_RTOL else f"{kind}{(gamma, *args)}: rel error {rel:.3g}"

        w.add(f"query_{k:03d}_{kind}", "query", run, check)


_BUILDERS = {"pde-ladder": _pde_ladder, "mc-ensemble": _mc_ensemble, "zero-range": _zero_range}


def build(name: str, seed: int, pl) -> Workload:
    """Generate the workload's inputs into the working directory; return its ops."""
    w = Workload(name, seed, pl)
    _BUILDERS[name](w)
    return w
