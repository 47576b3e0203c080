"""Command-line front end for the verification suites and kernel computations.

One executable, one command per run.  Exit codes: 0 success, 1 usage or
input error, 2 a verification property failed, 3 verification inconclusive
(importance-sampling collapse, or Monte Carlo noise larger than the gap
under test).  Every run that gets past argument parsing writes
``manifest.json`` into the output directory with all inputs
materialized (defaults included), library versions, wall time, and the exit
code, so a run is reproducible from its manifest and the same binary.

Numeric output is written with repr(), i.e. shortest round-trip decimal.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import re
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np
import scipy

from . import __version__, heatflow, montecarlo, spectral, zerorange
from .laplace import ContourSpec, kernel_integral
from .potentials import RadialPotential, scaled_ball_potential
from .zerorange import GridExhaustionError, ZeroRangeParams

__all__ = ["RunConfig", "load_potential", "run", "main"]

_COMMANDS = (
    "spectral",
    "kernel",
    "marginal",
    "verify-prop1",
    "verify-prop2",
    "verify-prop3",
    "verify-poten",
    "verify-theorem",
    "sample",
)

_PRESET = re.compile(r"^ball\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)$")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the exit-code contract
    # reserves 2 for verification failures, so route usage errors to 1.
    def error(self, message: str):
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Fully materialized inputs of one CLI run."""

    command: str
    potential: str
    chi: float
    gamma: float
    T_list: tuple
    times: tuple
    t: float
    rho: float
    n_paths: int
    dt: float
    seed: int
    out_dir: str
    nodes: int | None
    fmt: str
    steps: int

    def to_dict(self) -> dict:
        d = asdict(self)
        d["T_list"] = list(self.T_list)
        d["times"] = list(self.times)
        return d


def load_potential(spec: str) -> RadialPotential:
    """Resolve a potential argument: preset ``ball(eps,gamma)`` or a CSV path.

    File potentials need the CSV (columns r,v, radii sorted) plus a JSON
    sidecar at ``<path>.json`` carrying {"r_support": ...}; the sidecar may
    extend the support with a zero tail but must not cut the grid short.
    """
    m = _PRESET.match(spec.strip())
    if m:
        try:
            eps, gamma = float(m.group(1)), float(m.group(2))
        except ValueError:
            raise ValueError(f"preset arguments must be numeric: {spec!r}") from None
        return scaled_ball_potential(eps, gamma)
    if not os.path.exists(spec):
        raise ValueError(f"potential file {spec!r} does not exist")
    sidecar = spec + ".json"
    if not os.path.exists(sidecar):
        raise ValueError(f"missing sidecar {sidecar!r} (expected {{\"r_support\": ...}})")
    with open(sidecar) as fh:
        meta = json.load(fh)
    if "r_support" not in meta:
        raise ValueError(f"sidecar {sidecar!r} lacks an r_support entry")
    r_support = float(meta["r_support"])
    v = RadialPotential.from_csv(spec)
    last = v.grid[-1]
    if r_support < last * (1.0 - 1e-12):
        raise ValueError(
            f"sidecar r_support = {r_support!r} cuts the grid short (last radius "
            f"{last!r})"
        )
    if r_support > last * (1.0 + 1e-12):
        grid = np.concatenate([v.grid, [r_support]])
        vals = np.concatenate([v.values, [0.0]])
        v = RadialPotential(grid=grid, values=vals)
    return v


def _floats(text: str) -> tuple:
    try:
        vals = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise _UsageError(f"expected comma-separated numbers, got {text!r}") from None
    if not vals:
        raise _UsageError(f"expected at least one number in {text!r}")
    return vals


def _build_parser() -> _Parser:
    p = _Parser(
        prog="polymer-lab",
        description="critical homopolymer toolkit: kernels, spectra, "
        "zero-range marginals, and verification suites",
    )
    p.add_argument("command", choices=_COMMANDS)
    p.add_argument("--potential", default="ball(1,0)",
                   help="preset ball(eps,gamma) or CSV path with .json sidecar")
    p.add_argument("--chi", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--T", default="25,100,400", help="comma-separated horizons")
    p.add_argument("--times", default="0.5,1", help="comma-separated times in (0,1]")
    p.add_argument("--t", type=float, default=1.0, help="single evaluation time")
    p.add_argument("--rho", type=float, default=1.0, help="kernel radial argument")
    p.add_argument("--n-paths", type=int, default=50_000)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--steps", type=int, default=16, help="sampler steps on [0,1]")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (fallback: POLYMER_LAB_SEED, then 0)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--nodes", type=int, default=None, help="contour quadrature nodes")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    return p


def _resolve_seed(arg_seed) -> int:
    if arg_seed is not None:
        return int(arg_seed)
    env = os.environ.get("POLYMER_LAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"POLYMER_LAB_SEED must be an integer, got {env!r}") from None
    return 0


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_table(cfg: RunConfig, name: str, table) -> str:
    if cfg.fmt == "json":
        path = os.path.join(cfg.out_dir, f"{name}.json")
        _write_json(path, table.to_json_dict())
    else:
        path = os.path.join(cfg.out_dir, f"{name}.csv")
        table.to_csv(path)
    return path


def _write_report(cfg: RunConfig, name: str, report) -> list:
    """A Monte Carlo report as <name>.json and <name>.csv, whatever --format says."""
    jpath = os.path.join(cfg.out_dir, f"{name}.json")
    _write_json(jpath, report.to_json_dict())
    cpath = os.path.join(cfg.out_dir, f"{name}.csv")
    with open(cpath, "w") as fh:
        fh.write(report.to_csv())
    return [jpath, cpath]


# each _cmd_* returns (exit_code, [output paths], stdout lines)


def _cmd_spectral(cfg: RunConfig):
    v = load_potential(cfg.potential)
    summary = spectral.compute_summary(v)
    path = os.path.join(cfg.out_dir, "spectral.json")
    _write_json(path, summary.to_json_dict())
    lines = [
        f"beta_cr = {summary.beta_cr!r}",
        f"gamma1 = {summary.gamma1!r}",
        f"c = {summary.c!r}",
        f"kappa = {summary.kappa!r}",
    ]
    return 0, [path], lines


def _cmd_kernel(cfg: RunConfig):
    contour = None
    if cfg.nodes is not None:
        contour = ContourSpec.for_kernel(cfg.gamma, cfg.rho, cfg.t, nodes=cfg.nodes)
    value = kernel_integral(cfg.gamma, cfg.rho, cfg.t, contour)
    path = os.path.join(cfg.out_dir, "kernel.json")
    _write_json(path, {"gamma": cfg.gamma, "rho": cfg.rho, "t": cfg.t, "value": value})
    return 0, [path], [repr(value)]


def _cmd_marginal(cfg: RunConfig):
    params = ZeroRangeParams(gamma=cfg.gamma)
    outs = []
    for t in cfg.times:
        dens = zerorange.marginal_radial(params, t)
        if cfg.fmt == "json":
            path = os.path.join(cfg.out_dir, f"marginal_t{t:g}.json")
            _write_json(path, {"t": t, "gamma": cfg.gamma,
                               "r": dens.grid.tolist(), "density": dens.values.tolist()})
        else:
            path = os.path.join(cfg.out_dir, f"marginal_t{t:g}.csv")
            dens.to_csv(path)
        outs.append(path)
    return 0, outs, [f"wrote {len(outs)} marginal table(s)"]


def _cmd_sample(cfg: RunConfig):
    params = ZeroRangeParams(gamma=cfg.gamma)
    paths = zerorange.sample_paths(params, cfg.steps, cfg.n_paths, cfg.seed)
    out = os.path.join(cfg.out_dir, "paths.csv")
    times = np.arange(cfg.steps + 1) / cfg.steps
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path"] + [repr(float(t)) for t in times])
        for i, row in enumerate(paths):
            writer.writerow([i] + [repr(float(r)) for r in row])
    return 0, [out], [f"sampled {cfg.n_paths} paths of {cfg.steps} steps"]


def _cmd_verify_heatflow(cfg: RunConfig):
    name = cfg.command.removeprefix("verify-")  # "prop1" or "prop3"
    v = load_potential(cfg.potential)
    summary = spectral.compute_summary(v)
    # looked up per call so the module attribute can be swapped out
    verify = getattr(heatflow, f"verify_{name}")
    table = verify(v, summary, cfg.chi, cfg.T_list, t=cfg.t)
    path = _write_table(cfg, name, table)
    ok = table.strictly_decreasing
    lines = [f"T = {T!r}: sup error {e!r}" for T, e in table.rows]
    lines.append("PASS: errors strictly decreasing" if ok else "FAIL: errors not decreasing")
    return (0 if ok else 2), [path], lines


def _cmd_verify_poten(cfg: RunConfig):
    table = heatflow.verify_poten_family(cfg.gamma, t=cfg.t)
    path = _write_table(cfg, "poten", table)
    ok = table.strictly_decreasing
    lines = [f"eps = {e!r}: KS {d!r}" for e, d in table.rows]
    lines.append("PASS: distances strictly decreasing" if ok else "FAIL: not decreasing")
    return (0 if ok else 2), [path], lines


def _cmd_verify_theorem(cfg: RunConfig):
    v = load_potential(cfg.potential)
    report = montecarlo.verify_theorem2(
        v, cfg.chi, cfg.T_list, cfg.times, cfg.n_paths, cfg.seed, dt=cfg.dt
    )
    paths = _write_report(cfg, "theorem2", report)
    lines = [f"T = {T!r}, t = {t!r}: KS {ks!r}" for T, t, ks in report.table]
    if report.inconclusive:
        lines.append("INCONCLUSIVE: importance-sampling ESS collapsed")
        code = 3
    elif report.passed:
        lines.append("PASS: KS decreasing and below threshold at every t")
        code = 0
    else:
        lines.append("FAIL: KS not decreasing or above threshold")
        code = 2
    return code, paths, lines


def _cmd_verify_prop2(cfg: RunConfig):
    v = load_potential(cfg.potential)
    t = cfg.times[0] if cfg.times else 0.5
    report = montecarlo.verify_prop2(
        v, cfg.chi, cfg.T_list, t, (1.0, 0.0, 0.0),
        lambda r: np.exp(-0.5 * r * r), cfg.n_paths, cfg.seed, dt=cfg.dt,
    )
    paths = _write_report(cfg, "prop2", report)
    lines = [
        f"T = {T!r}: estimate {est!r} vs {ref!r} (rel gap {gap!r}, se {se!r})"
        for T, est, ref, gap, se in report.rows
    ]
    if report.inconclusive:
        lines.append("INCONCLUSIVE: MC standard error exceeds the gap under test")
        code = 3
    elif report.gaps_decreasing:
        lines.append("PASS: relative gaps decreasing in T")
        code = 0
    else:
        lines.append("FAIL: relative gaps not decreasing")
        code = 2
    return code, paths, lines


_DISPATCH = {
    "spectral": _cmd_spectral,
    "kernel": _cmd_kernel,
    "marginal": _cmd_marginal,
    "sample": _cmd_sample,
    "verify-prop1": _cmd_verify_heatflow,
    "verify-prop3": _cmd_verify_heatflow,
    "verify-poten": _cmd_verify_poten,
    "verify-theorem": _cmd_verify_theorem,
    "verify-prop2": _cmd_verify_prop2,
}


def run(cfg: RunConfig) -> int:
    """Execute one fully materialized configuration; writes the manifest."""
    started = time.monotonic()
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 1
    try:
        code, outputs, lines = _DISPATCH[cfg.command](cfg)
    except (ValueError, OSError, GridExhaustionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    manifest = {
        "config": cfg.to_dict(),
        "versions": {
            "polymer_lab": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "wall_time_s": time.monotonic() - started,
        "outputs": [os.path.basename(p) for p in outputs],
        "exit_code": code,
    }
    _write_json(os.path.join(cfg.out_dir, "manifest.json"), manifest)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = RunConfig(
            command=args.command,
            potential=args.potential,
            chi=args.chi,
            gamma=args.gamma,
            T_list=_floats(args.T),
            times=_floats(args.times),
            t=args.t,
            rho=args.rho,
            n_paths=args.n_paths,
            dt=args.dt,
            seed=_resolve_seed(args.seed),
            out_dir=args.out,
            nodes=args.nodes,
            fmt=args.fmt,
            steps=args.steps,
        )
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
