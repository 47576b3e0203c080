"""Command-line front end for the verification suites and kernel computations.

One executable, one command per run.  Exit codes: 0 success, 1 usage,
input or out-of-memory error, 2 a verification property failed, 3
verification inconclusive (importance-sampling collapse, or Monte Carlo
noise larger than the gap under test).  Every run that gets past argument
parsing writes ``manifest.json`` into the output directory with all inputs
materialized (defaults included), library versions, wall time, output names
and the exit code, so a run is reproducible from its manifest and the same
binary.  A run that fails after argument parsing prints one ``error:`` line,
and its manifest has exit code 1, no outputs and the printed message under
``error``.  Only a run whose output directory cannot be created, or whose
failure manifest cannot be written, leaves no manifest.

This module alone knows the file formats.  ``marginal`` and the verify
commands write each table twice, as ``<name>.json`` (the report's fields)
and ``<name>.csv`` (a header and one row per entry, CRLF line ends);
``sample`` writes ``paths.csv``, ``spectral`` and ``kernel`` one JSON file
each.  Numbers are written with repr(), i.e. shortest round-trip decimal.
Every JSON file holds the bytes ``json.dump(payload, fh, indent=2)`` would
write, plus a newline.  The payload's values go through ``json.dumps``,
except a float table held directly in it (the resonance profile, a
marginal's radii and density), which is turned into text a block of rows
at a time instead of one token at a time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, heatflow, montecarlo, spectral, zerorange
from .laplace import kernel_integral
from .potentials import RadialPotential, scaled_ball_potential
from .zerorange import GridExhaustionError, ZeroRangeParams

# Sweep the import's objects once, here (about 22.7k objects, 5.7-7.5 ms).
# Otherwise the interpreter's first full collection comes due inside the
# first command that allocates: `spectral` run first took a median 51 ms
# without this sweep against 42 ms with it (15 fresh interpreters each,
# 2-vCPU Xeon).
gc.collect()

__all__ = ["RunConfig", "load_potential", "run", "main"]

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
    steps: int


def load_potential(spec: str) -> RadialPotential:
    """Resolve a potential argument: preset ``ball(eps,gamma)`` or a CSV path.

    File potentials need the CSV (columns r,v, radii sorted) plus a JSON
    sidecar at ``<path>.json`` holding {"r_support": R}, R a finite number; R may
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
        # ints read as floats, so one past the largest double reads as inf
        meta = json.load(fh, parse_int=float)
    r_support = meta.get("r_support") if isinstance(meta, dict) else None
    if not (isinstance(r_support, float) and np.isfinite(r_support)):
        raise ValueError(
            f"sidecar {sidecar!r} must be an object with a finite number r_support"
        )
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
    p.add_argument("command", choices=tuple(_DISPATCH))
    p.add_argument("--potential", default="ball(1,0)",
                   help="preset ball(eps,gamma) or CSV path with .json sidecar")
    p.add_argument("--chi", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--T", default="25,100,400", help="comma-separated horizons")
    p.add_argument("--times", default="0.5,1",
                   help="comma-separated times in (0,1]; verify-prop2 uses only the "
                   "first, starting at sqrt(T)*(1,0,0) with f = e^(-r^2/2)")
    p.add_argument("--t", type=float, default=1.0, help="single evaluation time")
    p.add_argument("--rho", type=float, default=1.0, help="kernel radial argument")
    p.add_argument("--n-paths", type=int, default=50_000)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--steps", type=int, default=16, help="sampler steps on [0,1]")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (fallback: POLYMER_LAB_SEED, then 0)")
    p.add_argument("--out", default=".", help="output directory")
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


# rows per string of a float table: each string, and the list and bytes
# behind it, stays below glibc's 128 KiB mmap threshold.  Freeing a larger
# block raises that threshold for the rest of the process, and with it
# where the sampler's later arrays land: one string for the whole psi
# table put zero-range peak RSS 4.3 MB above the parent's.
_TABLE_ROWS = 1024


def _json_table(a: np.ndarray, level: int, write) -> None:
    """Write a finite, non-empty 1-d or 2-d float array as its list would read."""
    pad = "\n" + "  " * level
    row = pad + "  "
    if a.ndim == 1:
        lead, sep, close = "[" + row, "," + row, pad + "]"
    else:
        cell = row + "  "
        lead, sep = "[" + row + "[" + cell, row + "]," + row + "[" + cell
        close = row + "]" + pad + "]"
        join_row = ("," + cell).join
    for start in range(0, len(a), _TABLE_ROWS):
        texts = map(float.__repr__, a[start:start + _TABLE_ROWS].ravel().tolist())
        if a.ndim == 2:
            # zip over one iterator, once per column, deals the numbers out row by row
            texts = map(join_row, zip(*[texts] * a.shape[1]))
        write(lead + sep.join(texts))
        lead = sep
    write(close)


def _tolist(o):
    """json's ``default``: a 1-d or 2-d float64 array as its list."""
    if isinstance(o, np.ndarray) and o.dtype == np.float64 and o.ndim in (1, 2):
        return o.tolist()
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _write_json(path: str, payload) -> None:
    """payload and a newline, byte for byte as json.dump(payload, fh, indent=2) writes it.

    A finite, non-empty float table held directly in a str-keyed payload
    goes through _json_table; everything else through json.dumps.
    """
    with open(path, "w") as fh:
        if isinstance(payload, dict) and payload and all(isinstance(k, str) for k in payload):
            lead = "{\n  "
            for key, value in payload.items():
                fh.write(lead + json.dumps(key) + ": ")
                if (isinstance(value, np.ndarray) and value.dtype == np.float64
                        and value.ndim in (1, 2) and value.size and np.isfinite(value).all()):
                    _json_table(value, 1, fh.write)
                else:
                    # JSON text holds a raw newline only where it indents
                    fh.write(json.dumps(value, indent=2, default=_tolist).replace("\n", "\n  "))
                lead = ",\n  "
            fh.write("\n}")
        else:
            fh.write(json.dumps(payload, indent=2, default=_tolist))
        fh.write("\n")


def _write_csv(path: str, header, rows, index: bool = False) -> None:
    """A header and rows of numbers, in the csv module's dialect.

    Each cell is repr(float(x)), which never needs quoting; with index, each
    row starts with its 0-based number.  Lines end in CRLF.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i, row in enumerate(rows):
            lead = f"{i}," if index else ""
            fh.write(lead + ",".join(map(repr, np.asarray(row, dtype=float).tolist())) + "\r\n")


def _write_report(cfg: RunConfig, name: str, payload: dict, header, rows) -> list:
    """payload as <name>.json and the rows under header as <name>.csv."""
    base = os.path.join(cfg.out_dir, name)
    _write_json(base + ".json", payload)
    _write_csv(base + ".csv", header, rows)
    return [base + ".json", base + ".csv"]


# the PASS and FAIL lines of each verify command
_VERDICT_LINES = {
    "verify-prop1": ("errors strictly decreasing", "errors not decreasing"),
    "verify-prop3": ("errors strictly decreasing", "errors not decreasing"),
    "verify-poten": ("distances strictly decreasing", "not decreasing"),
    "verify-theorem": ("KS decreasing and below threshold at every t",
                       "KS not decreasing or above threshold"),
    "verify-prop2": ("relative gaps decreasing in T", "relative gaps not decreasing"),
}


def _verdict(cfg: RunConfig, lines: list, passed: bool, inconclusive_reasons=None) -> int:
    """Append the verdict line; exit 3 if inconclusive, else 0 if passed, else 2."""
    if inconclusive_reasons:
        lines.append("INCONCLUSIVE: " + "; ".join(
            f"T = {T!r}: {why}" for T, why in inconclusive_reasons.items()))
        return 3
    ok, fail = _VERDICT_LINES[cfg.command]
    lines.append(f"PASS: {ok}" if passed else f"FAIL: {fail}")
    return 0 if passed else 2


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
    value = kernel_integral(cfg.gamma, cfg.rho, cfg.t)
    path = os.path.join(cfg.out_dir, "kernel.json")
    _write_json(path, {"gamma": cfg.gamma, "rho": cfg.rho, "t": cfg.t, "value": value})
    return 0, [path], [repr(value)]


def _cmd_marginal(cfg: RunConfig):
    params = ZeroRangeParams(gamma=cfg.gamma)
    outs = []
    for t in cfg.times:
        dens = zerorange.marginal_radial(params, t)
        r, density = dens.grid, dens.values
        outs += _write_report(cfg, f"marginal_t{t:g}",
                              {"t": t, "gamma": cfg.gamma, "r": r, "density": density},
                              ("r", "density"), zip(r, density))
    return 0, outs, [f"wrote {len(cfg.times)} marginal table(s)"]


def _cmd_sample(cfg: RunConfig):
    params = ZeroRangeParams(gamma=cfg.gamma)
    paths = zerorange.sample_paths(params, cfg.steps, cfg.n_paths, cfg.seed)
    out = os.path.join(cfg.out_dir, "paths.csv")
    times = np.arange(cfg.steps + 1) / cfg.steps
    _write_csv(out, ["path"] + [repr(float(t)) for t in times], paths, index=True)
    return 0, [out], [f"sampled {cfg.n_paths} paths of {cfg.steps} steps"]


def _cmd_verify_heatflow(cfg: RunConfig):
    name = cfg.command.removeprefix("verify-")  # "prop1" or "prop3"
    v = load_potential(cfg.potential)
    # looked up per call so the module attribute can be swapped out
    verify = getattr(heatflow, f"verify_{name}")
    table = verify(v, cfg.chi, cfg.T_list, t=cfg.t)
    paths = _write_report(cfg, name, asdict(table), (table.parameter, "error"), table.rows)
    lines = [f"T = {T!r}: sup error {e!r}" for T, e in table.rows]
    return _verdict(cfg, lines, table.strictly_decreasing), paths, lines


def _cmd_verify_poten(cfg: RunConfig):
    table = heatflow.verify_poten_family(cfg.gamma, t=cfg.t)
    paths = _write_report(cfg, "poten", asdict(table), (table.parameter, "error"), table.rows)
    lines = [f"eps = {e!r}: KS {d!r}" for e, d in table.rows]
    return _verdict(cfg, lines, table.strictly_decreasing), paths, lines


def _cmd_verify_theorem(cfg: RunConfig):
    v = load_potential(cfg.potential)
    report = montecarlo.verify_theorem2(
        v, cfg.chi, cfg.T_list, cfg.times, cfg.n_paths, cfg.seed, dt=cfg.dt
    )
    paths = _write_report(cfg, "theorem2", asdict(report), ("T", "t", "ks"), report.table)
    lines = [f"T = {T!r}, t = {t!r}: KS {ks!r}" for T, t, ks in report.table]
    return _verdict(cfg, lines, report.passed, report.inconclusive_reasons), paths, lines


def _cmd_verify_prop2(cfg: RunConfig):
    v = load_potential(cfg.potential)
    report = montecarlo.verify_prop2(
        v, cfg.chi, cfg.T_list, cfg.times[0], (1.0, 0.0, 0.0),
        lambda r: np.exp(-0.5 * r * r), cfg.n_paths, cfg.seed, dt=cfg.dt,
    )
    paths = _write_report(cfg, "prop2", asdict(report),
                          ("T", "estimate", "reference", "rel_gap", "se"), report.rows)
    lines = [
        f"T = {T!r}: estimate {est!r} vs {ref!r} (rel gap {gap!r}, se {se!r})"
        for T, est, ref, gap, se in report.rows
    ]
    return _verdict(cfg, lines, report.gaps_decreasing, report.inconclusive_reasons), paths, lines


_DISPATCH = {
    "spectral": _cmd_spectral,
    "kernel": _cmd_kernel,
    "marginal": _cmd_marginal,
    "verify-prop1": _cmd_verify_heatflow,
    "verify-prop2": _cmd_verify_prop2,
    "verify-prop3": _cmd_verify_heatflow,
    "verify-poten": _cmd_verify_poten,
    "verify-theorem": _cmd_verify_theorem,
    "sample": _cmd_sample,
}


def run(cfg: RunConfig) -> int:
    """Execute one fully materialized configuration; writes the manifest."""
    started = time.monotonic()
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 1
    failure = {}
    try:
        # every output is checked for finiteness before it is written, so
        # numpy's overflow warnings would only add lines to stderr
        with np.errstate(over="ignore", invalid="ignore"):
            code, outputs, lines = _DISPATCH[cfg.command](cfg)
    except (ValueError, OSError, MemoryError, GridExhaustionError) as exc:
        # a bare MemoryError() has no message; its type is the message
        message = str(exc) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        code, outputs, lines, failure = 1, [], [], {"error": message}
    for line in lines:
        print(line)
    manifest = {
        "config": asdict(cfg),
        "versions": {
            "polymer_lab": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "wall_time_s": time.monotonic() - started,
        "outputs": [os.path.basename(p) for p in outputs],
        "exit_code": code,
        **failure,
    }
    try:
        _write_json(os.path.join(cfg.out_dir, "manifest.json"), manifest)
    except OSError:
        # a failed run keeps its one error line when the manifest cannot be
        # written either: the write may be what failed
        if not failure:
            raise
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
            steps=args.steps,
        )
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
