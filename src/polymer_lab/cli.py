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
each.  Numbers are written as repr() writes them, i.e. shortest round-trip
decimal.  A float table of _VECTOR_MIN numbers or more is turned into those
bytes a block at a time by numpy, which leaves to repr() each number it
cannot settle for certain (outside repr's positional range, a power of
two, or a rounding within 1e-9 of its boundary); smaller tables are joined
from repr() itself.  Every JSON file holds the bytes
``json.dump(payload, fh, indent=2)`` would write, plus a newline.  The
payload's values go through ``json.dumps``, except a float table held
directly in it (the resonance profile, a marginal's radii and density),
which is turned into text a block of rows at a time instead of one token
at a time.
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
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # argparse takes "-1e-3" or "-inf" after a flag for an option of its
        # own, as its pattern for negative numbers has no exponent; no option
        # here starts with "-" and a digit, a point, "inf" or "nan", so such a
        # word is always a value, as it is after "="
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)

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


# rows per block of a one-column float table; a table of c columns is
# formatted max(1, _TABLE_ROWS // c) rows at a time.  A block's frame holds
# 24 bytes a number plus its separator (2 in CSV, up to 20 in JSON) and, in
# CSV, its row's number: at most 44 bytes a number, so the frame, its
# transposed copy and every other temporary of a block stay below glibc's
# 128 KiB mmap threshold.  Freeing a larger block raises that threshold for
# the rest of the process, and with it where the sampler's later arrays
# land: one string for the whole psi table put zero-range peak RSS 4.3 MB
# above the parent's.
_TABLE_ROWS = 2560

# tables of fewer numbers are joined from repr() directly: a block costs
# about 150 us however few numbers it holds, and repr() takes as long for
# 130-260 numbers (medians of 200 calls on a 2-vCPU Xeon, CSV and JSON
# layouts of 1, 2 and 65 columns)
_VECTOR_MIN = 200

# Dekker's splitter 2**27 + 1, and 10**k for k = 0..22, all exact, each
# split in two 26-bit halves
_SPLIT = 134217729.0
_P10 = 10.0 ** np.arange(23)
_P10_HI = _SPLIT * _P10 - (_SPLIT * _P10 - _P10)
_P10_LO = _P10 - _P10_HI
_EXPONENT = np.uint64(0x7FF0000000000000)
_MANTISSA = np.uint64((1 << 52) - 1)
_STEPS = np.array([[100.0], [10.0], [1.0]])
# "0000" to "9999" as little-endian uint32
_QUADS = (np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
          % 10 + 48).astype(np.uint8).view(np.uint32).ravel()
_DIGIT = np.arange(18, dtype=np.int8)[:, None]
# what goes in front of the digits, right-aligned in six bytes, for
# e = -4, ..., 0 (and above), each unsigned and then signed
_PREFIXES = np.array([
    (b"-" * sign + (b"0." + b"0" * (-1 - e) if e < 0 else b"")).rjust(6, b"\0")
    for e in range(-4, 1) for sign in (0, 1)
]).view(np.uint8).reshape(10, 6).T.copy()


def _repr_digits(v: np.ndarray):
    """repr's digits of each value of the 1-d float64 array v, where certain.

    Returns (fast, e, top, low): where fast, repr(v) is positional with
    digits top * 1e8 + low (17 of them, zero-padded; top in [1e8, 1e9)) and
    first digit at 10**e; ±0.0 is fast with all-zero digits.  Elsewhere
    repr() must decide: outside 1e-4 <= |v| < 1e16 (nan, infinities,
    subnormals and exponent notation), at powers of two (whose rounding
    interval is lopsided), and where a rounding or interval test falls
    within 1e-9 of its boundary.

    y = |v| * 10**(16 - e) is formed exactly as hi + lo (Dekker's product;
    10**k is exact for k <= 22), and every decimal closer to y than half,
    the half-gap to the neighbouring doubles in the same units, reads back
    as v.  repr's digits are the shortest such decimal, the nearest one among
    equals.  So they are the first of y's nearest 15-, 16- and 17-digit
    roundings that lies inside: any decimal of 15 digits or fewer that does
    is the nearest 15-digit one, because 15-digit decimals lie more than a
    double's gap apart.
    """
    n = len(v)
    ax = np.abs(v)
    # 9999999999999998.0 is the largest double below 1e16
    x = np.fmax(np.fmin(ax, 9999999999999998.0), 1e-4)
    fast = x == ax
    fast &= v.view(np.uint64) & _MANTISSA != 0
    k = np.log10(x)
    k = (16.0 - np.floor(k, out=k)).astype(np.intp)
    p = _P10[k]
    hi = x * p
    c = _SPLIT * x
    xh = c - (c - x)
    xl = x - xh
    ph, pl = _P10_HI[k], _P10_LO[k]
    lo = xh * ph
    lo -= hi
    lo += xh * pl
    lo += xl * ph
    lo += xl * pl
    half = (x.view(np.uint64) & _EXPONENT).view(np.float64)
    half *= p
    half *= 2.0 ** -53
    top = np.floor(hi / 1e8)
    low = hi - top * 1e8
    # each row: the step from low to y's nearest multiple of 100, 10 and 1.
    # r is low's remainder give or take a step, as the reciprocal may round
    r = low - np.floor(low * (1.0 / _STEPS)) * _STEPS
    delta = np.floor((r + lo) * (1.0 / _STEPS) + 0.5) * _STEPS - r
    dist = np.abs(delta - lo)
    inside = dist < half * (1.0 - 1e-9)
    inside &= np.abs(dist - 0.5 * _STEPS) > 1e-9 * _STEPS  # not a tie
    # the first rounding not clearly outside decides
    stop = dist <= half * (1.0 + 1e-9)
    pick = (2 - (stop[0] | stop[1]) - stop[0]) * n
    pick += np.arange(n)
    low += np.take(delta, pick)
    fast &= np.take(inside, pick)
    fast &= (hi >= 1e16) & (hi < 1e17) & (low >= 0.0)
    carry = low >= 1e8
    top += carry
    low -= carry * 1e8
    fast &= top < 1e9
    zero = ax == 0.0
    fast |= zero
    e = (16 - k).astype(np.int8)
    for a in (e, top, low):
        a *= ~zero
    return fast, e, top, low


def _digit_rows(top: np.ndarray, low: np.ndarray) -> np.ndarray:
    """The 17 digits of top * 1e8 + low as ASCII rows, and a row of zero bytes."""
    n = len(top)
    first = np.floor(top / 1e8)
    quads = np.empty((4, n))
    quads[1] = top - first * 1e8
    quads[0] = np.floor(quads[1] / 1e4)
    quads[1] -= quads[0] * 1e4
    quads[2] = np.floor(low / 1e4)
    quads[3] = low - quads[2] * 1e4
    text = _QUADS[quads.astype(np.intp)].view(np.uint8).reshape(4, n, 4)
    rows = np.empty((18, n), np.uint8)
    rows[0] = first
    rows[0] += 48
    rows[1:17].reshape(4, 4, n)[...] = text.transpose(0, 2, 1)
    rows[17] = 0
    return rows


def _format_block(v: np.ndarray, ncols: int, sep: bytes, end: bytes, lead: int,
                  first_row: int) -> np.ndarray:
    """repr text of the numbers v, rows of ncols, each followed by sep or end.

    With lead, each row starts with its number (from first_row) and a comma,
    in lead bytes.  Each number gets a frame column of fixed slots that
    zero bytes leave empty: the row number, a right-aligned prefix ("-",
    "0." and zeros), the digits with the point among them, and the
    separator.  Dropping the zero bytes leaves the text.
    """
    n = len(v)
    width = lead + 24 + max(len(sep), len(end))
    frame = np.empty((width, n), np.uint8)
    fast, e, top, low = _repr_digits(v)
    digits = _digit_rows(top, low)
    # keep the significant digits, and any up to the one after the point
    last = ((digits[:17] != 48) * _DIGIT[1:]).max(axis=0)
    digits *= _DIGIT < np.maximum(last, e + 2)
    # the point goes after digit e where e >= 0; the prefix holds the rest's
    point = e + 1
    point[e < 0] = 99
    body = frame[lead + 6:lead + 24]
    np.multiply(digits, _DIGIT < point, out=body)
    body += (_DIGIT == point) * np.uint8(46)
    body[1:] += digits[:17] * (_DIGIT[1:] > point)
    which = np.minimum(e, 0) + 4
    which *= 2
    which += np.signbit(v)
    np.take(_PREFIXES, which, axis=1, out=frame[lead:lead + 6])
    if not fast.all():
        slow = np.nonzero(~fast)[0]
        texts = np.array([repr(x).encode() for x in v[slow].tolist()])
        frame[lead:lead + 24, slow] = 0
        frame[lead:lead + texts.itemsize, slow] = texts.view(np.uint8).reshape(len(slow), -1).T
    tail = frame[lead + 24:]
    tail[:len(sep)] = np.frombuffer(sep, np.uint8)[:, None]
    tail[len(sep):] = 0
    tail[:, ncols - 1::ncols] = 0
    tail[:len(end), ncols - 1::ncols] = np.frombuffer(end, np.uint8)[:, None]
    if lead:
        numbers = np.array([b"%d," % i for i in range(first_row, first_row + n // ncols)])
        frame[:lead] = 0
        frame[:numbers.itemsize, ::ncols] = numbers.view(np.uint8).reshape(len(numbers), -1).T
    text = frame.T.copy()
    return text[text != 0]


def _write_table(write, a: np.ndarray, sep: str, end: str, index: bool = False) -> None:
    """Write a 2-d float64 table as repr text: cells joined by sep, rows by end.

    With index, each row starts with its 0-based number and a comma.  The
    bytes are repr's: small tables are joined from repr() itself, larger
    ones formatted in blocks by _format_block, which leaves to repr() the
    numbers that _repr_digits cannot settle.
    """
    nrows, ncols = a.shape
    if a.size < _VECTOR_MIN:
        rows = (sep.join(map(float.__repr__, row)) for row in a.tolist())
        if index:
            rows = (f"{i},{row}" for i, row in enumerate(rows))
        write(end.join(rows).encode())
        return
    sep, end = sep.encode(), end.encode()
    lead = len(str(nrows - 1)) + 1 if index else 0
    step = max(1, _TABLE_ROWS // ncols)
    for start in range(0, nrows, step):
        text = _format_block(a[start:start + step].ravel(), ncols, sep, end, lead, start)
        # the last row ends the table, not a row
        write(text if start + step < nrows else text[:len(text) - len(end)])


def _json_table(a: np.ndarray, level: int, write) -> None:
    """Write a finite, non-empty 1-d or 2-d float array as its list would read."""
    pad = "\n" + "  " * level
    row = pad + "  "
    if a.ndim == 1:
        write(("[" + row).encode())
        _write_table(write, a.reshape(-1, 1), "", "," + row)
        write((pad + "]").encode())
    else:
        cell = row + "  "
        write(("[" + row + "[" + cell).encode())
        _write_table(write, a, "," + cell, row + "]," + row + "[" + cell)
        write((row + "]" + pad + "]").encode())


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
    with open(path, "wb") as fh:
        # json.dumps escapes everything past ASCII
        def write(text: str) -> None:
            fh.write(text.encode("ascii"))

        if isinstance(payload, dict) and payload and all(isinstance(k, str) for k in payload):
            lead = "{\n  "
            for key, value in payload.items():
                write(lead + json.dumps(key) + ": ")
                if (isinstance(value, np.ndarray) and value.dtype == np.float64
                        and value.ndim in (1, 2) and value.size and np.isfinite(value).all()):
                    _json_table(value, 1, fh.write)
                else:
                    # JSON text holds a raw newline only where it indents
                    write(json.dumps(value, indent=2, default=_tolist).replace("\n", "\n  "))
                lead = ",\n  "
            write("\n}")
        else:
            write(json.dumps(payload, indent=2, default=_tolist))
        write("\n")


def _write_csv(path: str, header, rows, index: bool = False) -> None:
    """A header and rows of numbers, in the csv module's dialect.

    rows is a 2-d array or a sequence of equal-length rows.  Each cell is
    repr(float(x)), which never needs quoting; with index, each row starts
    with its 0-based number.  Lines end in CRLF.
    """
    table = np.asarray(rows, dtype=float)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        if len(table):
            _write_table(fh.write, table, ",", "\r\n", index)
            fh.write(b"\r\n")


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
                              ("r", "density"), np.column_stack((r, density)))
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
