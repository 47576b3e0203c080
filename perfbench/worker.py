"""One pass of one workload in a fresh interpreter (started by run.py).

The pass imports polymer_lab from the checkout's ``src``, generates the
workload's seeded inputs into its working directory, then runs the
operations back to back: a closed loop, one operation at a time, no pool.
Checks run after the last operation, so they are not timed.  With
``--trace 1`` every layer is wrapped (spans.py) while the operations run.
The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _output_digests(out: Path) -> dict:
    """sha256 of every CLI output; manifest.json without its wall_time_s."""
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_time_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        digests[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
    return digests


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import numpy
    import scipy

    import polymer_lab
    import polymer_lab.cli

    if not Path(polymer_lab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"polymer_lab imported from {polymer_lab.__file__}, not {src}")
    import workloads

    w = workloads.build(args.workload, args.seed, polymer_lab)
    result = {
        "setup_s": time.monotonic() - args.spawned,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "polymer_lab": polymer_lab.__version__},
    }
    if not args.setup_only:
        result.update(_run(w, args.trace))
    Path(args.result).write_text(json.dumps(result))
    return 0


def _run(w, trace: int) -> dict:
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    records = []
    for op in w.ops:
        error = None
        start = time.perf_counter()
        try:
            value = op.run()
        except Exception as exc:  # an operation that raises is a failed operation
            value, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        w.results[op.key] = value
        records.append({"key": op.key, "group": op.group, "leg": op.leg, "seconds": seconds,
                        "error": error})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        out = Path("out")
        layers["cli.bytes_out"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        tracer.write_spans("spans.jsonl")

    for op, rec in zip(w.ops, records):
        if rec["error"] is None:
            try:
                rec["error"] = op.check(w.results[op.key], w.results)
            except Exception as exc:  # a check that cannot run fails its operation
                rec["error"] = f"check raised {type(exc).__name__}: {exc}"
    return {
        "wall_s": sum(rec["seconds"] for rec in records),
        "peak_rss_mb": peak_rss_mb,
        "ops": records,
        "layers": layers,
        "outputs": _output_digests(Path("out")) if Path("out").is_dir() else {},
    }


if __name__ == "__main__":
    sys.exit(main())
