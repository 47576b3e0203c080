"""Time-to-verdict benchmark for polymer-lab.

    python3 perfbench/run.py --workload pde-ladder --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``;
nothing is installed.  A run starts fresh interpreters one after another
(never two at once): two that only set up (import polymer_lab and
generate the inputs), then passes of the workload, each running every
operation of the workload once, until ``--seconds`` have gone by.  Every
metric line names its unit and sample count.  The last line is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run first makes the untraced passes, then traced
passes at the seed and at seed + 1 (and at the seed again when quadrature
nodes were counted); it checks that the traced CLI outputs match the
untraced ones byte for byte and that the work counters repeat.
The exit code is 0 only when every check passed.  README.md documents the
workloads and the metric-to-layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import LEGS, WORKLOADS  # noqa: E402

SETUP_PROBES = 2
BUDGET_S = 170.0  # a run must end within 180 s
# counters whose work does not depend on the seed; laplace.quad_nodes
# follows the drawn query points, so it is compared for one seed only
SEED_FREE_COUNTERS = ("montecarlo.path_steps", "montecarlo.rng_draws", "heatflow.cn_steps",
                      "zerorange.table_bytes")

UNITS = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer")
         for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


def _environment(seed: int, versions: dict) -> list[str]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "n/a (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polymer_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    lines = [f"env {k} = {v}" for k, v in versions.items()]
    lines += [
        f"env nproc = {os.cpu_count()} (usable {len(os.sched_getaffinity(0))})",
        f"env cpu = {cpu}",
    ]
    lines += [f"env {var} = {os.environ.get(var, 'unset')}"
              for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")]
    lines += [f"env git_commit = {commit}", f"env src_sha256 = {digest.hexdigest()}",
              f"env seed = {seed}"]
    return lines


class Runner:
    def __init__(self, workload: str, work: Path, deadline: float) -> None:
        self.workload, self.work, self.deadline = workload, work, deadline
        self.count = 0

    def spawn(self, seed: int, trace: int = 0, setup_only: bool = False) -> dict:
        self.count += 1
        cwd = self.work / f"pass{self.count:02d}"
        cwd.mkdir(parents=True)
        result = cwd / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(seed), "--src", str(ROOT / "src"), "--result", str(result),
               "--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        timeout = max(1.0, self.deadline - time.monotonic())
        spawned = time.monotonic()
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=cwd, capture_output=True,
                              text=True, timeout=timeout)
        if proc.returncode != 0 or not result.exists():
            raise RuntimeError(f"pass in {cwd} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        out = json.loads(result.read_text())
        out["dir"] = cwd
        return out


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _leg_sums(p: dict) -> dict:
    sums = {f"leg{i}_s": 0.0 for i in (1, 2, 3)}
    for op in p["ops"]:
        sums[f"leg{op['leg']}_s"] += op["seconds"]
    return sums


def _group_sums(p: dict) -> tuple[dict, dict]:
    sums, counts = {}, {}
    for op in p["ops"]:
        sums[op["group"]] = sums.get(op["group"], 0.0) + op["seconds"]
        counts[op["group"]] = counts.get(op["group"], 0) + 1
    return sums, counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "polymer_lab" / "__init__.py").is_file():
        print(f"error: no polymer_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(args.workload, work, started + BUDGET_S)
    try:
        return _measure(args, runner, started)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, runner: Runner, started: float) -> int:
    setups = [runner.spawn(args.seed, setup_only=True) for _ in range(SETUP_PROBES)]
    passes = []
    measure_start = time.monotonic()
    while not passes or time.monotonic() - measure_start < args.seconds:
        passes.append(runner.spawn(args.seed))
    problems = []
    traced = []
    if args.trace:
        traced = [runner.spawn(args.seed, trace=1), runner.spawn(args.seed + 1, trace=1)]
        if traced[0]["layers"]["laplace.quad_nodes"]:
            # the node count follows the drawn queries: repeat the seed to check it
            traced.append(runner.spawn(args.seed, trace=1))
        problems += _trace_checks(passes[0], traced)
        keep = ROOT / ".bench_work" / f"spans-{args.workload}-{args.seed}.jsonl"
        shutil.copyfile(traced[0]["dir"] / "spans.jsonl", keep)

    all_passes = passes + traced
    attempted = sum(len(p["ops"]) for p in all_passes)
    failures = [(p["dir"].name, op) for p in all_passes for op in p["ops"] if op["error"]]
    for where, op in failures:
        print(f"FAILED {where} {op['key']}: {op['error']}")
    for problem in problems:
        print(f"FAILED {problem}")

    for line in _environment(args.seed, passes[0]["versions"]):
        print(line)
    print(f"run workload = {args.workload}, untraced passes = {len(passes)}, "
          f"traced passes = {len(traced)}, elapsed = {time.monotonic() - started:.1f} s")
    print("note: one process, closed loop; no layer waits on a queue, so waiting time "
          "does not apply")

    metrics = _end_to_end(args.workload, setups + passes, passes, attempted, len(failures))
    if args.trace:
        metrics = _per_layer(traced, passes)
    correct = not failures and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1


def _end_to_end(workload: str, setups, passes, attempted: int, failed: int) -> dict:
    samples = {  # name -> (values, what was sampled)
        "setup_s": ([s["setup_s"] for s in setups], "fresh interpreters"),
        "wall_s": ([p["wall_s"] for p in passes], "passes"),
        "peak_rss_mb": ([p["peak_rss_mb"] for p in passes], "passes"),
    }
    legs = [_leg_sums(p) for p in passes]
    for i, label in enumerate(LEGS[workload], 1):
        key = f"leg{i}_s"
        samples[key] = ([s[key] for s in legs], f"passes; {key} = {label.replace('+', '_s + ')}_s")
    values = {}
    for key, (xs, what) in samples.items():
        values[key] = _median(xs)
        each = ", ".join(f"{x:.4g}" for x in xs)
        print(f"metric {key} = {values[key]:.6g} {UNITS[key]} "
              f"(median of n = {len(xs)} {what}: {each})")
    groups = [_group_sums(p) for p in passes]
    for group, calls in groups[0][1].items():
        per_pass = [g[0][group] for g in groups]
        print(f"metric {group}_s = {_median(per_pass):.6g} s "
              f"(median of n = {len(passes)} passes; sum of {calls} invocations per pass)")
        if group == "query":
            lat = [op["seconds"] * 1e3 for p in passes for op in p["ops"] if op["group"] == group]
            for q in (50, 90):
                print(f"metric query_p{q}_ms = {_percentile(lat, q):.6g} ms "
                      f"(n = {len(lat)} queries)")
    print(f"metric fail_ratio = {failed / attempted:.6g} 1 (n = {attempted} operations)")
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def _trace_checks(untraced: dict, traced: list) -> list[str]:
    problems = []
    if traced[0]["outputs"] != untraced["outputs"]:
        differ = sorted(k for k in set(traced[0]["outputs"]) | set(untraced["outputs"])
                        if traced[0]["outputs"].get(k) != untraced["outputs"].get(k))
        problems.append(f"traced CLI outputs differ from the untraced run: {differ}")
    a, b = traced[0]["layers"], traced[1]["layers"]
    for name in SEED_FREE_COUNTERS:
        if a[name] != b[name]:
            problems.append(f"counter {name} moved between seeds: {a[name]} != {b[name]}")
    for again in traced[2:]:
        for name in SEED_FREE_COUNTERS + ("laplace.quad_nodes",):
            if a[name] != again["layers"][name]:
                problems.append(f"counter {name} did not repeat for one seed: "
                                f"{a[name]} != {again['layers'][name]}")
    return problems


def _per_layer(traced: list, passes: list) -> dict:
    layers = dict(traced[0]["layers"])
    seeds = ["s", "s + 1", "s"][:len(traced)]
    overhead = traced[0]["wall_s"] - _median([p["wall_s"] for p in passes])
    layers["trace_overhead_s"] = overhead
    for name, value in layers.items():
        print(f"layer {name} = {value:.6g} {UNITS[name]} (n = 1 traced pass)")
    for name in SEED_FREE_COUNTERS + ("laplace.quad_nodes",):
        counts = ", ".join(str(t["layers"][name]) for t in traced)
        print(f"counter {name} = {counts} (traced passes at seeds {', '.join(seeds)})")
    return {name: {"value": value, "unit": UNITS[name]} for name, value in layers.items()}


if __name__ == "__main__":
    sys.exit(main())
