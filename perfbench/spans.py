"""Per-layer spans for polymer_lab, recorded from outside the package.

`Tracer.install()` replaces every public function of the eight layer
modules (and the public methods of their classes) with a wrapper that
records a span: name, layer, start, end and the span that caused it.  A
name bound elsewhere with ``from ... import`` is replaced in every
polymer_lab namespace that holds it, so a call is traced whichever module
makes it.  SciPy functions are wrapped only in the namespace of the module
that imported them and count towards that module's layer, which is how
`heatflow.solve_banded`, `spectral.eigh_tridiagonal` and `spectral.brentq`
become the CN-step, FD-solve and root-find counters.

A layer's self time is the time inside its spans minus the time inside
child spans.  There is one thread and no queue, so no layer waits.
`uninstall()` puts every original back.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "spectral", "laplace", "zerorange", "heatflow", "montecarlo",
          "potentials", "radial")

# seeded point queries the benchmark itself issues; their top-level spans
# make up zerorange.query.s
QUERY_SPANS = frozenset({"zerorange.pbar", "zerorange.zbar", "zerorange.fdd_density",
                         "zerorange.transition_R"})


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _nbytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, layer, start, end, parent, error)
        self._stack: list[list] = []  # [span index, child seconds]
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.name_s: defaultdict = defaultdict(float)
        self.name_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.ess_ratio_min: float | None = None
        self._tables_seen: set = set()
        # per-span hooks that read arguments or results into counters
        self._hooks = {
            "heatflow.solve_banded": self._on_solve_banded,
            "montecarlo.sample_weighted_paths": self._on_weighted_paths,
            "potentials.RadialPotential.__call__": self._on_potential_eval,
            "laplace.ContourSpec.for_kernel": self._on_contour,
            "laplace.kernel_closed_form": self._elements("laplace.kernel_closed_form"),
            "laplace.zbar_correction": self._elements("laplace.zbar_correction"),
            "radial.gauss_sphere_integral": self._elements("radial.gauss_sphere_integral"),
            "zerorange._tables": self._on_tables,
            "zerorange.sample_paths": self._on_sample_paths,
        }

    # -- counters read at the layer boundaries --------------------------------

    def _on_solve_banded(self, args, kwargs, result):
        self.counts["heatflow.cn_steps"] += 1
        nodes = int(np.size(_arg(args, kwargs, 2, "b")))
        self.counts["heatflow.nodes_max"] = max(self.counts["heatflow.nodes_max"], nodes)

    def _on_weighted_paths(self, args, kwargs, result):
        T = _arg(args, kwargs, 2, "T")
        dt = _arg(args, kwargs, 3, "dt")
        n = _arg(args, kwargs, 4, "n")
        steps = int(n) * int(round(T / dt))
        self.counts["montecarlo.path_steps"] += steps
        self.counts["montecarlo.rng_draws"] += 3 * steps
        ratio = float(result.ess_ratio)
        if self.ess_ratio_min is None or ratio < self.ess_ratio_min:
            self.ess_ratio_min = ratio

    def _on_potential_eval(self, args, kwargs, result):
        self.counts["potentials.eval.elements"] += int(np.size(_arg(args, kwargs, 1, "r")))

    def _on_contour(self, args, kwargs, result):
        self.counts["laplace.quad_nodes"] += int(result.nodes)

    def _elements(self, name):
        def hook(args, kwargs, result):
            self.counts[name + ".elements"] += int(np.size(result))
        return hook

    def _on_tables(self, args, kwargs, result):
        # the tables sit behind an LRU cache: count each distinct build once
        if id(result) not in self._tables_seen:
            self._tables_seen.add(id(result))
            self.counts["zerorange.table_bytes"] += _nbytes(result)

    def _on_sample_paths(self, args, kwargs, result):
        n_steps = _arg(args, kwargs, 1, "n_steps")
        n_paths = _arg(args, kwargs, 2, "n_paths")
        self.counts["zerorange.sample_paths.path_steps"] += int(n_steps) * int(n_paths)

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        hook = self._hooks.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            index = len(spans)
            spans.append(None)
            stack.append([index, 0.0])
            error = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                error = True
                raise
            finally:
                end = clock()
                _, child = stack.pop()
                duration = end - start
                spans[index] = (name, layer, start, end, parent, error)
                if stack:
                    stack[-1][1] += duration
                self.calls[layer] += 1
                self.self_s[layer] += duration - child
                self.name_s[name] += duration
                self.name_calls[name] += 1
                if error:
                    self.errors[layer] += 1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"polymer_lab.{layer}") for layer in LAYERS}
        replaced = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for public in mod.__all__:
                obj = getattr(mod, public)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{public}", layer)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{public}", layer)
            # SciPy entry points count towards the module that calls them
            for attr, obj in list(vars(mod).items()):
                home = getattr(obj, "__module__", None) or ""
                if home.startswith("scipy") and (inspect.isfunction(obj) or inspect.isbuiltin(obj)):
                    self._patch(mod, attr, self._wrap(obj, f"{layer}.{attr}", layer))
        tables = modules["zerorange"].__dict__.get("_tables")
        if tables is not None:
            replaced[id(tables)] = self._wrap(tables, "zerorange._tables", "zerorange")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "polymer_lab" or mod_name.startswith("polymer_lab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

    def _wrap_methods(self, cls, prefix: str, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(raw.__func__, name, layer)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(raw.__func__, name, layer)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, name, layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics; a ratio whose layer did no such work reads 0."""
        def ratio(num, den, scale):
            return num / den * scale if den else 0.0

        c, s = self.counts, self.name_s
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        out.update({
            "heatflow.cn_steps": c["heatflow.cn_steps"],
            "heatflow.us_per_cn_step": ratio(self.self_s["heatflow"], c["heatflow.cn_steps"], 1e6),
            "heatflow.nodes_max": c["heatflow.nodes_max"],
            "spectral.compute_summary.s": s["spectral.compute_summary"],
            "spectral.principal_eigenvalue.s": s["spectral.principal_eigenvalue"],
            "spectral.beta0_of_lambda.calls": self.name_calls["spectral.beta0_of_lambda"],
            "spectral.fd_solves": self.name_calls["spectral.eigh_tridiagonal"],
            "spectral.root_finds": self.name_calls["spectral.brentq"],
            "montecarlo.path_steps": c["montecarlo.path_steps"],
            "montecarlo.rng_draws": c["montecarlo.rng_draws"],
            "montecarlo.ns_per_path_step": ratio(
                s["montecarlo.sample_weighted_paths"], c["montecarlo.path_steps"], 1e9),
            "montecarlo.ess_ratio_min": self.ess_ratio_min or 0.0,
            "montecarlo.ks_s": s["montecarlo.ks_distance"] + s["montecarlo.empirical_radial_marginal"],
            "potentials.eval.elements": c["potentials.eval.elements"],
            "potentials.ns_per_eval": ratio(
                s["potentials.RadialPotential.__call__"], c["potentials.eval.elements"], 1e9),
            "zerorange.pbar_sphere_mean.s": s["zerorange.pbar_sphere_mean"],
            "zerorange.table_bytes": c["zerorange.table_bytes"],
            "zerorange.sample_paths.path_steps": c["zerorange.sample_paths.path_steps"],
            "zerorange.query.s": sum(end - start for name, _, start, end, parent, _ in self.spans
                                     if parent is None and name in QUERY_SPANS),
            "laplace.kernel_integral.s": s["laplace.kernel_integral"],
            "laplace.quad_nodes": c["laplace.quad_nodes"],
            "laplace.kernel_closed_form.elements": c["laplace.kernel_closed_form.elements"],
            "laplace.zbar_correction.elements": c["laplace.zbar_correction.elements"],
            "radial.gauss_sphere_integral.elements": c["radial.gauss_sphere_integral.elements"],
            "radial.gauss_sphere_integral.s": s["radial.gauss_sphere_integral"],
        })
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, layer, start, end, parent, error) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "layer": layer, "start": start,
                                     "end": end, "parent": parent, "error": error}) + "\n")
