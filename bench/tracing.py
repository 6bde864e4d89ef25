"""Per-layer tracing of qvelab from outside the package.

A layer is a qvelab module.  ``Tracer.install`` rebinds the public functions of
every module, and each name another module imported from it, to timing
wrappers; ``uninstall`` restores the originals.  Nothing under src/ changes.

A wrapped function records a span (id, parent id, operation id, name, start,
end, error type).  A span's self time is its duration minus the time covered
by its child spans.  Class methods and the hot helpers in COUNTED_ONLY are
only counted: a span per call would swamp memory, and their time stays in the
calling span, so e.g. metric_d's self time includes its Stieltjes transforms.
An exception counts as an error of the layer it was first seen in.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "qve", "measures", "trees", "kernels", "rates", "ensembles", "suites")

COUNTED_ONLY = frozenset({
    "cli.parse_complex", "cli.parse_grid",
    "measures.stieltjes",
    "trees.hom_density", "trees.rooted_density_vector", "trees.rooted_hom_density",
    "rates.cgf_L", "rates.cgf_L_prime", "rates.h_L_prime", "rates.legendre_h_L",
    "rates.er_rate_h",
    "ensembles.entry_uniform",
    "kernels.degree_function",
})

# a solve counts as near-axis when its lowest point has Im z below this
NEAR_AXIS = 0.1

KERNEL_IO = ("load_kernel", "save_kernel", "kernel_from_json", "kernel_to_json",
             "load_adjacency_csv", "save_adjacency_csv")
ENSEMBLE_CSV_WRITE = ("save_sample_csv", "save_eigenvalues_csv")
ENSEMBLE_CSV_READ = ("load_sample_csv",)
RESOLVENT = ("resolvent", "schur_residual", "ward_residual")


class Tracer:
    def __init__(self):
        self.op = 0
        self.spans = []                  # (id, parent, op, name, t0, t1, error)
        self.calls = Counter()           # by qualified name
        self.self_s = defaultdict(float)  # by qualified name (spans only)
        self.errors = Counter()          # by (layer, error type)
        self.solve = {"points": 0, "time": 0.0, "near": 0.0, "far": 0.0}
        self.points_by_op = Counter()
        self.csv_bytes = 0
        self.suite_trials = Counter()    # trials of suite calls that completed
        self._stack = []                 # [span id, child time]
        self._next_id = 0
        self._last_exc = None
        self._undo = []
        self._suite_names = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"qvelab.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self._wrap(name, layer, obj, name in COUNTED_ONLY)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        self._suite_names = {fn: name for name, fn in
                             vars(mods["suites"])["ALL_SUITES"].items()}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrapped:
                            self._undo.append((obj.__setitem__, key, val))
                            obj[key] = wrapped[val]

    def _wrap_methods(self, layer, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                new = type(member)(self._wrap(name, layer, member.__func__, True))
            elif inspect.isfunction(member):
                new = self._wrap(name, layer, member, True)
            else:
                continue
            self._set(cls, attr, new, member)

    def _set(self, owner, attr, new, old=None) -> None:
        old = getattr(owner, attr) if old is None else old
        self._undo.append((functools.partial(setattr, owner), attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for setter, key, old in reversed(self._undo):
            setter(key, old)
        self._undo.clear()

    # -- wrappers -------------------------------------------------------------

    def _error(self, layer, exc) -> str:
        if exc is not self._last_exc:
            self._last_exc = exc
            self.errors[(layer, type(exc).__name__)] += 1
        return type(exc).__name__

    def _wrap(self, name, layer, fn, counted_only):
        tracer = self

        if counted_only:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.calls[name] += 1
                try:
                    return fn(*args, **kwargs)
                except BaseException as exc:
                    tracer._error(layer, exc)
                    raise
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else 0
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            stack.append(frame)
            error = None
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = tracer._error(layer, exc)
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                tracer._close(name, fn, frame, parent, t0, t1, error, args, kwargs)
        return spanned

    def _close(self, name, fn, frame, parent, t0, t1, error, args, kwargs) -> None:
        own = (t1 - t0) - frame[1]
        self.calls[name] += 1
        self.self_s[name] += own
        self.spans.append((frame[0], parent, self.op, name, t0, t1, error))
        if name == "qve.solve_qve":
            z = np.atleast_1d(np.asarray(args[1] if len(args) > 1 else kwargs["z_points"],
                                         dtype=complex))
            self.solve["near" if z.imag.min() < NEAR_AXIS else "far"] += own
            self.solve["time"] += t1 - t0
            if error is None:
                self.solve["points"] += z.size
                self.points_by_op[self.op] += z.size
        elif name.startswith("ensembles.") and name.split(".")[1] in (
                ENSEMBLE_CSV_WRITE + ENSEMBLE_CSV_READ) and error is None:
            path = args[1] if name.split(".")[1] in ENSEMBLE_CSV_WRITE else args[0]
            self.csv_bytes += os.path.getsize(path)
        elif fn in self._suite_names and error is None:
            params = inspect.signature(fn).parameters
            self.suite_trials[self._suite_names[fn]] += kwargs.get(
                "trials", params["trials"].default)

    # -- results ---------------------------------------------------------------

    def _self(self, *names) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def metrics(self, import_s: float, ok_ops: set, overhead: float) -> dict:
        """Per-layer metrics by name, with the unit of each."""
        s = {}

        def put(name, value, unit):
            s[name] = {"value": value, "unit": unit}

        layer_self = defaultdict(float)
        layer_calls = Counter()
        for name, value in self.self_s.items():
            layer_self[name.split(".")[0]] += value
        for name, count in self.calls.items():
            layer_calls[name.split(".")[0]] += count
        layer_errors = Counter()
        for (layer, _), count in self.errors.items():
            layer_errors[layer] += count

        put("cli.import_s", import_s, "s")
        solved = self.solve["points"]
        put("qve.solve_qve.points", solved, "count")
        put("qve.solve_qve.points_per_s",
            solved / self.solve["time"] if self.solve["time"] else 0.0, "1/s")
        put("qve.solve_qve.near.self_s", self.solve["near"], "s")
        put("qve.solve_qve.far.self_s", self.solve["far"], "s")
        useful = sum(n for op, n in self.points_by_op.items() if op in ok_ops)
        put("qve.solve_qve.useful_share", useful / solved if solved else 0.0, "1")
        for name in ("qve.qve_measure", "qve.solution_to_json", "qve.stability_check",
                     "measures.metric_d", "measures.wasserstein", "measures.ks_distance",
                     "trees.qve_moment", "trees.enumerate_trees", "kernels.cut_norm",
                     "kernels.cut_distance", "ensembles.sample_sparse_wigner",
                     "ensembles.tilted_sample", "ensembles.esm"):
            put(f"{name}.self_s", self._self(name), "s")
        put("measures.stieltjes.calls", self.calls["measures.stieltjes"]
            + self.calls["measures.ProbMeasure1D.stieltjes"], "count")
        put("measures.csv.write_s", self._self("measures.save_measure_csv"), "s")
        put("measures.csv.read_s", self._self("measures.load_measure_csv"), "s")
        put("trees.hom_density.calls", self.calls["trees.hom_density"], "count")
        put("kernels.io.self_s", self._self(*(f"kernels.{n}" for n in KERNEL_IO)), "s")
        put("ensembles.csv.write_s",
            self._self(*(f"ensembles.{n}" for n in ENSEMBLE_CSV_WRITE)), "s")
        put("ensembles.csv.read_s",
            self._self(*(f"ensembles.{n}" for n in ENSEMBLE_CSV_READ)), "s")
        put("ensembles.csv.bytes", self.csv_bytes, "B")
        put("ensembles.resolvent.self_s",
            self._self(*(f"ensembles.{n}" for n in RESOLVENT)), "s")
        for fn, suite in sorted(self._suite_names.items(), key=lambda kv: kv[1]):
            put(f"suites.{suite}.self_s", self._self(f"suites.{fn.__name__}"), "s")
            put(f"suites.{suite}.trials", self.suite_trials[suite], "count")
        for layer in LAYERS:
            put(f"{layer}.self_s", layer_self[layer], "s")
            put(f"{layer}.calls", layer_calls[layer], "count")
            put(f"{layer}.errors", layer_errors[layer], "count")
        put("trace.overhead", overhead, "ratio")
        return s

    def errors_by_layer(self) -> dict:
        out = defaultdict(dict)
        for (layer, kind), count in sorted(self.errors.items()):
            out[layer][kind] = count
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1, error in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "t0": t0, "t1": t1, "error": error}) + "\n")
