"""Span tracing of dfindex's layers, used only by traced (--trace 1) runs.

``Tracer.install`` wraps the public functions (``__all__``) of each package
module, plus a few methods that carry a layer's work, and rebinds each
wrapper in every namespace where callers look the function up: the defining
module, modules that imported the name directly (``dangelo.levi_matrix``),
module-level dispatch tables (``exprparse._JET_FN``) and the package root.
Each call records a span (name, start, end, parent span) in flat arrays kept
in memory; ``save`` writes them out when the run ends.  A span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("jets", "domains", "levi", "dangelo", "index", "exprparse", "cli")

# units of work recorded on a span, for per-point figures
_UNITS = {
    "domains.boundary_sample": lambda args, kwargs, result: len(result),
    # every caller passes (domain, points) positionally
    "index.criterion_samples": lambda args, kwargs, result: len(args[1]),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.units = array("d")
        self._stack = [-1]
        self.jet_objects = 0
        self._patches = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._id(name)
        units = _UNITS.get(name)
        clock = time.perf_counter
        names, starts, ends, parents, unit_arr = (
            self.name, self.start, self.end, self.parent, self.units)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            unit_arr.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if units is not None:
                unit_arr[idx] = units(args, kwargs, result)
            return result

        return traced

    # -- installing and removing the wrappers ------------------------------------

    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self):
        package = importlib.import_module("dfindex")
        modules = {layer: importlib.import_module(f"dfindex.{layer}")
                   for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        for mod in [package, *modules.values()]:
            for key, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._patch(mod, key, wrapped[id(value)])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if id(v) in wrapped:
                            self._patch(value, k, wrapped[id(v)])

        domains, dangelo, index, jets = (modules["domains"], modules["dangelo"],
                                         modules["index"], modules["jets"])
        # DomainSpec.rho is the jet evaluation; its order names the span
        rho = domains.DomainSpec.rho
        by_order = {k: self.wrap(f"jets.eval{k}", rho) for k in (1, 2, 3)}

        def traced_rho(spec, coords, order=3):
            return by_order[order](spec, coords, order)

        self._patch(domains.DomainSpec, "rho", traced_rho)
        self._patch(domains.DomainSpec, "boundary_point",
                    self.wrap("domains.boundary_point",
                              domains.DomainSpec.boundary_point))
        self._patch(dangelo.PointCalculus, "__init__",
                    self.wrap("dangelo.point_calculus",
                              dangelo.PointCalculus.__init__))
        self._patch(index.RhoFamily, "realize",
                    self.wrap("index.realize", index.RhoFamily.realize))
        jet_init = jets.Jet.__init__

        def counted_init(jet, *args, **kwargs):
            self.jet_objects += 1
            jet_init(jet, *args, **kwargs)

        self._patch(jets.Jet, "__init__", counted_init)

    def uninstall(self):
        while self._patches:
            owner, key, value = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # -- results -----------------------------------------------------------------

    def arrays(self):
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "units": np.frombuffer(self.units, dtype=np.float64).copy()}

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer, rounds):
    """Per-layer metrics from the spans of ``rounds`` identical traced rounds.

    Counts are per round.  ``.us``, ``.ms`` and ``.s`` figures are mean
    inclusive times per call; ``us_per_point`` divides by the points handled.
    A layer that does not run on a workload reports 0.
    """
    a = tracer.arrays()
    names = tracer.names
    dur = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    def mask(name):
        return a["name"] == (names.index(name) if name in names else -1)

    def below(name):
        """Spans with an ancestor span called ``name``."""
        flag = mask(name)
        inside = np.zeros_like(flag)
        up = np.where(has_parent, parent, 0)
        for _ in range(256):
            step = has_parent & (flag[up] | inside[up])
            if np.array_equal(step, inside):
                break
            inside = step
        return inside

    def calls(name):
        return int(mask(name).sum()) / rounds

    def mean(name, scale):
        m = mask(name)
        return float(dur[m].mean()) * scale if m.any() else 0.0

    def per_unit(name):
        m = mask(name)
        units = float(a["units"][m].sum())
        return float(dur[m].sum()) * 1e6 / units if units else 0.0

    span_layer = np.array([n.split(".", 1)[0] for n in names])[a["name"]]

    points = float(a["units"][mask("domains.boundary_sample")].sum())
    optimizations = int(mask("index.optimize_rho").sum())
    m = {
        "jets.eval1.calls": (calls("jets.eval1"), "count"),
        "jets.eval1.us": (mean("jets.eval1", 1e6), "us"),
        "jets.eval3.calls": (calls("jets.eval3"), "count"),
        "jets.eval3.us": (mean("jets.eval3", 1e6), "us"),
        "jets.wirtinger.calls": (calls("jets.wirtinger"), "count"),
        "jets.wirtinger.us": (mean("jets.wirtinger", 1e6), "us"),
        "jets.jet_objects": (tracer.jet_objects / rounds, "count"),
        "domains.boundary_sample.us_per_point":
            (per_unit("domains.boundary_sample"), "us"),
        "domains.evals_per_point":
            (float((mask("jets.eval1") & below("domains.boundary_sample")).sum())
             / points if points else 0.0, "count"),
        "domains.boundary_point.us": (mean("domains.boundary_point", 1e6), "us"),
        "levi.tangent_frame.us": (mean("levi.tangent_frame", 1e6), "us"),
        "levi.levi_matrix.calls": (calls("levi.levi_matrix"), "count"),
        "levi.levi_matrix.us": (mean("levi.levi_matrix", 1e6), "us"),
        "dangelo.point_calculus.calls": (calls("dangelo.point_calculus"), "count"),
        "dangelo.point_calculus.us": (mean("dangelo.point_calculus", 1e6), "us"),
        "dangelo.omega_on_null.us": (mean("dangelo.omega_on_null", 1e6), "us"),
        "dangelo.dbar_omega.us": (mean("dangelo.dbar_omega", 1e6), "us"),
        "index.objective_evals":
            (float((mask("index.realize") & below("index.optimize_rho")).sum())
             / optimizations if optimizations else 0.0, "count"),
        "index.optimize_rho.s": (mean("index.optimize_rho", 1.0), "s"),
        "index.criterion_samples.us_per_point":
            (per_unit("index.criterion_samples"), "us"),
        "index.spc_check.s": (mean("index.spc_check", 1.0), "s"),
        "exprparse.parse_expression.ms":
            (mean("exprparse.parse_expression", 1e3), "ms"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (
            float(self_time[span_layer == layer].sum()) / rounds, "s")
    return m
