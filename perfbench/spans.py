"""Layer spans recorded from outside the package.

The tracer wraps every function object that a package module imports from a
layer module, for example ``solver.assign``, ``centroid.coefficient_and_distance``
or ``cli.fit``, and keys the span by the layer the function comes from, not by
its caller. The outer layers (``cli``, ``solver``) also get their own public
functions wrapped, because they call them once per run (``cli.load_csv``,
``cli.run``, ``solver.init_centroids``). Inner layers call their own helpers
once per (row, centroid) pair, where a span would cost more than the work, so
``scalar_prox`` time shows inside the ``distance`` and ``centroid`` spans.
Spans stay in memory and are reduced to per-layer metrics after each pass.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
import types

PACKAGE = "onmfcluster"
LAYERS = ("cli", "solver", "distance", "centroid", "model")
OUTER_LAYERS = ("cli", "solver")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack = [-1]
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def wrap(self, key: str, fn):
        names, parents, starts, ends, stack = self.names, self.parents, self.starts, self.ends, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(names)
            names.append(key)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return span

    def install(self) -> None:
        """Replace layer functions in every package module by span wrappers."""
        layer_modules = {f"{PACKAGE}.{layer}": layer for layer in LAYERS}
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType) or value.__module__ not in layer_modules:
                    continue
                layer = layer_modules[value.__module__]
                if value.__module__ == module.__name__ and (layer not in OUTER_LAYERS or name.startswith("_")):
                    continue
                self._patched.append((module, name, value))
                setattr(module, name, self.wrap(f"{layer}.{value.__name__}", value))

    def uninstall(self) -> None:
        for module, name, value in reversed(self._patched):
            setattr(module, name, value)
        self._patched.clear()

    def clear(self) -> None:
        for spans in (self.names, self.parents, self.starts, self.ends):
            spans.clear()


def _package_modules() -> list[types.ModuleType]:
    package = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            importlib.import_module(f"{PACKAGE}.{info.name}")
    return [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]


def self_times(parents: list[int], durations: list[float]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest strictly, so the children cover disjoint parts of
    the parent's interval.
    """
    own = list(durations)
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= durations[i]
    return own


def layer_metrics(names: list[str], parents: list[int], starts: list[float], ends: list[float]) -> dict:
    """Per-layer numbers of one traced pass; a layer nothing called reads 0."""
    durations = [e - s for s, e in zip(starts, ends)]
    own = self_times(parents, durations)
    layer = [n.split(".", 1)[0] for n in names]
    m = {f"{name}.self_s": 0.0 for name in LAYERS}
    for key in (
        "distance.assign.s", "distance.assign.calls", "centroid.update.s", "centroid.update.calls",
        "centroid.reseed.s", "solver.init_centroids.s", "solver.init_centroids.distance_calls",
        "model.objective.s", "model.objective.calls", "cli.load_csv.s", "cli.write.s",
        "fit.s", "fit.distance_s", "root.s",
    ):
        m[key] = 0
    in_fit = [False] * len(names)
    for i, (name, p, d) in enumerate(zip(names, parents, durations)):
        lay = layer[i]
        parent_layer = layer[p] if p >= 0 else None
        parent_name = names[p] if p >= 0 else None
        m[f"{lay}.self_s"] += own[i]
        if p < 0:
            m["root.s"] += d
        if lay == "solver" and not (p >= 0 and in_fit[p]):
            m["fit.s"] += d
        in_fit[i] = lay == "solver" or (p >= 0 and in_fit[p])
        if lay == "distance" and in_fit[i]:
            m["fit.distance_s"] += own[i]
        if name == "model.objective":
            m["model.objective.s"] += d
            m["model.objective.calls"] += 1
        elif name == "cli.load_csv":
            m["cli.load_csv.s"] += d
        elif name == "cli.run":
            m["cli.write.s"] += d
        elif name == "solver.init_centroids":
            m["solver.init_centroids.s"] += d
        if parent_name == "cli.run" and (name == "cli.load_csv" or lay == "solver"):
            m["cli.write.s"] -= d
        if lay == "distance" and parent_layer == "solver":
            if parent_name == "solver.init_centroids":
                m["solver.init_centroids.distance_calls"] += 1
            else:
                m["distance.assign.s"] += d
                m["distance.assign.calls"] += 1
        elif lay == "distance" and parent_layer == "centroid":
            m["centroid.reseed.s"] += d
        elif lay == "centroid" and parent_layer == "solver":
            m["centroid.update.s"] += d
            m["centroid.update.calls"] += 1
    return m
