"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer's public function, recorded where the call
crosses a module boundary: from the benchmark's own job code into a layer,
or from one layer into a function another layer defines.  Each span keeps
its name (``<layer>.<function>``), start, end, parent span and job id.
Calls inside one module are not wrapped, so a function's self time covers
its own module's helpers.

Self time is a span's duration minus the durations of its direct children;
in one thread children never overlap, so that is the time they cover.

Hooks attached to selected names add counts computed from the call's
arguments (bytes of the arrays a call must build, strategies enumerated),
and tag calls whose arguments match a hot-path row, so that per-call times
for those rows come out of the same spans.
"""

from __future__ import annotations

import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("bloch", "quantum", "leggett", "nosignaling", "cli")
# Modules whose imported names are wrapped where they cross into another layer.
IMPORTING_MODULES = ("leggett", "nosignaling", "cli")


def layer_of(func) -> str:
    return func.__module__.rsplit(".", 1)[-1]


class SpanRecorder:
    """Collects spans and computed counts; one instance per traced run."""

    def __init__(self, hooks: dict | None = None):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self.tags: dict[int, tuple[str, float]] = {}
        self.job_id = -1
        self._stack: list[int] = []
        self._hooks = hooks or {}
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, func):
        """Return ``func`` wrapped so that every call records one span."""
        name = f"{layer_of(func)}.{func.__name__}"
        nid = self._name_id(name)
        hook = self._hooks.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.job_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                tag = hook(self.counts, args, kwargs)
                if tag is not None:
                    self.tags[idx] = tag
            return result

        return traced

    def patch_boundaries(self, package: types.ModuleType) -> None:
        """Wrap every function one layer imports from another layer."""
        for mod_name in IMPORTING_MODULES:
            module = getattr(package, mod_name)
            for attr, value in list(vars(module).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__.startswith(package.__name__ + ".")
                    and value.__module__ != module.__name__
                ):
                    self._patched.append((module, attr, value))
                    setattr(module, attr, self.wrap(value))

    def unpatch(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per-name and per-layer calls and self time, plus tagged durations."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.zeros_like(dur)
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        self_by_name = np.bincount(a["name_id"], weights=self_s, minlength=k)
        by_name = {
            name: {"calls": int(calls[i]), "self_s": float(self_by_name[i])}
            for i, name in enumerate(self.names)
        }
        by_layer = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, row in by_name.items():
            layer = by_layer[name.split(".", 1)[0]]
            layer["calls"] += row["calls"]
            layer["self_s"] += row["self_s"]
        parent_name = np.full(len(dur), -1)
        parent_name[has_parent] = a["name_id"][a["parent"][has_parent]]
        tagged: dict[str, list[float]] = {}
        for idx, (label, per) in self.tags.items():
            tagged.setdefault(label, []).append(float(dur[idx]) / per)
        return {
            "by_name": by_name,
            "by_layer": by_layer,
            "child_calls": self._child_calls(a["name_id"], parent_name),
            "tagged": tagged,
        }

    def _child_calls(self, name_id: np.ndarray, parent_name: np.ndarray) -> dict:
        out = {}
        for i, parent in enumerate(self.names):
            mask = parent_name == i
            if mask.any():
                ids, n = np.unique(name_id[mask], return_counts=True)
                out[parent] = {self.names[j]: int(c) for j, c in zip(ids, n)}
        return out

    def write(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
