"""Span recorder for the traced benchmark run.

The recorder wraps the public (non-underscore) functions of each layer module
of qdiscord, plus the public methods and constructors of the classes those
modules define, and replaces every binding of each original object across
qdiscord's loaded modules, found by identity.  No source file is touched,
and whatever public functions a module has at run time get wrapped, so
adding or removing library functions needs no change here.

A span opens when a call enters a layer from outside it: from the harness or
from another layer.  Calls a layer makes into itself are part of the
enclosing span.  A layer's self time is its spans' durations minus the time
of the spans they caused.  Totals are aggregated as spans close; the full
span records (id, parent, layer, function, item, start, end, ok) are kept
only for the first few items, in memory, and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("qstate", "ensemble", "measurement", "discord", "geodiscord", "oracle", "cli")
# Full span records are kept for this many items, and at most this many spans.
RECORDED_ITEMS = 2
MAX_RECORDED_SPANS = 50_000


class LayerStats:
    __slots__ = ("calls", "failed", "self_s", "axes", "evaluations", "results", "grid")

    def __init__(self):
        self.calls = 0
        self.failed = 0
        self.self_s = 0.0
        self.axes = 0
        self.evaluations = 0
        self.results = 0
        self.grid = 0


class Tracer:
    """Wraps layer boundaries and aggregates per-layer counts and self time."""

    def __init__(self):
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self.wrapped: dict[str, list[str]] = {layer: [] for layer in LAYERS}
        self.item = 0
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0

    def install(self) -> None:
        """Wrap every layer's public callables and rebind them across qdiscord."""
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"qdiscord.{layer}")
            except ImportError:  # a layer that no longer exists just reports no calls
                continue
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = self._wrap(layer, obj)
                    self.wrapped[layer].append(name)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "qdiscord" or mod_name.startswith("qdiscord.")):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self._wrap(layer, attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(layer, attr))
            else:
                continue
            self.wrapped[layer].append(f"{cls.__name__}.{name}")

    def _wrap(self, layer: str, fn):
        stats = self.stats[layer]
        stack = self._stack
        label = f"{layer}.{fn.__qualname__}"
        params = _parameters(fn)
        names = list(params)
        axes_at = names.index("n") if "n" in params else None
        grid_at = names.index("grid_size") if "grid_size" in params else None
        grid_default = params["grid_size"].default if grid_at is not None else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is stats:
                return fn(*args, **kwargs)
            frame = [stats, 0.0, tracer._open_span()]
            stack.append(frame)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats.calls += 1
                stats.self_s += duration - frame[1]
                if ok:
                    evaluations = getattr(result, "evaluations", None)
                    if isinstance(evaluations, int):
                        stats.evaluations += evaluations
                        stats.results += 1
                else:
                    stats.failed += 1
                if axes_at is not None:
                    n = args[axes_at] if len(args) > axes_at else kwargs.get("n")
                    stats.axes += int(np.size(n)) // 3
                if grid_at is not None:
                    grid = args[grid_at] if len(args) > grid_at else kwargs.get("grid_size", grid_default)
                    stats.grid += int(grid)
                if frame[2] is not None:
                    parent = stack[-1][2] if stack else None
                    tracer.spans.append((frame[2], parent, label, tracer.item, start, end, ok))

        return wrapper

    def _open_span(self):
        if self.item >= RECORDED_ITEMS or len(self.spans) >= MAX_RECORDED_SPANS:
            return None
        self._next_id += 1
        return self._next_id

    def span_records(self) -> list[dict]:
        keys = ("id", "parent", "name", "item", "start", "end", "ok")
        return [dict(zip(keys, span)) for span in self.spans]


def _parameters(fn):
    try:
        return inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return {}
