"""In-memory span tracer for the layers of trotteropt.

``Tracer.install`` replaces every public function of the measured modules
(the names in each module's ``__all__``), and the public methods of their
public classes, with a wrapper that records a span: name, start, end and the
index of the enclosing span. Several modules import functions by name
(``experiments.evaluate``, ``sampler.evaluate``, ``trotter.matrix_power``,
``fitness.spectral_norm``, ...), and Python looks such a name up in the
importing module's globals, so every binding of an original function in every
``trotteropt`` module is replaced, not only the defining one.

Work that ``experiments.pmap`` sends to worker processes is traced in the
worker and shipped back with the task's result, so the parent sees one span
tree with the worker spans under the ``experiments.pmap`` span.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import importlib
import inspect
import itertools
import os
import sys
import time
import weakref
from collections import defaultdict

LAYERS = ("cli", "experiments", "cmaes", "fitness", "trotter", "linalg", "model", "records")
PACKAGE = "trotteropt"
PMAP_SPAN = "experiments.pmap"
TASK_SPAN = "experiments.pmap.task"

# Span fields, stored as lists for speed: [name, start, end, parent, key].
NAME, START, END, PARENT, KEY = range(5)

_active: "Tracer | None" = None


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[int, str] = {}
        self._serials: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._next_serial = itertools.count()

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, key=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            index = len(spans)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                    key(*args, **kwargs) if key else None]
            spans.append(span)
            tracer.stack.append(index)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer.stack.pop()

        return traced

    def _s2_key(self, evaluator, phase, *_args, **_kwargs):
        # Distinct phases are counted per evaluator. A serial number rather
        # than id() keeps apart two evaluators that lived at the same address,
        # and the pid keeps apart evaluators of different pool workers.
        serial = self._serials.get(evaluator)
        if serial is None:
            serial = self._serials[evaluator] = next(self._next_serial)
        return (os.getpid(), serial, float(phase))

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans, self.stack = self.spans, [], []
        return spans

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        global _active
        if _active is not None:
            raise RuntimeError("a tracer is already installed")
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr in module.__all__:
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    target = self._pmap(obj) if (layer, attr) == ("experiments", "pmap") else obj
                    replaced[id(obj)] = self._wrap(f"{layer}.{attr}", target)
                    self._originals[id(obj)] = f"{layer}.{attr}"
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._patch_class(layer, obj)
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    self._set(module, attr, wrapper)
        _active = self

    def _patch_class(self, layer: str, cls) -> None:
        if issubclass(cls, (enum.Enum, tuple)):
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if attr == "__init__" and dataclasses.is_dataclass(cls):
                continue
            name = f"{layer}.{cls.__name__}.{attr.strip('_')}"
            key = self._s2_key if (cls.__name__, attr) == ("S2Evaluator", "s2") else None
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, raw.__func__, key)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(name, raw, key))

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        global _active
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._originals.clear()
        _active = None

    def unpatched_lookups(self) -> list[str]:
        """Module globals that still bind an original (unwrapped) function."""
        return sorted(
            f"{module.__name__}.{attr}"
            for module in _package_modules()
            for attr, value in vars(module).items()
            if id(value) in self._originals
        )

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- process pool ----------------------------------------------------

    def _pmap(self, pmap):
        tracer = self

        @functools.wraps(pmap)
        def traced_pmap(fn, items, jobs: int = 1):
            parent = tracer.stack[-1]
            tracer.spans[parent][KEY] = int(jobs)
            results = []
            for result, spans in pmap(functools.partial(_run_task, fn), items, jobs):
                offset = len(tracer.spans)
                for span in spans:
                    span[PARENT] = parent if span[PARENT] < 0 else span[PARENT] + offset
                tracer.spans.extend(spans)
                results.append(result)
            return results

        return traced_pmap


def _run_task(fn, item):
    """Run one pmap item with a fresh span list; returns (result, spans).

    Module-level so that it pickles by reference into pool workers, which
    inherit the installed tracer when they are forked.
    """
    tracer = _active
    saved = tracer.spans, tracer.stack
    tracer.spans, tracer.stack = [], []
    try:
        result = tracer._wrap(TASK_SPAN, fn)(item)
        return result, tracer.spans
    finally:
        tracer.spans, tracer.stack = saved


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


# -- aggregation ---------------------------------------------------------


@dataclasses.dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = dataclasses.field(default_factory=list)
    distinct: int = 0  # distinct call keys, summed over commands
    capacity_s: float = 0.0  # pmap only: jobs x wall time


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one span overlap only when they ran in parallel workers; the
    union of their intervals is what is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def aggregate(spans: list[list], into: dict[str, LayerStat] | None = None) -> dict[str, LayerStat]:
    """Fold one command's spans into per-name statistics."""
    stats = into if into is not None else defaultdict(LayerStat)
    keys: dict[str, set] = defaultdict(set)
    for span, own in zip(spans, self_times(spans)):
        stat = stats[span[NAME]]
        duration = span[END] - span[START]
        stat.calls += 1
        stat.total_s += duration
        stat.self_s += own
        stat.durations.append(duration)
        if span[NAME] == PMAP_SPAN:
            stat.capacity_s += span[KEY] * duration
        elif span[KEY] is not None:
            keys[span[NAME]].add(span[KEY])
    for name, distinct in keys.items():
        stats[name].distinct += len(distinct)
    return stats
