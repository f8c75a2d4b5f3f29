"""Outside-in tracer for proplab: spans around the calls into each module.

Nothing under ``src/`` is edited.  ``install`` wraps, in a running process,

* every public function defined in one of the layer modules, found by
  enumerating the module, and rebinds the wrapper under every name that
  holds the function in any ``proplab`` module namespace (``scenarios`` and
  ``suites`` import with ``from .x import name``, so patching only the
  defining module would miss their calls);
* three class-level hooks: ``SpectralData.evolve``,
  ``HermitianOperator.__post_init__`` and the split-step stepper's
  ``__init__`` and ``step`` (the stepper is driven directly by some suites,
  so no public function bounds those steps);
* the entries of the scenario runner's suite table, one span per suite,
  and the series writer.

Spans are kept in memory as ``[name, parent, start, end]`` lists and written
out when the run ends; ``aggregate`` derives calls, inclusive and self time
from the nesting.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("grids", "operators", "spectral", "adaptors", "evolution",
          "observables", "suites", "scenarios")

#: span-name prefixes that are not module names, mapped to the owning layer
PREFIX_LAYER = {"suite": "scenarios"}


class TraceSetupError(RuntimeError):
    """A hook target the per-layer metrics rely on is missing."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()

        return traced


def _rebind(namespaces, original, replacement):
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, key, replacement)


def _class_hook(tracer: Tracer, cls, attr: str, name: str, before=None):
    original = vars(cls).get(attr)
    if original is None:
        raise TraceSetupError(f"{cls.__qualname__}.{attr} not found")
    if before is None:
        setattr(cls, attr, tracer.wrap(name, original))
        return

    def hooked(self, *args, **kwargs):
        before(self)
        return original(self, *args, **kwargs)

    setattr(cls, attr, tracer.wrap(name, functools.wraps(original)(hooked)))


def _stepper_class(evolution):
    found = [obj for obj in vars(evolution).values()
             if isinstance(obj, type) and obj.__module__ == evolution.__name__
             and "step" in vars(obj)]
    if len(found) != 1:
        raise TraceSetupError(f"expected one stepper class in evolution, found {found}")
    return found[0]


def install(tracer: Tracer):
    """Hook proplab in this process."""
    mods = {layer: importlib.import_module(f"proplab.{layer}") for layer in LAYERS}
    namespaces = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "proplab" or n.startswith("proplab."))]
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            _rebind(namespaces, obj, tracer.wrap(f"{layer}.{attr}", obj))

    def count_bytes(op):
        rows, cols = op.matrix.shape
        tracer.counters["operators.hermitian_init.bytes_computed"] += 16.0 * rows * cols

    _class_hook(tracer, mods["operators"].HermitianOperator, "__post_init__",
                "operators.hermitian_init", before=count_bytes)
    _class_hook(tracer, mods["spectral"].SpectralData, "evolve", "spectral.evolve")
    stepper = _stepper_class(mods["evolution"])
    _class_hook(tracer, stepper, "__init__", "evolution.stepper")
    _class_hook(tracer, stepper, "step", "evolution.split_step")

    scenarios = mods["scenarios"]
    runners = getattr(scenarios, "_SUITE_RUNNERS", None)
    writer = getattr(scenarios, "_write_series", None)
    if not isinstance(runners, dict) or writer is None:
        raise TraceSetupError("scenarios has no _SUITE_RUNNERS table or _write_series")
    for suite, fn in list(runners.items()):
        runners[suite] = tracer.wrap(f"suite.{suite}", fn)
    _rebind([scenarios], writer, tracer.wrap("scenarios.write_series", writer))


def layer_of(span_name: str) -> str:
    head = span_name.split(".", 1)[0]
    return PREFIX_LAYER.get(head, head)


def aggregate(spans, counters, run_s: float) -> dict:
    """Per-span and per-layer figures from the span list of one run.

    A span's self time is its duration minus the durations of its direct
    children.  Returns ``{"spans": {name: {calls, incl_s, self_s}},
    "layers": {layer: self_s}, "counters": {...}, "coverage": float}``.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_span: dict[str, dict] = {}
    layers: dict[str, float] = defaultdict(float)
    for (name, parent, start, end), inner in zip(spans, child_time):
        entry = per_span.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        self_s = (end - start) - inner
        entry["calls"] += 1
        entry["incl_s"] += end - start
        entry["self_s"] += self_s
        layers[layer_of(name)] += self_s
    total_self = sum(layers.values())
    return {"spans": per_span, "layers": dict(layers), "counters": dict(counters),
            "coverage": total_self / run_s if run_s > 0 else 0.0}
