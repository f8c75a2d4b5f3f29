"""Self-test of the benchmark's tracer and gates.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py            # quick checks only (seconds)
    python3 perfbench/selftest.py --full     # plus two traced runs per workload

Quick checks, in this process:

* self time from span nesting on a hand-made span list;
* after ``install``, no ``proplab`` module namespace still holds an
  unwrapped public layer function (so calls made from ``scenarios`` and
  ``suites`` through ``from .x import name`` bindings are traced);
* the reference gate flags a moved series value and a flipped verdict.

``--full`` runs each workload traced twice in fresh processes and requires
identical exact counts (every ``*.calls``, ``evolution.split_step.calls``,
``evolution.flows`` and ``operators.hermitian_init.bytes_computed``),
``trace.coverage >= 0.95``, and ``adaptors.build_adaptor.calls >= 1`` on
``adaptor_radial`` (a call made from inside ``scenarios.py``).  It prints the
counts, which settle facts such as ``spectral.diagonalize.calls = 0`` on
``nls_line``.
"""

from __future__ import annotations

import copy
import importlib
import inspect
import json
import os
import shutil
import sys
import time

from run import HERE, ROOT, WORKLOADS, _spawn, check_outputs, per_layer_value
from tracer import LAYERS, Tracer, aggregate, install

EXACT_SUFFIXES = (".calls", ".bytes_computed")
EXACT_NAMES = ("evolution.flows",)


def _check(ok: bool, what: str, failures: list):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def quick(failures: list):
    spans = [["scenarios.run", -1, 0.0, 10.0], ["suite.a", 0, 1.0, 9.0],
             ["grids.norm", 1, 2.0, 3.0], ["grids.norm", 1, 4.0, 6.0]]
    agg = aggregate(spans, {}, 10.0)
    _check(agg["spans"]["suite.a"]["self_s"] == 5.0
           and agg["spans"]["grids.norm"] == {"calls": 2, "incl_s": 3.0, "self_s": 3.0}
           and agg["layers"] == {"scenarios": 7.0, "grids": 3.0}
           and agg["coverage"] == 1.0, "self time from span nesting", failures)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    originals = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"proplab.{layer}")
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                originals[id(obj)] = f"{layer}.{name}"
    install(Tracer())
    stale = [f"{modname}.{key} -> {originals[id(val)]}"
             for modname, mod in sys.modules.items()
             if mod is not None and (modname == "proplab" or modname.startswith("proplab."))
             for key, val in vars(mod).items() if id(val) in originals]
    _check(not stale, f"every binding of {len(originals)} public functions rebound"
           + (f" (stale: {stale[:5]})" if stale else ""), failures)
    from proplab import adaptors, scenarios
    _check(scenarios.build_adaptor is adaptors.build_adaptor
           and hasattr(scenarios.build_adaptor, "__wrapped__"),
           "scenarios.build_adaptor is the traced binding", failures)

    with open(os.path.join(HERE, "reference", "adaptor_radial.json")) as fh:
        ref = json.load(fh)
    rep = {"verdicts": copy.deepcopy(ref["verdicts"]), "series": copy.deepcopy(ref["series"])}
    _check(check_outputs(rep, ref)[1] == 0, "reference gate passes the reference", failures)
    moved = copy.deepcopy(rep)
    name = sorted(moved["series"])[0]
    moved["series"][name][1][3] *= 1.0 + 1e-8
    _check(check_outputs(moved, ref)[1] == len(ref["verdicts"]),
           "reference gate fails a series value moved by 1e-8", failures)
    flipped = copy.deepcopy(rep)
    flipped["verdicts"][0][2] = False
    _check(check_outputs(flipped, ref)[1] == 1, "reference gate fails a flipped verdict", failures)


def _exact(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.endswith(EXACT_SUFFIXES) or k in EXACT_NAMES}


def full(failures: list):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    work = os.path.join(HERE, "_work", f"selftest-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        for workload, (scenario, tmax) in WORKLOADS.items():
            runs = []
            for k in range(2):
                rep = _spawn(work, f"{workload}{k}", scenario, tmax, time.monotonic() + 300.0,
                             out_dir=os.path.join(work, f"{workload}{k}"), trace=True)
                if "error" in rep:
                    _check(False, f"{workload}: traced run {k}: {rep['error']}", failures)
                    return
                agg = aggregate(rep["spans"], rep["counters"], rep["run_s"])
                runs.append({n: per_layer_value(n, agg, 0.0) for n in names})
            counts = _exact(runs[0])
            _check(counts == _exact(runs[1]), f"{workload}: exact counts repeat", failures)
            coverage = [r["trace.coverage"] for r in runs]
            _check(min(coverage) >= 0.95, f"{workload}: trace.coverage >= 0.95 "
                   f"({coverage[0]:.4f}, {coverage[1]:.4f})", failures)
            if workload == "adaptor_radial":
                _check(counts["adaptors.build_adaptor.calls"] >= 1,
                       "adaptor_radial: adaptors.build_adaptor.calls >= 1", failures)
            print(f"  {workload}: " + json.dumps({k: v for k, v in counts.items() if v}))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str]) -> int:
    failures: list[str] = []
    quick(failures)
    if "--full" in argv:
        full(failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
