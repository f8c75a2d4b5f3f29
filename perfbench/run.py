"""Scenario benchmark for proplab.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload free_line --seed 1 --seconds 10 --trace 0

Each workload is one shipped scenario, run in a fresh single process
(``child.py``) through the same ``run_scenario`` call that ``proplab run``
makes, with the BLAS thread count pinned before numpy is imported.  The
shipped configurations are deterministic; the seed only orders the set-up
probes against the first repetition.  Repetitions start until ``--seconds``
of repetition time have been spent, and each timing is the median over the
repetitions of the run.

Every repetition is checked against the reference outputs recorded in
``perfbench/reference/``: the check verdicts must be equal and every series
value must agree within ``SERIES_RTOL``.  A repetition that raises, or whose
outputs differ, counts all of its checks as failed.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` additionally makes one repetition under the outside-in tracer
(``tracer.py``) and reports the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import aggregate  # noqa: E402

#: workload -> (shipped scenario, t_max override as ``proplab run --tmax``)
WORKLOADS = {
    "free_line": ("free", None),
    "adaptor_radial": ("positive_potential_radial", None),
    "timedep_radial": ("self_similar_W", None),
    "nls_line": ("cubic_nls_small", 4.0),
}

BLAS_THREADS = "1"
SETUP_PROBES = 5
#: relative tolerance on series values, against the larger of the reference
#: value and SERIES_FLOOR times the largest magnitude in that series
SERIES_RTOL = 1e-10
SERIES_FLOOR = 1e-6
#: wall-clock budget of one benchmark run; child processes are killed past it
RUN_BUDGET_S = 170.0


def _child_env() -> dict:
    return dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS)


def _spawn(work: str, tag: str, scenario: str, tmax, deadline: float,
           setup_only=False, out_dir=None, trace=False) -> dict:
    result_path = os.path.join(work, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
           "--scenario", scenario, "--result", result_path]
    if tmax is not None:
        cmd += ["--tmax", repr(tmax)]
    if setup_only:
        cmd.append("--setup-only")
    if out_dir is not None:
        cmd += ["--out-dir", out_dir]
    if trace:
        cmd.append("--trace")
    timeout = max(deadline - time.monotonic(), 1.0)
    spawned_at = time.monotonic()
    cmd += ["--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"{tag}: killed after {timeout:.0f} s"}
    if proc.returncode != 0 or not os.path.isfile(result_path):
        return {"error": f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                "exit": proc.returncode}
    with open(result_path) as fh:
        return json.load(fh)


def _series_problems(got: dict, ref: dict) -> list[str]:
    problems = []
    if sorted(got) != sorted(ref):
        return [f"series files {sorted(got)} != reference {sorted(ref)}"]
    for name, (ref_t, ref_v) in ref.items():
        got_t, got_v = got[name]
        if len(got_t) != len(ref_t):
            problems.append(f"{name}: {len(got_t)} samples, reference {len(ref_t)}")
            continue
        for label, a, b in (("time", got_t, ref_t), ("value", got_v, ref_v)):
            floor = SERIES_FLOOR * max((abs(x) for x in b), default=0.0)
            for i, (x, y) in enumerate(zip(a, b)):
                if abs(x - y) > SERIES_RTOL * max(abs(y), floor):
                    problems.append(f"{name}[{i}] {label} {x!r} != reference {y!r}")
                    break
    return problems


def check_outputs(rep: dict, ref: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one repetition against the reference."""
    ref_verdicts = ref["verdicts"]
    if "error" in rep:
        return len(ref_verdicts), len(ref_verdicts), [rep["error"]]
    verdicts = rep["verdicts"]
    attempted = max(len(verdicts), len(ref_verdicts))
    problems = []
    if [v[:2] for v in verdicts] != [v[:2] for v in ref_verdicts]:
        problems.append(f"checks {[v[:2] for v in verdicts]} != reference")
    problems += _series_problems(rep["series"], ref["series"])
    if problems:
        return attempted, attempted, problems
    failed = 0
    for (suite, name, ok), (_, _, ref_ok) in zip(verdicts, ref_verdicts):
        if not ok or ok != ref_ok:
            failed += 1
            problems.append(f"{suite}: {name}: passed={ok}, reference {ref_ok}")
    return attempted, failed, problems


def per_layer_value(metric: str, agg: dict, overhead_s: float) -> float:
    """Resolve a per-layer metric name against the aggregated trace."""
    spans = agg["spans"]
    if metric == "trace.coverage":
        return agg["coverage"]
    if metric == "trace.overhead_s":
        return overhead_s
    if metric == "evolution.flows":
        return float(spans.get("evolution.stepper", {}).get("calls", 0))
    if metric.endswith(".bytes_computed"):
        return float(agg["counters"].get(metric, 0.0))
    head, _, suffix = metric.rpartition(".")
    if suffix == "self_s" and "." not in head:
        return agg["layers"].get(head, 0.0)
    entry = spans.get(head, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    if suffix == "calls":
        return float(entry["calls"])
    if suffix == "self_s":
        return entry["self_s"]
    if suffix == "s":
        return entry["incl_s"]
    if suffix == "us":
        return 1e6 * entry["self_s"] / entry["calls"] if entry["calls"] else 0.0
    raise ValueError(f"no rule for per-layer metric {metric!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not os.path.isfile(os.path.join(ROOT, "src", "proplab", "__init__.py")):
        print(f"no proplab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "reference", f"{args.workload}.json")) as fh:
        ref = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for metric in (m["name"] for m in spec["per_layer"]):
        per_layer_value(metric, {"spans": {}, "layers": {}, "counters": {},
                                 "coverage": 0.0}, 0.0)

    scenario, tmax = WORKLOADS[args.workload]
    work = os.path.join(HERE, "_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return _run(args, scenario, tmax, ref, spec, units, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, scenario, tmax, ref, spec, units, work, deadline) -> int:
    setups, reps, env = [], [], None
    attempted = failed = 0

    def repetition(trace=False) -> dict:
        nonlocal attempted, failed
        tag = f"rep{len(reps)}" + ("-traced" if trace else "")
        out_dir = os.path.join(work, tag)
        rep = _spawn(work, tag, scenario, tmax, deadline, out_dir=out_dir, trace=trace)
        if rep.get("exit") == 3:  # proplab did not come from this checkout
            raise SystemExit(rep["error"])
        shutil.rmtree(out_dir, ignore_errors=True)
        a, f, problems = check_outputs(rep, ref)
        attempted += a
        failed += f
        for p in problems:
            print(f"{tag}: {p}")
        if "setup_s" in rep:
            setups.append(rep["setup_s"])
        if "run_s" in rep:
            print(f"{tag}: run {rep['run_s']:.3f} s, cpu {rep['cpu_s']:.3f} s, "
                  f"peak rss {rep['peak_rss_mb']:.1f} MB, failed checks {f}/{a}")
        return rep

    slots = ["probe"] * SETUP_PROBES + ["rep"]
    random.Random(args.seed).shuffle(slots)
    measured = 0.0
    for slot in slots:
        if slot == "probe":
            probe = _spawn(work, f"probe{len(setups)}", scenario, tmax, deadline,
                           setup_only=True)
            if "error" in probe:
                raise SystemExit(probe["error"])
            setups.append(probe["setup_s"])
            env = env or probe["environment"]
        else:
            t0 = time.monotonic()
            reps.append(repetition())
            measured += time.monotonic() - t0
    while measured < args.seconds and time.monotonic() < deadline - 60.0:
        t0 = time.monotonic()
        reps.append(repetition())
        measured += time.monotonic() - t0

    print("environment: " + json.dumps(env, sort_keys=True))
    good = [r for r in reps if "run_s" in r]

    def median_of(key):  # 0 only when every repetition failed (correct is then false)
        values = [r[key] for r in reps if key in r]
        return statistics.median(values) if values else 0.0

    run_s = median_of("run_s")
    metrics = {"run_s": run_s, "setup_s": statistics.median(setups),
               "cpu_s": median_of("cpu_s"), "peak_rss_mb": median_of("peak_rss_mb")}
    names = [m["name"] for m in spec["end_to_end"]]

    if args.trace:
        traced = repetition(trace=True)
        if "run_s" in traced:
            agg = aggregate(traced["spans"], traced["counters"], traced["run_s"])
            overhead = traced["run_s"] - run_s
        else:
            agg, overhead = aggregate([], {}, 0.0), 0.0
        metrics = {m["name"]: per_layer_value(m["name"], agg, overhead)
                   for m in spec["per_layer"]}
        names = [m["name"] for m in spec["per_layer"]]

    print(f"workload {args.workload} (scenario {scenario}"
          + (f", t_max={tmax:g}" if tmax is not None else "")
          + f"): {len(good)} repetitions, {len(setups)} set-ups, BLAS threads {BLAS_THREADS}")
    print(f"failed_checks = {failed}/{attempted}")
    for name in names:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
