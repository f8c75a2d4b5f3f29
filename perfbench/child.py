"""One workload process of the scenario benchmark.

Started fresh for every repetition by ``run.py``.  It imports proplab from
the checkout's ``src/``, loads a shipped scenario (applying a ``t_max``
override the way ``proplab run --tmax`` does), and either stops there (a
set-up probe) or makes the same ``run_scenario`` call as ``proplab run``,
optionally under the outside-in tracer.  It writes one JSON result file.

The BLAS thread count is fixed by the parent through the environment
before numpy is imported here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _environment(root: str) -> dict:
    import numpy
    import platform
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "src_lines": src_lines,
    }


def _outputs(artifact) -> tuple[list, dict]:
    verdicts = [[suite, check.name, bool(check.passed)]
                for suite, report in artifact.reports.items() for check in report.checks]
    series = {}
    for path in sorted(artifact.series_files):
        times, values = [], []
        with open(path) as fh:
            for line in fh:
                if line.startswith("#") or not line.strip():
                    continue
                t, v = line.split("\t")
                times.append(float(t))
                values.append(float(v))
        series[os.path.basename(path)] = [times, values]
    return verdicts, series


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--scenario", required=True)
    ap.add_argument("--tmax", type=float, default=None)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--result", required=True)
    ap.add_argument("--out-dir", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import dataclasses
    import resource

    import proplab
    from proplab.scenarios import load_scenario

    config = load_scenario(args.scenario)
    if args.tmax is not None:
        config = dataclasses.replace(config, t_max=args.tmax)
    setup_s = time.monotonic() - args.spawned_at

    if not os.path.realpath(proplab.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"proplab imported from {proplab.__file__}, not from {src}", file=sys.stderr)
        return 3

    result = {"setup_s": setup_s}
    if args.setup_only:
        result["environment"] = _environment(args.root)
    else:
        tracer = None
        if args.trace:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer, install
            tracer = Tracer()
            install(tracer)
        import proplab.scenarios as scenarios  # the (possibly traced) binding

        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            artifact = scenarios.run_scenario(config, args.out_dir)
        except Exception as exc:  # a crashing run counts all its checks as failed
            import traceback
            result["error"] = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        else:
            result["run_s"] = time.perf_counter() - start
            usage1 = resource.getrusage(resource.RUSAGE_SELF)
            result["cpu_s"] = ((usage1.ru_utime - usage0.ru_utime)
                               + (usage1.ru_stime - usage0.ru_stime))
            result["verdicts"], result["series"] = _outputs(artifact)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counters"] = dict(tracer.counters)

    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
