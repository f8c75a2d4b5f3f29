"""Record the reference outputs and the environment block of this commit.

Usage (from the root of a checkout)::

    python3 perfbench/record.py [workload ...]

For each workload (all by default) one untraced repetition is run exactly
as ``run.py`` runs it, and its check verdicts and series values are written
to ``perfbench/reference/<workload>.json``.  The environment of the machine
and the line count of ``src/`` go to ``perfbench/environment.json``.  Run it
only at a commit whose outputs are meant to become the reference.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from run import HERE, WORKLOADS, _spawn


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    work = os.path.join(HERE, "_work", f"record-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    try:
        for name in names:
            scenario, tmax = WORKLOADS[name]
            deadline = time.monotonic() + 600.0
            rep = _spawn(work, name, scenario, tmax, deadline,
                         out_dir=os.path.join(work, name))
            if "error" in rep:
                print(f"{name}: {rep['error']}", file=sys.stderr)
                return 1
            ref = {"scenario": scenario, "t_max": tmax,
                   "verdicts": rep["verdicts"], "series": rep["series"]}
            with open(os.path.join(HERE, "reference", f"{name}.json"), "w") as fh:
                json.dump(ref, fh, indent=1)
                fh.write("\n")
            failing = [v for v in rep["verdicts"] if not v[2]]
            print(f"{name}: {len(rep['verdicts'])} checks, {len(failing)} failing, "
                  f"{len(rep['series'])} series, run {rep['run_s']:.2f} s")
        probe = _spawn(work, "env", WORKLOADS[names[0]][0], None,
                       time.monotonic() + 120.0, setup_only=True)
        with open(os.path.join(HERE, "environment.json"), "w") as fh:
            json.dump(probe["environment"], fh, indent=1, sort_keys=True)
            fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
