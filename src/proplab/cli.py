"""Command-line front end.

Subcommands::

    proplab list
    proplab run <config-path-or-name> [--out-dir D] [--grid-n N] [--tmax T]
    proplab report <run-id>

Exit codes: 0 all suites pass, 1 any suite fails, 2 configuration error.
``PROPLAB_OUT_DIR`` sets the default output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .scenarios import (ConfigError, SCENARIO_LIBRARY, list_scenarios, load_scenario,
                        parse_config, render_report, run_scenario)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


def _default_out_dir() -> str:
    return os.environ.get("PROPLAB_OUT_DIR", os.path.join(os.getcwd(), "runs"))


def _load(target: str):
    if os.path.isfile(target):
        with open(target) as fh:
            return parse_config(fh.read())
    if target in SCENARIO_LIBRARY:
        return load_scenario(target)
    raise ConfigError(f"{target!r} is neither a config file nor a shipped scenario")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="proplab",
                                     description="propagation-estimate laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="enumerate shipped scenarios")

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("config", help="config file path or shipped scenario name")
    run_p.add_argument("--out-dir", default=None)
    run_p.add_argument("--grid-n", type=int, default=None)
    run_p.add_argument("--tmax", type=float, default=None)

    rep_p = sub.add_parser("report", help="render the summary of a finished run")
    rep_p.add_argument("run_id", help="run directory name (under the out dir) or path")
    rep_p.add_argument("--out-dir", default=None)

    args = parser.parse_args(argv)

    if args.command == "list":
        for name in list_scenarios():
            config = SCENARIO_LIBRARY[name]
            print(f"{name}: grid {config.grid_kind} n={config.grid_n} "
                  f"extent={config.grid_extent:g}; suites {', '.join(config.suites)}")
        return EXIT_PASS

    if args.command == "run":
        try:
            config = _load(args.config)
            if args.grid_n is not None:
                config = replace(config, grid_n=args.grid_n)
            if args.tmax is not None:
                config = replace(config, t_max=args.tmax)
            out_dir = args.out_dir or _default_out_dir()
            artifact = run_scenario(config, out_dir)
        except ConfigError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"run written to {artifact.run_dir}")
        for suite, report in artifact.reports.items():
            print(report.render())
        print(f"overall: {'PASS' if artifact.passed else 'FAIL'}")
        return EXIT_PASS if artifact.passed else EXIT_FAIL

    if args.command == "report":
        out_dir = args.out_dir or _default_out_dir()
        run_dir = args.run_id if os.path.isdir(args.run_id) else os.path.join(out_dir, args.run_id)
        try:
            print(render_report(run_dir))
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        return EXIT_PASS

    return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
