"""Command-line entry points: simulate, crlb, report.

Exit codes: 0 on success, 1 for scenario problems (validation, or a path
that cannot be read), an ``--out`` that cannot be written to and missing
report inputs, 2 for numerical failures (diagnostics go to stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from .errors import NumericalError, ScenarioError
from .harness import (
    crlb_series,
    emit_crlb,
    emit_report,
    load_scenario,
    run_monte_carlo,
    summary_tables,
)
from .harness.simulate import METHODS

__all__ = ["main"]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensorreg",
        description="Sensor registration and track fusion simulation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run Monte Carlo bias estimation")
    sim.add_argument("--scenario", required=True, help="scenario JSON path or builtin name")
    sim.add_argument(
        "--method",
        default="fbe",
        choices=METHODS,
        help="ex and exl: two sensors, offsets only, every-frame reporting; ex: Kalman tracker",
    )
    sim.add_argument("--runs", type=int, default=None, help="override scenario mc_runs")
    sim.add_argument("--seed", type=int, default=None, help="override scenario rng_seed")
    sim.add_argument("--out", required=True, help="output directory for CSV metrics")
    sim.add_argument("--workers", type=int, default=1, help="parallel worker processes")

    bound = sub.add_parser("crlb", help="compute bias estimation lower bounds")
    bound.add_argument("--scenario", required=True)
    bound.add_argument("--out", required=True)

    rep = sub.add_parser("report", help="summarize a metrics directory")
    rep.add_argument("--in", dest="in_dir", required=True)
    rep.add_argument(
        "--tables", action="store_true", help="write tables.txt next to the CSVs"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            scenario = load_scenario(args.scenario)
            if args.seed is not None:
                # replace() re-runs the scenario's validation on the new seed.
                scenario = dataclasses.replace(scenario, rng_seed=args.seed)
            metrics = run_monte_carlo(
                scenario, method=args.method, mc_runs=args.runs, workers=args.workers
            )
            write = functools.partial(emit_report, metrics, args.out)
        elif args.command == "crlb":
            scenario = load_scenario(args.scenario)
            series = crlb_series(scenario)

            def write():
                return [emit_crlb(series, scenario, args.out)]

        else:
            try:
                text = summary_tables(
                    args.in_dir,
                    Path(args.in_dir) / "tables.txt" if args.tables else None,
                )
            except FileNotFoundError as exc:
                print(f"report error: {exc}", file=sys.stderr)
                return 1
            print(text)
            return 0
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    try:
        written = write()
    except OSError as exc:
        print(f"output error: cannot write to {args.out}: {exc.strerror}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
