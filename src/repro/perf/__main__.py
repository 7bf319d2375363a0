"""CLI for the parallel seed sweep: ``python -m repro.perf sweep``.

Example::

    # parallel multi-seed sweep -> one deterministic merged BENCH file
    python -m repro.perf sweep --scenario trace_replay --seeds 1-8 --processes 4
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    from .sweep import parse_seed_list, run_sweep, write_sweep_report

    parser = argparse.ArgumentParser(prog="python -m repro.perf")
    sub = parser.add_subparsers(dest="command", required=True)
    p_sweep = sub.add_parser(
        "sweep", help="run one scenario at N seeds across worker processes"
    )
    p_sweep.add_argument(
        "--scenario",
        default="trace_replay",
        help="scenario to sweep (default: trace_replay)",
    )
    p_sweep.add_argument(
        "--seeds",
        default="1-4",
        help='seed list/ranges, e.g. "1,2,5-8" (default: 1-4)',
    )
    p_sweep.add_argument(
        "--processes",
        type=int,
        default=4,
        help="worker processes (default: 4; 1 = in-process)",
    )
    p_sweep.add_argument(
        "--out",
        default="BENCH_sweep.json",
        help="merged report path (default: BENCH_sweep.json)",
    )
    args = parser.parse_args(argv)
    report = run_sweep(
        args.scenario, parse_seed_list(args.seeds), processes=args.processes
    )
    write_sweep_report(report, args.out)
    print(f"[sweep] merged report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
