"""Command line: ``python3 -m bench --help`` (see :mod:`bench`)."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import SRC

#: host seconds each worker measures for; BENCHMARK.json's run_seconds.
RUN_SECONDS = 20


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="python3 -m bench compare", description="Judge result B against result A.")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        from .suite import compare

        return compare(args.a, args.b)

    sys.path.insert(0, str(SRC))
    try:
        from .workloads import WORKLOADS
    except ImportError as exc:
        print(f"bench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(prog="python3 -m bench", description="Run the benchmark.")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS), help="repeatable; default all")
    parser.add_argument("--seed", type=int, help="default: each workload's canonical seed")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS, help="measuring budget per interpreter")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="run one workload here, traced (1) or not (0)")
    parser.add_argument("--out", help="suite mode: write the result JSON here")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    seeds = {name: WORKLOADS[name].seed if args.seed is None else args.seed for name in names}

    if args.trace is None:
        from .suite import run_suite

        return run_suite(names, seeds, args.seconds, args.out)
    if len(names) != 1:
        parser.error("--trace runs exactly one --workload")
    from .run import main as run_one

    return run_one(WORKLOADS[names[0]], seeds[names[0]], args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
