"""Benchmark of the KubeShare reproduction's host cost, run with one command.

    python3 -m bench --workload W --seed S --seconds T --trace 0|1
    python3 -m bench [--workload W]... [--seed S] [--seconds T] [--out FILE]
    python3 -m bench compare A.json B.json

The first form runs one workload in this interpreter and ends with a
one-line JSON result; the second runs each workload in fresh interpreters
and prints every metric with n, median and quartiles; the third compares
two saved results. ``bench/README.md`` defines the metrics.
"""

from pathlib import Path

#: the checkout holding ``bench/``; the program is imported from ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
