"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-indep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. Diagnostics go to the lines before the
last; the last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 1 when
any answer was wrong or any op failed, and 2 when the program cannot be
imported (the source tree is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

WORKLOAD_NAMES = ("batch-indep", "batch-anticorr", "serve-mixed")


def unit_of(name: str) -> str:
    """The unit of a metric, end-to-end or per-layer, from its name."""
    words = re.split(r"[._]", name)
    if words[-3:] == ["mpairs", "per", "s"]:
        return "Mpairs/s"
    if words[-2:] == ["per", "s"] or words[-1] == "qps":
        return "1/s"
    if "ms" in words:
        return "ms"
    units = {"s": "s", "mb": "MB", "pct": "%", "rate": "ratio", "bytes": "bytes"}
    if words[-1] in units:
        return units[words[-1]]
    if words[-2:] == ["over", "measured"]:
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    try:
        import repro  # the program under test
    except ImportError as exc:
        print(f"cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"repro was imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2

    if args.trace:
        import tracing

        out = tracing.run(args.workload, args.seed, args.seconds)
    else:
        import workloads

        out = workloads.run(args.workload, args.seed, args.seconds)
    checker = out["checker"]
    diagnostics = dict(
        out["diagnostics"], error_rate=checker.failed / max(1, checker.attempted)
    )
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    for problem in checker.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": checker.correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    name: {"value": value, "unit": unit_of(name)}
                    for name, value in out["metrics"].items()
                },
            }
        )
    )
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
