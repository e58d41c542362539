"""Paired A/B runs of the benchmark on two checkouts.

Usage, from anywhere::

    python tools/ab.py PARENT CHANGE --workload maps --pairs 10 --seconds 5

Each pair runs ``perfbench/run.py --workload W --seconds S`` of PARENT and
of CHANGE, one after the other, with the first tree alternating from pair
to pair, so a drift in machine speed falls on both sides alike.  Each run's
last stdout line is the benchmark's JSON result.  For every end-to-end
metric of CHANGE's ``BENCHMARK.json`` the summary gives the parent's median
and quartiles, the change's median, the relative change of the medians and
the number of pairs the change won (a tie wins nothing); below it, one
line per run gives that run's value of every such metric.  A metric whose
median got worse by more than its ``bound`` (a fraction of the parent's
median) is flagged ``WORSE``, as is a change run that failed a check.  The
exit code is 1 if anything is flagged and 0 otherwise.  Standard library
only; the children run under the same interpreter.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_benchmark(tree: Path, workload: str, seconds: float) -> dict:
    """The JSON result of one benchmark run of ``tree``."""
    command = [sys.executable, str(tree / "perfbench" / "run.py"),
               "--workload", workload, "--seconds", repr(seconds)]
    result = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{tree}: the benchmark printed no JSON result "
                         f"(exit code {result.returncode})\n{result.stderr}") from None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def summarise(metrics: list[dict], parent: list[dict], change: list[dict]) -> tuple[list[str], bool]:
    """The summary lines of paired results, and whether any metric or run is
    flagged.  ``metrics`` are the ``end_to_end`` entries of BENCHMARK.json;
    ``parent[i]`` and ``change[i]`` are the JSON results of pair ``i``."""
    pairs = len(parent)
    lines = [f"{'metric':14s} {'unit':5s} {'parent':>12s} {'[q1, q3]':26s} "
             f"{'change':>12s} {'delta':>8s}  wins"]
    flagged = False
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        old = [run["metrics"][name]["value"] for run in parent]
        new = [run["metrics"][name]["value"] for run in change]
        low, old_median, high = quartiles(old)
        new_median = statistics.median(new)
        wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        delta = (new_median - old_median) / old_median if old_median else 0.0
        worse = (delta if lower else -delta) > metric["bound"]
        flagged |= worse
        spread = f"[{low:.6g}, {high:.6g}]"
        lines.append(
            f"{name:14s} {metric['unit']:5s} {old_median:12.6g} {spread:26s} "
            f"{new_median:12.6g} {delta:+8.2%}  {wins}/{pairs}"
            + (f"  WORSE (bound {metric['bound']:.0%})" if worse else "")
        )
    for side, runs in (("parent", parent), ("change", change)):
        failed = sum(run["failed"] for run in runs)
        incorrect = sum(not run["correct"] for run in runs)
        lines.append(f"{side}: {failed} of {sum(run['attempted'] for run in runs)} runs failed "
                     f"a check, {incorrect} of {pairs} results not correct")
        flagged |= side == "change" and incorrect > 0
    return lines, flagged


def run_lines(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    """One line per run of each pair, with the run's value of each of ``metrics``."""
    return [
        f"pair {pair:2d} {side}: "
        + " ".join(f"{metric['name']}={run['metrics'][metric['name']]['value']:.6g}" for metric in metrics)
        for pair, runs in enumerate(zip(parent, change), 1)
        for side, run in zip(("parent", "change"), runs)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="paired A/B runs of perfbench/run.py")
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = [], []
    for pair in range(args.pairs):
        order = [(args.parent, parent), (args.change, change)]
        for tree, results in order if pair % 2 == 0 else order[::-1]:
            results.append(run_benchmark(tree.resolve(), args.workload, args.seconds))
        print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    print(f"workload {args.workload}: {args.pairs} alternating pairs at {args.seconds:g} s")
    lines, flagged = summarise(spec["end_to_end"], parent, change)
    print("\n".join(lines + run_lines(spec["end_to_end"], parent, change)))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
