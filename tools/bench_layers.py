"""Per-layer timings of mirrorfield, written to one JSON file.

Usage, from the repo root::

    python tools/bench_layers.py --out BENCH_<label>.json [--tiny]

It imports the package from this checkout's ``src/`` and, in this one
process, measures each layer on fixed inputs ``REPEATS`` (5) times:

- ``validate_interface``, in µs per coating cell, on one array-valued
  coating and per scalar call;
- ``relative_decay_rate``, in ns per sample on 1e6 samples and in µs per
  scalar call;
- ``SweepConfig`` construction, and the table of each subcommand, in s;
- ``format_csv`` of each table, in ns per value, and the SVG writer of each
  table, in ns per plotted value;
- both oracles at ``u`` in {1, 1e2, 1e3, 1e4}, in ms and in tracemalloc
  peak MB, with one worker and with the default worker count.

It then runs ``mirrorfield <subcommand>`` end to end, each in a child
process writing its CSV to a temporary file, on the fixed configurations
of ``SIZES[...]["children"]``: the wall time of each child, in s, as seen
from here (interpreter start and imports included), and the child's own
peak resident set, in MiB.  The child reads that peak as ``VmHWM`` from its
own ``/proc/self/status`` after the command returns; ``exec`` resets it, so
unlike ``ru_maxrss`` it does not inherit this process's high-water mark.
The child peaks therefore need Linux.

Each figure is given as the median and quartiles of its repeats, with the
repeats themselves; the file also records the Python and numpy versions
and the usable CPU count.  One untimed call warms each in-process figure
(the oracles cache their Gauss-Legendre rules); then each of ``REPEATS``
rounds reads every figure once, and after them the children run once per
round likewise.  The machine's drift so falls on all figures alike:
compare ratios of figures within one file, not figures across files.  A
figure under a millisecond reads a cold-cache time.
``--tiny`` shrinks every input and runs one small ``eta-map`` child, for a
smoke run in under two seconds.  Nothing here is a gate.  Standard
library and numpy only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import mirrorfield as mf  # noqa: E402  (this checkout's package)
from mirrorfield import cli, oracle, sweep  # noqa: E402

#: Timed calls per figure.
REPEATS = 5

#: Input sizes of a full run and of a ``--tiny`` run.
SIZES = {
    "full": dict(cells=10**5, samples=10**6, scalar_calls=2000, grid=401, curve=20001, cases=64,
                 oracle_u=(1.0, 1e2, 1e3, 1e4),
                 children={
                     "eta-map.grid=401": ("eta-map", "--grid-count", "401"),
                     "xi-map.grid=401": ("xi-map", "--grid-count", "401", "--phi3-values", "0,0.5pi,pi"),
                     "decay-curve.fig4": ("decay-curve", "--preset", "fig4", "--u-count", "20001"),
                     "oracle-check.seed=42": ("oracle-check", "--seed", "42"),
                     # The largest map under MAX_TABLE_VALUES.
                     "eta-map.grid=1118": ("eta-map", "--grid-count", "1118"),
                 }),
    "tiny": dict(cells=100, samples=1000, scalar_calls=20, grid=11, curve=101, cases=2,
                 oracle_u=(1.0, 1e2),
                 children={"eta-map.grid=11": ("eta-map", "--grid-count", "11")}),
}

#: A child's program: run the command line after the source directory,
#: then write the process's own ``VmHWM`` line to stderr, last.
CHILD = """import sys
sys.path.insert(0, sys.argv.pop(1))
from mirrorfield.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as status:
    sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


def summary(runs: list[float], unit: str) -> dict:
    """Median and quartiles of ``runs``, with the runs."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "runs": runs}


def wall(call) -> float:
    """Wall time of one call, in s."""
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def peak(call) -> float:
    """tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def child(argv: tuple[str, ...], out: Path) -> tuple[float, float]:
    """Wall time in s and own peak in MiB of one child running
    ``mirrorfield *argv --out out``."""
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "src"), *argv, "--out", str(out)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    elapsed = time.perf_counter() - start
    if run.returncode != 0:
        raise RuntimeError(f"mirrorfield {' '.join(argv)} exited {run.returncode}: {run.stderr}")
    return elapsed, int(run.stderr.splitlines()[-1].split()[1]) / 1024  # "VmHWM: <n> kB"


def with_workers(workers: int, call):
    """``call``, run with the oracles' worker count set to ``workers``."""
    def run():
        saved, oracle._worker_count = oracle._worker_count, lambda: workers
        try:
            call()
        finally:
            oracle._worker_count = saved
    return run


def figures(size: dict) -> dict:
    """Every in-process figure: name -> (measure, call, scale, unit), where
    ``measure`` is :func:`wall` or :func:`peak` of ``call`` and the figure
    is that reading times ``scale``."""
    table = {}
    r = np.linspace(0.0, 0.8, size["cells"])  # lossy coating cells, as the maps build them
    t = np.sqrt(1.0 - r * r - 0.2)
    cells = (r, t, None, r[::-1], t[::-1], None)
    table["interface.validate_us_per_cell.array"] = (
        wall, lambda: mf.validate_interface(*cells), 1e6 / len(r), "us")
    calls = size["scalar_calls"]

    def scalar(call, *args):
        def run():
            for _ in range(calls):
                call(*args)
        return run

    amplitudes = (0.6, 0.2, None, 0.3, 0.1, None, 0.0, 3.0)
    table["interface.validate_us_per_cell.scalar"] = (
        wall, scalar(mf.validate_interface, *amplitudes), 1e6 / calls, "us")
    coating = mf.validate_interface(*amplitudes)
    u = np.linspace(0.0, 50.0, size["samples"])
    table["rates.ns_per_sample"] = (
        wall, lambda: mf.relative_decay_rate(coating, "a", 0.3, u), 1e9 / size["samples"], "ns")
    table["rates.us_per_scalar_call"] = (
        wall, scalar(mf.relative_decay_rate, coating, "a", 0.3, 1.7), 1e6 / calls, "us")

    configs = {
        "eta-map": dict(grid_count=size["grid"]),
        "xi-map": dict(grid_count=size["grid"], phi3_values=(0.0, 0.5 * np.pi, np.pi)),
        "decay-curve": dict(preset="fig4", u_count=size["curve"]),
        "oracle-check": dict(seed=42, cases=size["cases"]),
    }
    table["sweep.config_us"] = (
        wall, lambda: [sweep.SweepConfig(name, **settings) for name, settings in configs.items()],
        1e6 / len(configs), "us")
    for subcommand, settings in configs.items():
        config = sweep.SweepConfig(subcommand, **settings)
        command = sweep.COMMANDS[subcommand]
        table[f"sweep.assemble_s.{subcommand}"] = (wall, partial(command, config), 1.0, "s")
        result = command(config)
        values = len(result.rows) * len(result.columns)
        table[f"csv.format_ns_per_value.{subcommand}"] = (
            wall, partial(sweep.format_csv, result), 1e9 / values, "ns")
        # A map plots every column but r_a and r_b, a curve every column
        # but u, and oracle-check only max_rel_error.
        series = {"decay-curve": len(result.columns) - 1, "oracle-check": 1}
        plotted = len(result.rows) * series.get(subcommand, len(result.columns) - 2)
        table[f"svg.ns_per_point.{subcommand}"] = (
            wall, partial(cli._render_svg, config, result), 1e9 / plotted, "ns")

    case = mf.seeded_oracle_cases(seed=12, count=1)[0]
    routes = {
        "2d": partial(mf.decay_rate_2d_oracle, case.interface, case.side, case.dipole),
        "1d": partial(mf.decay_rate_1d_oracle, case.interface, case.side, case.dipole.alignment),
    }
    for label, workers in (("1", 1), ("default", oracle._worker_count())):
        for route, call in routes.items():
            for u_value in size["oracle_u"]:
                run = with_workers(workers, partial(call, u_value))
                key = f"u={u_value:g}.workers={label}"
                table[f"oracle.{route}_ms.{key}"] = (wall, run, 1e3, "ms")
                table[f"oracle.{route}_peak_mb.{key}"] = (peak, run, 1e-6, "MB")
    return table


def measure(size: dict) -> dict:
    """Every figure of :func:`figures`, warmed once, then the children of
    ``size["children"]``, each read once per round for ``REPEATS`` rounds."""
    table = figures(size)
    for _, call, _, _ in table.values():
        call()
    rounds = [[how(call) * scale for how, call, scale, _ in table.values()] for _ in range(REPEATS)]
    metrics = {name: summary(list(runs), unit)
               for (name, (*_, unit)), runs in zip(table.items(), zip(*rounds))}
    with tempfile.TemporaryDirectory(prefix="bench-layers-") as scratch:
        out = Path(scratch, "table.csv")
        rounds = [[child(argv, out) for argv in size["children"].values()] for _ in range(REPEATS)]
    for label, readings in zip(size["children"], zip(*rounds)):
        walls, highs = map(list, zip(*readings))
        metrics[f"e2e.wall_s.{label}"] = summary(walls, "s")
        metrics[f"e2e.peak_mib.{label}"] = summary(highs, "MiB")
    return metrics


def environment(size_name: str) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        usable = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mirrorfield": mf.__version__,
        "machine": platform.machine(),
        "usable_cpus": usable,
        "oracle_default_workers": oracle._worker_count(),
        "sizes": SIZES[size_name],
        "repeats": REPEATS,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for a smoke run")
    args = parser.parse_args(argv)
    size_name = "tiny" if args.tiny else "full"
    result = {"environment": environment(size_name), "metrics": measure(SIZES[size_name])}
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
