"""Per-layer timings of mirrorfield, written to one JSON file.

Usage, from the repo root::

    python tools/bench_layers.py --out BENCH_<label>.json [--tiny]

It imports the package from this checkout's ``src/`` and, in this one
process, times each layer on fixed inputs ``REPEATS`` (5) times:

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
up first (the oracles cache their Gauss-Legendre rules), so none of them
includes an import or a first-call cost; the children, which pay their
imports by design, run after this process has read the same files.
``--tiny`` shrinks every input and runs one small ``eta-map`` child, for a
smoke run in under two seconds.  Nothing here is a gate: the numbers
drift with the machine.  Standard library and numpy only.
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


def timed(call, scale: float = 1.0) -> list[float]:
    """Wall time of each of ``REPEATS`` calls after one warm-up, times ``scale``."""
    call()
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        runs.append((time.perf_counter() - start) * scale)
    return runs


def peaks(call) -> list[float]:
    """tracemalloc peak of each of ``REPEATS`` calls after one warm-up, in MB."""
    call()
    runs = []
    for _ in range(REPEATS):
        tracemalloc.start()
        try:
            call()
            runs.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
    return runs


def child_runs(argv: tuple[str, ...], out: Path) -> tuple[list[float], list[float]]:
    """Wall time in s and own peak in MiB of each of ``REPEATS`` children
    running ``mirrorfield *argv --out out``."""
    walls, highs = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", CHILD, str(ROOT / "src"), *argv, "--out", str(out)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        wall = time.perf_counter() - start
        if child.returncode != 0:
            raise RuntimeError(f"mirrorfield {' '.join(argv)} exited {child.returncode}: {child.stderr}")
        walls.append(wall)
        highs.append(int(child.stderr.splitlines()[-1].split()[1]) / 1024)  # "VmHWM: <n> kB"
    return walls, highs


def coating_cells(count: int) -> tuple[np.ndarray, ...]:
    """Amplitudes of ``count`` lossy coating cells, as the maps build them."""
    r = np.linspace(0.0, 0.8, count)
    t = np.sqrt(1.0 - r * r - 0.2)
    return r, t, None, r[::-1], t[::-1], None


def measure(size: dict) -> dict:
    metrics = {}

    def add(name: str, runs: list[float], unit: str) -> None:
        metrics[name] = summary(runs, unit)

    cells = coating_cells(size["cells"])
    add("interface.validate_us_per_cell.array",
        timed(lambda: mf.validate_interface(*cells), 1e6 / size["cells"]), "us")
    calls = size["scalar_calls"]

    def scalar_validations():
        for _ in range(calls):
            mf.validate_interface(0.6, 0.2, None, 0.3, 0.1, None, 0.0, 0.0, 3.0, 0.0)

    add("interface.validate_us_per_cell.scalar", timed(scalar_validations, 1e6 / calls), "us")

    coating = mf.validate_interface(0.6, 0.2, None, 0.3, 0.1, None, 0.0, 0.0, 3.0, 0.0)
    u = np.linspace(0.0, 50.0, size["samples"])
    add("rates.ns_per_sample",
        timed(lambda: mf.relative_decay_rate(coating, "a", 0.3, u), 1e9 / size["samples"]), "ns")

    def scalar_rates():
        for _ in range(calls):
            mf.relative_decay_rate(coating, "a", 0.3, 1.7)

    add("rates.us_per_scalar_call", timed(scalar_rates, 1e6 / calls), "us")

    configs = {
        "eta-map": dict(grid_count=size["grid"]),
        "xi-map": dict(grid_count=size["grid"], phi3_values=(0.0, 0.5 * np.pi, np.pi)),
        "decay-curve": dict(preset="fig4", u_count=size["curve"]),
        "oracle-check": dict(seed=42, cases=size["cases"]),
    }

    def make_configs():
        for subcommand, settings in configs.items():
            sweep.SweepConfig(subcommand, **settings)

    add("sweep.config_us", timed(make_configs, 1e6 / len(configs)), "us")
    for subcommand, settings in configs.items():
        config = sweep.SweepConfig(subcommand, **settings)
        command = sweep.COMMANDS[subcommand]
        add(f"sweep.assemble_s.{subcommand}", timed(lambda: command(config)), "s")
        table = command(config)
        values = len(table.rows) * len(table.columns)
        add(f"csv.format_ns_per_value.{subcommand}",
            timed(lambda: sweep.format_csv(table), 1e9 / values), "ns")
        # A map plots every column but r_a and r_b, a curve every column
        # but u, and oracle-check only max_rel_error.
        series = {"decay-curve": len(table.columns) - 1, "oracle-check": 1}
        plotted = len(table.rows) * series.get(subcommand, len(table.columns) - 2)
        add(f"svg.ns_per_point.{subcommand}",
            timed(lambda: cli._render_svg(config, table), 1e9 / plotted), "ns")

    case = mf.seeded_oracle_cases(seed=12, count=1)[0]
    routes = {
        "2d": lambda u: mf.decay_rate_2d_oracle(case.interface, case.side, case.dipole, u),
        "1d": lambda u: mf.decay_rate_1d_oracle(case.interface, case.side, case.dipole.alignment, u),
    }
    default_workers = oracle._worker_count()
    worker_count = oracle._worker_count
    for label, workers in (("1", 1), ("default", default_workers)):
        oracle._worker_count = lambda: workers
        try:
            for route, call in routes.items():
                for u_value in size["oracle_u"]:
                    key = f"u={u_value:g}.workers={label}"
                    add(f"oracle.{route}_ms.{key}", timed(lambda: call(u_value), 1e3), "ms")
                    add(f"oracle.{route}_peak_mb.{key}", peaks(lambda: call(u_value)), "MB")
        finally:
            oracle._worker_count = worker_count

    with tempfile.TemporaryDirectory(prefix="bench-layers-") as scratch:
        for label, argv in size["children"].items():
            walls, highs = child_runs(argv, Path(scratch, "table.csv"))
            add(f"e2e.wall_s.{label}", walls, "s")
            add(f"e2e.peak_mib.{label}", highs, "MiB")
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
        "sizes": {key: list(value) if isinstance(value, tuple) else value
                  for key, value in SIZES[size_name].items()},
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
