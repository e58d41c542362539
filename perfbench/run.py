"""Benchmark of the mirrorfield command line and oracle, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload maps|curves|oracle [--seed N]
                             [--seconds S] [--trace 0|1]

The program is run from source (``PYTHONPATH=src``) as child processes:
``python -m mirrorfield.cli ...`` and, for the large-u oracle band,
``perfbench/oracle_probe.py``.  The loop is closed: one client runs one
child at a time and starts the next only when the previous has exited.
A workload run is the workload's steps in order; it is timed from each
child's spawn to its exit, files written included.  Every run's outputs
are checked (see ``workloads.py``); on the default seed each CSV must also
match its frozen SHA-256 in ``digests.json``, the byte-identity gate.

With ``--trace 0`` the benchmark measures set-up time, warms up once, then
repeats the workload for ``--seconds`` and reports the end-to-end metrics.
With ``--trace 1`` it alternates untraced runs with traced runs, in which
each child is ``tracer.py`` running the same step in-process with every
layer boundary wrapped, and reports the per-layer metrics of
``layers.py``; ``trace.overhead_s`` is the traced minus the untraced
median run time.

Human-readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(provenance, samples, checks) is written under ``perfbench/.work/``.  The
exit code is 0 when every check passed, 1 when one failed and 2 when the
program's source is missing or the measured metrics differ from those
``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
from workloads import WORKLOADS, Step

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
#: The one list of metric names and units; the benchmark reports exactly these.
SPEC = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 35

#: Fewest interpreter starts timed for ``setup_s``; the median is reported.
SETUP_STARTS = 7

#: A child running longer than this is killed and its run fails.
CHILD_TIMEOUT_S = 120.0

#: The tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10

@dataclass
class RunRecord:
    """One workload run: every step's child, timed and checked."""

    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    values: int = 0
    step_walls_s: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    span_files: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path, env: dict[str, str]) -> tuple[float, float, int]:
    """Run one child to completion: (wall seconds, ru_maxrss in MB, exit code).

    The child is reaped with ``os.wait4`` so its own peak RSS is read; an
    interval timer kills it after CHILD_TIMEOUT_S.
    """
    out_flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), out_flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), out_flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)

    def kill(signum, frame):
        os.kill(pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
    reaped = False
    try:
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if not reaped:  # interrupted (SIGTERM, Ctrl-C): leave no child behind
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    wall = time.perf_counter() - start
    return wall, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


class Runner:
    """Runs one workload's steps as child processes and checks the outputs."""

    def __init__(self, workload: str, seed: int, out: Path):
        self.workload = workload
        self.out = out
        self.steps: list[Step] = WORKLOADS[workload].steps(seed, out)
        self.env = child_env()
        digests = json.loads((BENCH / "digests.json").read_text(encoding="ascii"))
        self.digests = digests[workload] if seed == DEFAULT_SEED else None

    def _argv(self, step: Step) -> list[str]:
        if step.kind == "cli":
            return [sys.executable, "-m", "mirrorfield.cli", *step.args]
        return [sys.executable, str(BENCH / "oracle_probe.py"), *step.args]

    def run(self, traced: bool = False, run_id: int = 0, memory: bool = False) -> RunRecord:
        """One workload run; ``traced`` runs each step under ``tracer.py``
        (``memory``: with tracemalloc around the 2D oracle)."""
        record = RunRecord()
        captured = []
        for step in self.steps:
            stdout, stderr = self.out / f"{step.name}.stdout", self.out / f"{step.name}.stderr"
            argv = self._argv(step)
            if traced:
                spans = self.out / f"{step.name}.{run_id}.spans.json"
                spec = self.out / f"{step.name}.spec.json"
                spec.write_text(json.dumps({
                    "kind": step.kind, "args": list(step.args),
                    "run_id": run_id, "memory": memory, "spans_out": str(spans),
                }), encoding="ascii")
                argv = [sys.executable, str(BENCH / "tracer.py"), str(spec)]
                record.span_files.append(str(spans))
            wall, rss, code = spawn(argv, stdout, stderr, self.env)
            record.wall_s += wall
            record.step_walls_s.append(wall)
            record.peak_rss_mb = max(record.peak_rss_mb, rss)
            captured.append((step, code, stdout, stderr))
        for step, code, stdout, stderr in captured:
            problems, values = step.check(
                code,
                stdout.read_text(encoding="utf-8", errors="replace"),
                stderr.read_text(encoding="utf-8", errors="replace"),
            )
            record.values += values
            record.problems += [f"{step.name}: {problem}" for problem in problems]
            if self.digests is not None and step.csv is not None and not problems:
                digest = hashlib.sha256(step.csv.read_bytes()).hexdigest()
                if digest != self.digests[step.name]:
                    record.problems.append(f"{step.name}: CSV bytes differ from the frozen digest")
        return record


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples beyond it; the median when there are too few samples
    for that percentile to reach the median."""
    ordered = sorted(samples)
    n = len(ordered)
    if n > 2 * TAIL_BEYOND:  # the tail is then at or above the median
        return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return statistics.median(ordered), 50.0, sum(1 for s in ordered if s > statistics.median(ordered))


def provenance(workload: str, seed: int) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "mirrorfield").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "why": WORKLOADS[workload].why,
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "program": "python -m mirrorfield.cli with PYTHONPATH=src (the console script is not required)",
        "loop": "closed, 1 client, one child process at a time",
    }


def git_commit() -> str:
    """HEAD of the checkout, read without running git; ``"unknown"``, with a
    warning, when the checkout is not a git work tree or the ref is missing."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            return (git / ref).read_text(encoding="ascii").strip()
        except FileNotFoundError:  # the ref may be packed
            for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
                fields = line.split()
                if len(fields) == 2 and fields[1] == ref:
                    return fields[0]
    except OSError:
        pass
    print(f"warning: no git commit found under {git}; provenance records it as unknown", file=sys.stderr)
    return "unknown"


def time_setup(runner: Runner) -> float:
    """Wall time of one interpreter start that imports mirrorfield."""
    wall, _, code = spawn(
        [sys.executable, "-c", "import mirrorfield"],
        runner.out / "setup.stdout", runner.out / "setup.stderr", runner.env,
    )
    if code != 0:
        raise SystemExit(f"error: importing mirrorfield failed with exit code {code}")
    return wall


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict, list[RunRecord], list[str]]:
    # Set-up is timed once before every run, so its median samples the
    # whole window rather than one burst at its start.
    setup = [time_setup(runner)]
    records = [runner.run()]  # warm-up: fills bytecode and file caches
    timed: list[RunRecord] = []
    deadline = time.perf_counter() + seconds
    while not timed or time.perf_counter() < deadline:
        setup.append(time_setup(runner))
        timed.append(runner.run())
    while len(setup) < SETUP_STARTS:
        setup.append(time_setup(runner))
    records += timed
    walls = [r.wall_s for r in timed]
    p50 = statistics.median(walls)
    tail_value, tail_pct, beyond = tail(walls)
    values = max(r.values for r in timed)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s.p50": p50,
        "run_s.tail": tail_value,
        "values_per_s": values / p50,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in timed),
    }
    detail = {
        "setup_samples_s": setup,
        "run_samples_s": walls,
        "step_samples_s": [r.step_walls_s for r in timed],
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "samples": len(walls),
        "values_per_run": values,
        "peak_rss_samples_mb": [r.peak_rss_mb for r in timed],
    }
    return metrics, detail, records, []


def measure_layers(runner: Runner, seconds: float) -> tuple[dict, dict, list[RunRecord], list[str]]:
    per_run: list[dict[str, float]] = []

    def traced_run(run_id: int, memory: bool = False) -> RunRecord:
        record = runner.run(traced=True, run_id=run_id, memory=memory)
        # A run that failed a check may have left no span files.
        if not record.problems:
            per_run.append(layers.run_metrics(record.span_files, record.wall_s, run_id))
        for path in record.span_files:
            Path(path).unlink(missing_ok=True)
        return record

    records = [runner.run()]  # warm-up
    # Peak memory comes from one run under tracemalloc; its times are dropped.
    records.append(traced_run(0, memory=True))
    memory_run = per_run.pop() if per_run else {}
    plain: list[RunRecord] = []
    traced: list[RunRecord] = []
    deadline = time.perf_counter() + seconds
    while not (plain and traced) or time.perf_counter() < deadline:
        if len(traced) <= len(plain):
            traced.append(traced_run(len(traced) + 1))
        else:
            plain.append(runner.run())
    records += plain + traced
    metrics = {
        name: statistics.median(run[name] for run in per_run) if per_run else 0.0
        for name in (per_run[0] if per_run else memory_run)
    }
    for name in layers.MEMORY_METRICS:
        metrics[name] = memory_run.get(name, 0.0)
    plain_p50 = statistics.median(r.wall_s for r in plain)
    traced_p50 = statistics.median(r.wall_s for r in traced)
    metrics["trace.overhead_s"] = traced_p50 - plain_p50
    problems = layers.predictions(runner.workload, per_run)
    detail = {
        "untraced_run_samples_s": [r.wall_s for r in plain],
        "traced_run_samples_s": [r.wall_s for r in traced],
        "traced_runs": per_run,
        "memory_run": memory_run,
        "predictions": problems or "all hold",
        "oracle.2d_nodes": "computed as panel_count(u, spec) * 3 * points_per_panel * PHI_ORDER",
    }
    return metrics, detail, records, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="mirrorfield benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "mirrorfield" / "__init__.py").is_file():
        print(f"error: no mirrorfield source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    out = WORK / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, out)
    measure = measure_layers if args.trace else measure_end_to_end
    measured, detail, records, problems = measure(runner, args.seconds)
    failed = [r for r in records if r.problems]
    problems = [p for r in failed for p in r.problems] + problems
    # A run that failed a check may leave metrics unmeasured; then the
    # failure is what gets reported.
    if measured.keys() != units.keys() and not problems:
        print(f"error: measured metrics differ from {SPEC.name}: "
              f"missing {sorted(units.keys() - measured.keys())}, "
              f"unlisted {sorted(measured.keys() - units.keys())}", file=sys.stderr)
        return 2
    metrics = {name: measured.get(name, 0.0) for name in units}

    mode = "tracing on" if args.trace else "tracing off"
    print(f"mirrorfield benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, {mode}")
    print(f"  {WORKLOADS[args.workload].why}")
    extra = "1 warm-up, 1 tracemalloc" if args.trace else "1 warm-up"
    print(f"  closed loop, 1 client, one child at a time: {len(records)} runs ({extra}), {len(failed)} failed")
    notes = {
        f"oracle.2d_nodes.{band}": "computed from panel_count and the spec" for band in layers.BANDS
    }
    notes.update({name: "from one tracemalloc run, whose times are not used" for name in layers.MEMORY_METRICS})
    notes["trace.overhead_s"] = "traced minus untraced median run time"
    if not args.trace:
        notes = {
            "setup_s": f"median of {len(detail['setup_samples_s'])} starts of `python -c 'import mirrorfield'`",
            "run_s.p50": f"median of {detail['samples']} runs",
            "run_s.tail": f"p{detail['tail_percentile']:.1f}, {detail['tail_samples_beyond']} of "
                          f"{detail['samples']} samples beyond",
            "values_per_s": f"{detail['values_per_run']} CSV values per run",
            "peak_rss_mb": "largest child ru_maxrss, median over runs",
        }
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]:6s} {notes.get(name, '')}")
    if not args.trace:
        print(f"  {'fail_frac':28s} {len(failed) / len(records):14.6g} {'ratio':6s} "
              f"{len(failed)} of {len(records)} runs failed a check")
    for problem in problems[:20]:
        print(f"  FAILED CHECK: {problem}")

    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    full = {
        **result,
        "fail_frac": len(failed) / len(records),
        "provenance": provenance(args.workload, args.seed),
        "detail": detail,
        "problems": problems,
    }
    (WORK / f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps(full, indent=1), encoding="ascii"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
