"""Per-layer metrics from the span files of one traced workload run.

A span is ``[name index, start, end, parent, tag]``; the parent is an index
into the same file's span list, or -1.  A span's layer is its name up to
the first dot.  Self time is a span's duration minus the part its direct
children cover (calls nest, so children never overlap).
"""

from __future__ import annotations

import json
from collections import defaultdict

BANDS = ("small_u", "large_u")

#: Per-layer metrics taken from the tracemalloc run rather than the timed
#: traced runs, so that tracemalloc's cost stays out of every timed span.
MEMORY_METRICS = tuple(f"oracle.2d_peak_mb.{band}" for band in BANDS)

#: Counts that must repeat exactly from one traced run to the next.
EXACT_COUNTS = ("interface.calls", "oracle.2d_nodes.small_u", "oracle.2d_nodes.large_u", "sweep.values")


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


class _Spans:
    """Durations, children and layers of one step's spans."""

    def __init__(self, record: dict):
        names = record["names"]
        self.spans = [(names[n], start, end, parent, tag) for n, start, end, parent, tag in record["spans"]]
        self.children = defaultdict(list)
        for index, span in enumerate(self.spans):
            self.children[span[3]].append(index)

    def duration(self, index: int) -> float:
        return self.spans[index][2] - self.spans[index][1]

    def named(self, name: str, tag=None):
        return [
            i for i, span in enumerate(self.spans)
            if span[0] == name and (tag is None or span[4] == tag)
        ]

    def self_time(self, index: int, child_prefixes: tuple[str, ...] = ("",)) -> float:
        covered = sum(
            self.duration(child) for child in self.children[index]
            if self.spans[child][0].startswith(child_prefixes)
        )
        return self.duration(index) - covered

    def layer_time(self, layer: str) -> float:
        """Time inside ``layer``, counting nested spans of the same layer once."""
        prefix = layer + "."
        return sum(
            self.duration(i) for i, span in enumerate(self.spans)
            if span[0].startswith(prefix)
            and (span[3] < 0 or not self.spans[span[3]][0].startswith(prefix))
        )

    def total(self, name: str, tag=None) -> float:
        return sum(self.duration(i) for i in self.named(name, tag))


def run_metrics(span_files: list[str], wall_s: float, run_id: int) -> dict[str, float]:
    """Per-layer metrics of one traced workload run (all its steps summed).

    ``wall_s`` is the run's wall time, spawn to exit of every child.  Each
    span file must carry ``run_id``, so a file left by another run is
    never read in its place.  ``trace.overhead_s`` needs the untraced runs
    and is added by the caller.
    """
    sums = dict.fromkeys((
        "cli.main_s", "cli.parse_s", "sweep.command_self_s", "sweep.format_csv_s",
        "sweep.write_csv_s", "interface.s", "rates.s", "svgplot.s", "rates.curve_self_s",
        *(f"oracle.{route}_s.{band}" for route in ("2d", "1d") for band in BANDS),
    ), 0.0)
    counts: dict[str, float] = defaultdict(float)
    peaks: dict[str, float] = defaultdict(float)
    top_level = 0.0
    for path in span_files:
        with open(path, encoding="ascii") as stream:
            record = json.load(stream)
        if record["run_id"] != run_id:
            raise ValueError(f"{path} holds run {record['run_id']}, expected run {run_id}")
        for key, value in record["counts"].items():
            counts[key] += value
        for key, value in record["peaks"].items():
            peaks[key] = max(peaks[key], value)
        spans = _Spans(record)
        for main in spans.named("cli.main"):
            children = spans.children[main]
            first = min((spans.spans[c][1] for c in children), default=spans.spans[main][2])
            sums["cli.parse_s"] += first - spans.spans[main][1]
        sums["cli.main_s"] += spans.total("cli.main")
        sums["sweep.command_self_s"] += sum(
            spans.self_time(i, ("interface.", "rates.", "oracle."))
            for i in spans.named("sweep.command")
        )
        sums["sweep.format_csv_s"] += spans.total("sweep.format_csv")
        sums["sweep.write_csv_s"] += sum(spans.self_time(i) for i in spans.named("sweep.write_csv"))
        for layer in ("interface", "rates", "svgplot"):
            sums[f"{layer}.s"] += spans.layer_time(layer)
        sums["rates.curve_self_s"] += sum(
            spans.self_time(i, ("rates.relative_decay_rate",))
            for i in spans.named("rates.sample_decay_curve")
        )
        for band in BANDS:
            sums[f"oracle.2d_s.{band}"] += spans.total("oracle.2d", band)
            sums[f"oracle.1d_s.{band}"] += spans.total("oracle.1d", band)
        top_level += sum(spans.duration(i) for i, span in enumerate(spans.spans) if span[3] < 0)

    metrics = dict(sums)
    metrics["trace.unattributed_s"] = wall_s - top_level
    for name in ("sweep.rows", "sweep.values", "sweep.csv_bytes", "interface.calls",
                 "interface.objects", "rates.rate_calls", "svgplot.bytes", "svgplot.points",
                 "modes.calls"):
        metrics[name] = counts[name]
    metrics["sweep.csv_ns_per_value"] = _ratio(sums["sweep.format_csv_s"], counts["sweep.formatted_values"], 1e9)
    metrics["interface.us_per_call"] = _ratio(sums["interface.s"], counts["interface.calls"], 1e6)
    metrics["interface.distinct_ratio"] = _ratio(counts["interface.distinct"], counts["interface.calls"])
    metrics["rates.ns_per_sample"] = _ratio(sums["rates.s"], counts["rates.rate_calls"], 1e9)
    for band in BANDS:
        for name in ("cases", "2d_nodes", "failed_cases"):
            metrics[f"oracle.{name}.{band}"] = counts[f"oracle.{name}.{band}"]
        metrics[f"oracle.2d_ns_per_node.{band}"] = _ratio(
            sums[f"oracle.2d_s.{band}"], counts[f"oracle.2d_nodes.{band}"], 1e9
        )
        metrics[f"oracle.2d_peak_mb.{band}"] = peaks[f"oracle.2d.{band}"]
    return metrics


def predictions(workload: str, runs: list[dict[str, float]]) -> list[str]:
    """Attribution checks that must hold on the traced runs; returns problems."""
    problems = []
    zero = ["modes.calls"]
    if workload in ("maps", "curves"):
        zero += [f"oracle.cases.{band}" for band in BANDS]
    if workload == "maps":
        zero.append("rates.rate_calls")
    for name in zero:
        seen = {run[name] for run in runs}
        if seen != {0.0}:
            problems.append(f"prediction {name} = 0 failed on {workload}: {sorted(seen)}")
    for name in EXACT_COUNTS:
        seen = {run[name] for run in runs}
        if len(seen) > 1:
            problems.append(f"prediction: {name} differs between traced runs: {sorted(seen)}")
    return problems
