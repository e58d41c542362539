"""Traced child: run one benchmark step in-process with every layer wrapped.

Run as ``python perfbench/tracer.py SPEC.json`` with mirrorfield
importable.  The spec names the step (``{"kind": "cli" | "probe", "args":
[...], "run_id": N, "memory": BOOL, "spans_out": PATH}``).  The tracer imports mirrorfield,
replaces each public name a layer is entered through with a wrapper that
records a span (name, start, end, parent, tag) and counts, runs the step
exactly as ``python -m mirrorfield.cli`` or ``oracle_probe.py`` would,
restores the originals and writes spans and counts to ``spans_out``.
With ``memory`` true, each 2D oracle call also runs under tracemalloc and
its peak is recorded; tracemalloc slows every allocation, so the timings
of such a run are not used.

Only the benchmark's own files are involved: nothing under ``src/`` is
changed.  A name is wrapped wherever a mirrorfield module binds it, so a
caller added later is traced too.  Calls a module makes to its own
functions are traced only for ``rates``, ``oracle`` and the CSV writer,
whose internal calls split work the metrics need apart; the interface and
modes layers count entries from outside.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import Counter
from types import ModuleType

from workloads import ORACLE_TOL

#: Distances at or below this belong to the small-u band, at or above
#: LARGE_U to the large-u band.
SMALL_U = 100.0
LARGE_U = 1e3

_MODULES = ("cli", "sweep", "interface", "rates", "oracle", "svgplot", "modes")


def band(u: float) -> str | None:
    if u <= SMALL_U:
        return "small_u"
    if u >= LARGE_U:
        return "large_u"
    return None


class Call:
    """Arguments of one wrapped call, looked up by parameter name."""

    __slots__ = ("parameters", "args", "kwargs")

    def __init__(self, parameters, args, kwargs):
        self.parameters, self.args, self.kwargs = parameters, args, kwargs

    def __getitem__(self, key: str):
        if key in self.kwargs:
            return self.kwargs[key]
        for position, (name, parameter) in enumerate(self.parameters.items()):
            if name == key:
                return self.args[position] if position < len(self.args) else parameter.default
        raise KeyError(key)


class Tracer:
    """Spans and counts of one traced process, kept in memory."""

    def __init__(self, run_id: int, memory: bool):
        self.run_id = run_id
        self.memory = memory
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.coatings: set = set()
        self._restore: list = []

    # ------------------------------------------------------------ recording

    def wrap(self, name: str, fn, observe=None, tag=None, memory: bool = False):
        """Wrapper recording a span around ``fn``.

        ``observe(call, result, error)`` updates counts; ``tag(call)``
        labels the span (the u band for oracle spans).  ``call[name]``
        gives the value of a parameter of the wrapped call.  With
        ``memory`` the call runs under tracemalloc and its peak is kept
        per tag.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        parameters = inspect.signature(fn).parameters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            call = Call(parameters, args, kwargs)
            label = tag(call) if tag else None
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, label])
            stack.append(index)
            if memory:
                tracemalloc.start()
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                if memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    key = f"{name}.{label}"
                    self.peaks[key] = max(self.peaks.get(key, 0.0), peak)
                stack.pop()
                spans[index][1:3] = [start, end]
                if observe:
                    observe(call, result, error)

        return traced

    def count(self, key: str, amount=1):
        self.counts[key] += amount

    # ------------------------------------------------------------ patching

    def _replace(self, owner, key, value):
        """Bind ``owner[key]`` (a dict) or ``owner.key`` to ``value``, undoably."""
        if isinstance(owner, dict):
            self._restore.append((owner.__setitem__, key, owner[key]))
            owner[key] = value
        else:
            self._restore.append((functools.partial(setattr, owner), key, getattr(owner, key)))
            setattr(owner, key, value)

    def patch_everywhere(self, original, wrapper, home: ModuleType, own_calls: bool):
        """Rebind ``original`` to ``wrapper`` in every mirrorfield module."""
        for module in list(sys.modules.values()):
            if not isinstance(module, ModuleType) or not module.__name__.startswith("mirrorfield"):
                continue
            if module is home and not own_calls:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, key, wrapper)

    def restore(self):
        for assign, key, value in reversed(self._restore):
            assign(key, value)
        self._restore.clear()

    # ------------------------------------------------------------ layers

    def install(self):
        mods = {name: importlib.import_module(f"mirrorfield.{name}") for name in _MODULES}
        cli, sweep, interface, rates, oracle, svgplot, modes = (mods[name] for name in _MODULES)

        def table_size(table):
            return len(table.rows) * len(table.columns)

        def on_table(call, result, error):
            if result is not None:
                self.count("sweep.rows", len(result.rows))
                self.count("sweep.values", table_size(result))

        def on_format(call, result, error):
            self.count("sweep.formatted_values", table_size(call["table"]))
            if result is not None:
                self.count("sweep.csv_bytes", len(result))

        def on_svg(points):
            def observe(call, result, error):
                self.count("svgplot.points", points(call))
                if result is not None:
                    self.count("svgplot.bytes", len(result))
            return observe

        def on_interface(call, result, error):
            self.count("interface.calls")
            coating = call["interface"]
            try:
                self.coatings.add(coating)
            except TypeError:  # an unhashable coating counts by identity
                self.coatings.add(id(coating))

        def u_band(call):
            return band(float(call["u"]))

        def on_compare(call, result, error):
            label = band(float(call["u"]))
            self.count(f"oracle.cases.{label}")
            if error is not None or not (result.max_rel_error <= ORACLE_TOL):
                self.count(f"oracle.failed_cases.{label}")

        def on_2d(call, result, error):
            spec = call["spec"]
            panels = oracle.panel_count(float(call["u"]), spec)
            # Both refinement levels: points_per_panel and twice that.
            nodes = panels * 3 * spec.points_per_panel * oracle.PHI_ORDER
            self.count(f"oracle.2d_nodes.{band(float(call['u']))}", nodes)

        self._replace(cli, "main", self.wrap("cli.main", cli.main))
        for key, command in list(sweep.COMMANDS.items()):
            self._replace(sweep.COMMANDS, key, self.wrap("sweep.command", command, observe=on_table))
        layer_functions = [
            (sweep, "sweep.format_csv", sweep.format_csv, True, dict(observe=on_format)),
            (sweep, "sweep.write_csv", sweep.write_csv, True, {}),
            (svgplot, "svgplot.heat_panels", svgplot.heat_panels, False, dict(observe=on_svg(
                lambda b: len(b["x_values"]) * len(b["y_values"]) * len(b["panels"])))),
            (svgplot, "svgplot.line_plot", svgplot.line_plot, False, dict(observe=on_svg(
                lambda b: len(b["x"]) * len(b["series"])))),
            (rates, "rates.relative_decay_rate", rates.relative_decay_rate, True,
             dict(observe=lambda b, r, e: self.count("rates.rate_calls"))),
            (rates, "rates.sample_decay_curve", rates.sample_decay_curve, True, {}),
            (oracle, "oracle.oracle_compare", oracle.oracle_compare, True,
             dict(observe=on_compare, tag=u_band)),
            (oracle, "oracle.2d", oracle.decay_rate_2d_oracle, True,
             dict(observe=on_2d, tag=u_band, memory=self.memory)),
            (oracle, "oracle.1d", oracle.decay_rate_1d_oracle, True, dict(tag=u_band)),
            (interface, "interface.validate_interface", interface.validate_interface, False, {}),
        ]
        for name in ("normalisation_constants", "side_rate_terms", "mirror_parameter"):
            layer_functions.append(
                (interface, f"interface.{name}", getattr(interface, name), False, dict(observe=on_interface))
            )
        for name, fn in vars(modes).items():
            if inspect.isfunction(fn) and fn.__module__ == modes.__name__ and not name.startswith("_"):
                layer_functions.append(
                    (modes, f"modes.{name}", fn, False, dict(observe=lambda b, r, e: self.count("modes.calls")))
                )
        for home, span, fn, own_calls, options in layer_functions:
            self.patch_everywhere(fn, self.wrap(span, fn, **options), home, own_calls)

        post_init = interface.MirrorInterface.__post_init__

        def on_object(call, result, error):
            self.count("interface.objects")

        self._replace(interface.MirrorInterface, "__post_init__",
                      self.wrap("interface.MirrorInterface", post_init, observe=on_object))
        return cli

    def dump(self, path: str):
        self.counts["interface.distinct"] = len(self.coatings)
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        record = {
            "run_id": self.run_id,
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
            "counts": dict(self.counts),
            "peaks": self.peaks,
        }
        with open(path, "w", encoding="ascii") as stream:
            json.dump(record, stream, separators=(",", ":"))


def main(spec_path: str) -> int:
    with open(spec_path, encoding="ascii") as stream:
        spec = json.load(stream)
    tracer = Tracer(spec["run_id"], spec["memory"])
    cli = tracer.install()
    try:
        if spec["kind"] == "cli":
            code = cli.main(spec["args"])
        else:
            import oracle_probe

            code = oracle_probe.main(spec["args"])
        sys.stdout.flush()
    finally:
        tracer.restore()
    tracer.dump(spec["spans_out"])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
