"""Command-line entry point.

Exit codes: 0 success, 1 configuration or model error or an output that
cannot be written, 2 oracle-check sweep with failing cases.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

from .errors import ConfigError, MirrorFieldError
from .svgplot import heat_panels, line_plot
from .sweep import (
    COMMANDS,
    SUBCOMMAND_KEYS,
    ResultTable,
    SweepConfig,
    _csv_blocks,
    config_from_settings,
    oracle_failures,
    split_settings,
    write_csv,
)


def load_config_file(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` file, ignoring blanks and # comments."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return split_settings(text, path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorfield",
        description="Spontaneous-emission sweeps near a coated interface.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    helps = {
        "eta-map": "tabulate the mode normalisation constants on a reflectivity grid",
        "xi-map": "tabulate the mirror parameter on a reflectivity grid",
        "decay-curve": "sample the decay-rate ratio against scaled distance",
        "oracle-check": "compare the closed form against numeric integrations",
    }
    for name, flags in SUBCOMMAND_KEYS.items():
        sub = subparsers.add_parser(name, help=helps[name])
        sub.add_argument("--config", help="flat key = value settings file")
        sub.add_argument("--out", help="write CSV here instead of stdout")
        sub.add_argument(
            "--svg", action="store_true",
            help="also write an SVG plot next to --out",
        )
        for flag in flags:
            sub.add_argument(f"--{flag.replace('_', '-')}", dest=flag, default=None)
    return parser


def _render_svg(config: SweepConfig, table: ResultTable) -> str:
    if config.subcommand == "decay-curve":
        u = table.column("u")
        series = [(label, table.column(label)) for label in table.columns[1:]]
        return line_plot(u, series, "Relative decay rate", "u = 2 k0 x", "ratio")
    if config.subcommand == "oracle-check":
        cases = table.column("case")
        series = [("max_rel_error", table.column("max_rel_error"))]
        return line_plot(cases, series, "Oracle agreement", "case", "max rel error")
    # Rows are row-major in (r_a, r_b), so each column's first index is r_a.
    count = config.grid_count
    r_a = table.column("r_a")[::count]
    r_b = table.column("r_b")[:count]
    panels = [(name, table.column(name)) for name in table.columns[2:]]
    title = "Normalisation map" if config.subcommand == "eta-map" else "Mirror parameter map"
    return heat_panels(r_a, r_b, panels, title, "r_a", "r_b")


def _write_stdout(table: ResultTable) -> None:
    """Write the CSV to stdout one row block at a time, as ``write_csv`` does
    to a file.  If stdout refuses it, stdout is pointed at the null device,
    so that the interpreter's flush at exit cannot fail a second time."""
    try:
        sys.stdout.writelines(_csv_blocks(table))
        sys.stdout.flush()
    except OSError:
        with contextlib.suppress(OSError, ValueError):  # a stdout with no descriptor
            descriptor = sys.stdout.fileno()
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, descriptor)
            os.close(null)
        raise


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    namespace = parser.parse_args(argv)
    try:
        settings = load_config_file(namespace.config) if namespace.config else {}
        for flag in SUBCOMMAND_KEYS[namespace.subcommand]:
            raw = getattr(namespace, flag)
            if raw is not None:
                settings[flag] = raw
        config = config_from_settings(namespace.subcommand, settings)
        out, emit_svg = namespace.out, namespace.svg
        if emit_svg and out is None:
            raise ConfigError("--svg needs --out to name the plot file")
        if emit_svg and Path(out).suffix == ".svg":
            raise ConfigError(f"--out {out} is where the plot would go; name the CSV otherwise")
        table = COMMANDS[config.subcommand](config)
        try:
            if out is None:
                _write_stdout(table)
            else:
                write_csv(table, out)
                if emit_svg:
                    svg = _render_svg(config, table)
                    Path(out).with_suffix(".svg").write_text(svg, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
        if config.subcommand == "oracle-check":
            print(table.trailer, file=sys.stderr)
            if oracle_failures(table) > 0:
                return 2
        return 0
    except MirrorFieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
