"""Command-line entry point.

``--some-key VALUE`` or ``--some-key=VALUE`` sets ``some_key`` to VALUE
verbatim, like a config-file line (so ``--phi3 -pi/2`` works; no ``_``, no
abbreviations); only ``--config``, ``--out``, ``--svg`` and ``--help`` are
not settings.  Exit codes: 0 success, 1 a malformed command line, a
configuration or model error or an unwritable output, 2 failing oracle cases."""

from __future__ import annotations

import contextlib
import os
import sys
from collections.abc import Iterable
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


def _read_command_line(argv: list[str]) -> tuple[str, dict[str, str], str | None, bool]:
    """The subcommand, its settings (the config file's, then the flags'), --out and --svg."""
    if not argv:
        raise ConfigError("no subcommand; see mirrorfield --help")
    words, flags = iter(argv[1:]), {}
    for word in words:
        name, sep, value = word.partition("=")
        if not name.startswith("--") or "_" in name:
            raise ConfigError(f"expected --some-key VALUE or --some-key=VALUE, got {word!r}")
        if name == "--svg" and sep:
            raise ConfigError(f"--svg takes no value, got {value!r}")
        if not sep and name != "--svg":
            value = next(words, None)
            if value is None:
                raise ConfigError(f"{name} needs a value")
        flags[name[2:].replace("-", "_")] = value
    out, svg = flags.pop("out", None), flags.pop("svg", None)
    settings = load_config_file(flags.pop("config")) if "config" in flags else {}
    return argv[0], {**settings, **flags}, out, svg is not None


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


def _write_stdout(blocks: Iterable[str]) -> None:
    """Write ``blocks`` (CSV row blocks or the help) to stdout.  If stdout
    refuses them, it is pointed at the null device, so that the flush at
    exit cannot fail a second time, and a ``ConfigError`` is raised."""
    try:
        sys.stdout.writelines(blocks)
        sys.stdout.flush()
    except OSError as exc:
        with contextlib.suppress(OSError, ValueError):  # a stdout with no descriptor
            descriptor = sys.stdout.fileno()
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, descriptor)
            os.close(null)
        raise ConfigError(f"cannot write output: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if "-h" in argv or "--help" in argv:
            lines = ["usage: mirrorfield SUBCOMMAND [--config FILE] [--out CSV [--svg]] [--some-key VALUE ...]\n"]
            for name, keys in SUBCOMMAND_KEYS.items():
                flags = " ".join(f"--{key.replace('_', '-')}" for key in keys)
                lines.append(f"  {name} {flags}: {(COMMANDS[name].__doc__ or ' ').splitlines()[0]}\n")
            _write_stdout(lines)
            return 0
        subcommand, settings, out, emit_svg = _read_command_line(argv)
        config = config_from_settings(subcommand, settings)
        if emit_svg and out is None:
            raise ConfigError("--svg needs --out to name the plot file")
        if emit_svg and Path(out).suffix == ".svg":
            raise ConfigError(f"--out {out} is where the plot would go; name the CSV otherwise")
        table = COMMANDS[config.subcommand](config)
        try:
            if out is None:
                _write_stdout(_csv_blocks(table))
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
