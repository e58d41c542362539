"""Parameter sweeps behind the command-line interface.

Each command produces a :class:`ResultTable` whose provenance line echoes
every parameter needed to regenerate it, so any emitted CSV can be
replayed and compared bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DomainError, MirrorFieldError, QuadratureBudgetExceeded
from .interface import (
    SPEC_COUNTS,
    MirrorInterface,
    QuadratureSpec,
    SideCoefficients,
    _check_alignment,
    _check_one_cell,
    _check_side,
    as_real,
    check_count,
    check_finite,
    mirror_parameter,
    normalisation_constants,
    reduce_phase,
    validate_interface,
)

# rates and oracle are imported inside the commands that run them, so a map
# command never loads them; this import serves annotations only.
if TYPE_CHECKING:
    from .rates import DipoleOrientation

#: Distances exercised by the oracle sweep, cycled per case.
ORACLE_U_VALUES = (0.1, 1.0, 5.0, 20.0, 100.0)

#: Sentinel written in place of a result when the quadrature gives up.
FAILED_VALUE = -1.0

#: Most values (rows times columns) one table may hold: far above the paper's
#: figures (401 x 401 maps, 20001-point curves), below exhausting memory.
MAX_TABLE_VALUES = 5_000_000

#: Rows the CSV writers format and hand to their sink at once, so that no
#: whole-table text is ever alive.
CSV_BLOCK_ROWS = 1024

_INTERFACE_FIELDS = (
    "r_a", "t_a", "l_a", "r_b", "t_b", "l_b",
    "phi1", "phi2", "phi3", "phi4",
)

_QUADRATURE_FIELDS = tuple(item.name for item in fields(QuadratureSpec))

_ORACLE_COLUMNS = (
    "case", "side_is_b", "u", "alignment",
    "closed_form", "oracle_2d", "oracle_1d", "max_rel_error", "ok",
)

#: The settings each subcommand reads, in provenance order; any other key
#: is rejected.
SUBCOMMAND_KEYS = {
    "eta-map": ("l_sq", "grid_count", "r_a_max", "r_b_max"),
    "xi-map": ("l_sq", "grid_count", "r_a_max", "r_b_max", "phi3_values"),
    "decay-curve": (
        "preset", "side", "u_min", "u_max", "u_count", "alignment", *_INTERFACE_FIELDS,
    ),
    "oracle-check": ("seed", "cases", *_QUADRATURE_FIELDS),
}

#: Settings a preset fixes, so ``decay-curve`` with a preset rejects them.
_PRESET_FIXED = ("alignment", *_INTERFACE_FIELDS)


def _keys_read(subcommand: str, preset: bool) -> list[str]:
    """Settings ``subcommand`` reads, in provenance order."""
    keys = SUBCOMMAND_KEYS[subcommand]
    return [key for key in keys if key not in _PRESET_FIXED] if preset else list(keys)


#: Least value of each count setting.
_COUNTS = {"seed": 0, "grid_count": 2, "u_count": 2, "cases": 1, **SPEC_COUNTS}


@dataclass(frozen=True)
class SweepConfig:
    """Merged command-line / config-file options for one sweep, checked on
    construction: each set field is read by its annotated kind and stored
    as a plain Python value (a real as a ``float``, a count as an ``int``,
    the phases as a tuple of floats), so a config built from numpy numbers
    writes the provenance line that replays it."""

    subcommand: str
    r_a: float | None = None
    t_a: float | None = None
    l_a: float | None = None
    r_b: float | None = None
    t_b: float | None = None
    l_b: float | None = None
    phi1: float = 0.0
    phi2: float = 0.0
    phi3: float = 0.0
    phi4: float = 0.0
    side: str = "a"
    alignment: float = 0.0
    u_min: float = 0.01
    u_max: float = 50.0
    u_count: int = 501
    l_sq: float = 0.2
    grid_count: int = 101
    r_a_max: float | None = None
    r_b_max: float | None = None
    phi3_values: tuple[float, ...] = (0.0, math.pi)
    preset: str | None = None
    seed: int = 42
    cases: int = 64
    panels_per_oscillation: int = QuadratureSpec.panels_per_oscillation
    points_per_panel: int = QuadratureSpec.points_per_panel
    min_panels: int = QuadratureSpec.min_panels
    rel_tolerance: float = QuadratureSpec.rel_tolerance

    def __post_init__(self) -> None:
        try:
            # The annotation that _SETTINGS parses text by; a None that it
            # allows stays unset.
            for item in fields(self):
                name, value = item.name, getattr(self, item.name)
                kind, _, optional = item.type.partition(" | ")
                if value is None and optional:
                    continue
                if kind == "int":
                    value = check_count(name, value, _COUNTS[name])
                elif kind == "str":
                    if not isinstance(value, str):
                        raise ConfigError(f"{name} must be a string, got {value!r}")
                elif kind == "tuple[float, ...]":
                    if not isinstance(value, tuple):
                        raise ConfigError(f"{name} must be a tuple of real numbers, got {value!r}")
                    value = tuple(as_real(name, part, scalar=True) for part in value)
                else:
                    value = as_real(name, value, scalar=True)
                object.__setattr__(self, name, value)
            if self.subcommand not in COMMANDS:
                raise ConfigError(f"unknown subcommand {self.subcommand!r}")
            if not (0.0 <= self.u_min < self.u_max < math.inf):
                raise ConfigError("need 0 <= u_min < u_max < inf")
            if not (0.0 <= self.l_sq <= 1.0):
                raise ConfigError(f"l_sq must be in [0, 1], got {self.l_sq!r}")
            default_max = _default_r_max(self.l_sq)
            for name in ("r_a_max", "r_b_max"):
                value = getattr(self, name)
                if value is None:
                    continue
                if not (0.0 < value <= 1.0):
                    raise ConfigError(f"{name} must be in (0, 1], got {value!r}")
                if value > default_max + 1e-12:
                    raise ConfigError(f"{name}={value!r} exceeds sqrt(1 - l_sq) = {default_max!r}")
            if not self.phi3_values:
                raise ConfigError("phi3_values must not be empty")
            if self.preset is not None and self.preset not in PRESETS:
                raise ConfigError(
                    f"unknown preset {self.preset!r}; "
                    f"available: {', '.join(sorted(PRESETS))}"
                )
            # The table this subcommand writes, at its own width: r_a, r_b
            # and the map columns; u and one column per curve.
            name, values = {
                "eta-map": ("grid_count", self.grid_count**2 * 4),
                "xi-map": ("grid_count", self.grid_count**2 * (2 + len(self.phi3_values))),
                "decay-curve": ("u_count", self.u_count * (
                    1 + len(PRESETS[self.preset]) if self.preset is not None else 2)),
                "oracle-check": ("cases", self.cases * len(_ORACLE_COLUMNS)),
            }[self.subcommand]
            if values > MAX_TABLE_VALUES:
                raise ConfigError(f"{name}={getattr(self, name)} gives a table of "
                                  f"{values} values; the limit is {MAX_TABLE_VALUES}")
            _check_side(self.side)
            _check_alignment(self.alignment)
            for name in ("phi1", "phi2", "phi3", "phi4"):
                reduce_phase(getattr(self, name), name)
            for phase in self.phi3_values:
                reduce_phase(phase, "phi3_values")
            self.quadrature()
        except MirrorFieldError as exc:
            raise ConfigError(str(exc)) from exc

    def quadrature(self) -> QuadratureSpec:
        return QuadratureSpec(**{name: getattr(self, name) for name in _QUADRATURE_FIELDS})

    def interface(self) -> MirrorInterface:
        missing = [
            name for name in ("r_a", "t_a", "r_b", "t_b")
            if getattr(self, name) is None
        ]
        if missing:
            raise ConfigError(
                "custom curves need interface amplitudes; "
                f"missing: {', '.join(missing)}"
            )
        return validate_interface(**{name: getattr(self, name) for name in _INTERFACE_FIELDS})


def parse_angle(text: str) -> float:
    """Parse a float or a multiple of pi (``pi``, ``-pi/2``, ``0.25pi``).

    Every string ``float()`` accepts parses to the same value, so numbers
    written into a provenance line replay exactly.  A multiple of pi takes
    one leading sign at most and an unsigned divisor.
    """
    token = text.strip().lower()
    try:
        return float(token)
    except ValueError:
        pass
    sign = 1.0
    if token[:1] in ("+", "-"):
        sign = -1.0 if token[0] == "-" else 1.0
        token = token[1:]
    head, sep, tail = token.partition("pi")
    if not sep:
        raise ConfigError(f"cannot parse angle {text!r}")
    try:
        factor = float(head) if head else 1.0
        divisor = float(tail[1:]) if tail.startswith("/") else 1.0
        signed = head[:1] in ("+", "-") or tail[1:2] in ("+", "-")
        if (tail and not tail.startswith("/")) or divisor == 0.0 or signed:
            raise ValueError(tail)
    except ValueError as exc:
        raise ConfigError(f"cannot parse angle {text!r}") from exc
    return sign * factor * math.pi / divisor


def _parse_angles(text: str) -> tuple[float, ...]:
    return tuple(parse_angle(part) for part in text.split(","))


_VALUE_PARSERS = {
    "float": parse_angle,
    "int": int,
    "str": str,
    "tuple[float, ...]": _parse_angles,
}

#: Text parser for every settable :class:`SweepConfig` field, chosen by
#: the field's annotated type (``float | None`` parses as ``float``).
_SETTINGS = {
    item.name: _VALUE_PARSERS[item.type.split(" | ")[0]]
    for item in fields(SweepConfig)
    if item.name != "subcommand"
}


def split_settings(text: str, source: str = "settings") -> dict[str, str]:
    """Read flat ``key = value`` lines, ignoring blanks and # comments."""
    settings: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        if not sep:
            raise ConfigError(f"{source}:{lineno}: expected key = value")
        settings[key.strip()] = value.strip()
    return settings


def config_from_settings(subcommand: str, settings: Mapping[str, str]) -> SweepConfig:
    """Build a :class:`SweepConfig` from raw ``key -> text`` settings.

    Config files, command-line flags and provenance lines all reach a
    config through here.  Keys are the field names; unset fields keep
    their defaults.

    Raises
    ------
    ConfigError
        For an unknown subcommand or key, a key the subcommand does not
        read (see :data:`SUBCOMMAND_KEYS`; a preset fixes the coating and
        alignment), or a value its field cannot parse.
    """
    if subcommand not in SUBCOMMAND_KEYS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    preset = "preset" in settings
    read = _keys_read(subcommand, preset)
    values: dict[str, object] = {}
    for key, raw in settings.items():
        parse = _SETTINGS.get(key)
        if parse is None:
            raise ConfigError(f"unknown option {key!r}")
        if key not in read:
            reader = f"{subcommand} with a preset" if preset else subcommand
            raise ConfigError(f"{reader} does not read option {key!r}")
        try:
            values[key] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return SweepConfig(subcommand=subcommand, **values)


@dataclass(eq=False)
class ResultTable:
    """Rectangular float table plus its regeneration recipe: ``rows`` is one
    read-only float64 array of shape ``(n, len(columns))``, converted once
    when given as nested lists.  ``==`` compares identity."""

    columns: list[str]
    rows: np.ndarray
    provenance: str
    trailer: str | None = None

    def __post_init__(self) -> None:
        width = len(self.columns)
        try:
            rows = np.asarray(self.rows, dtype=float)
        except ValueError as exc:  # a ragged nested list
            raise ConfigError("table rows must match the column count") from exc
        except (TypeError, OverflowError) as exc:  # a complex, an object or an int beyond the float range
            raise ConfigError("table values must be real numbers within the float range") from exc
        if rows.shape == (0,):
            rows = rows.reshape(0, width)
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ConfigError("table rows must match the column count")
        finite = np.isfinite(rows)
        if not finite.all():
            raise ConfigError(f"table values must be finite, got {float(rows[~finite][0])!r}")
        # Read-only, so no value can turn non-finite after the check.
        rows.flags.writeable = False
        self.rows = rows

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]


def _csv_blocks(table: ResultTable) -> Iterator[str]:
    """The CSV text of ``table`` in pieces: the header lines, the body in
    blocks of :data:`CSV_BLOCK_ROWS` rows, then the trailer line if any.

    Each value is written as ``repr(float(value))``.  When at most half the
    cells hold distinct bit patterns (not distinct values: ``-0.0 == 0.0``
    but their texts differ), ``repr`` runs once per pattern, else per cell.
    """
    rows = table.rows
    yield f"# provenance: {table.provenance}\n{','.join(table.columns)}\n"
    row = ",".join(["%s"] * len(table.columns)) + "\n"
    bits, inverse = np.unique(rows.view(np.int64), return_inverse=True)
    # float.__repr__ reads each numpy scalar as the Python float it is, with
    # no list of Python floats alive at once; repr() would give "np.float64(...)".
    texts = (np.array(list(map(float.__repr__, bits.view(np.float64))), dtype=object)
             if 2 * len(bits) <= rows.size else None)
    # The inverse has the input's shape on some numpy versions, flat on others.
    inverse = None if texts is None else inverse.reshape(rows.shape)
    del bits
    for start in range(0, len(rows), CSV_BLOCK_ROWS):
        block = rows[start:start + CSV_BLOCK_ROWS]
        # One block's list of Python floats is small, and tolist is the fastest way to it.
        cells = (map(float.__repr__, block.ravel().tolist()) if texts is None
                 else texts[inverse[start:start + CSV_BLOCK_ROWS].ravel()])
        yield row * len(block) % tuple(cells)
    if table.trailer:
        yield f"# {table.trailer}\n"


def format_csv(table: ResultTable) -> str:
    """Serialise with a provenance header, repr floats and LF endings."""
    return "".join(_csv_blocks(table))


def write_csv(table: ResultTable, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as stream:
        stream.writelines(_csv_blocks(table))


def parse_csv(text: str) -> ResultTable:
    """Inverse of :func:`format_csv`."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# provenance: "):
        raise ConfigError("missing provenance header")
    if len(lines) < 2:
        raise ConfigError("missing column header")
    provenance = lines[0][len("# provenance: "):]
    body = lines[2:]
    trailer = None
    if body and body[-1].startswith("# "):
        trailer = body.pop()[2:]
    columns = lines[1].split(",")
    try:
        rows = [[float(token) for token in line.split(",")] for line in body]
    except ValueError as exc:
        raise ConfigError(f"non-numeric table cell: {exc}") from exc
    return ResultTable(columns=columns, rows=rows, provenance=provenance, trailer=trailer)


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
    return str(value)


def _provenance(config: SweepConfig, **resolved) -> str:
    """Every setting the command read, with ``resolved`` replacing the
    values it worked out itself; unset (None) settings are left out."""
    parts = [config.subcommand]
    for key in _keys_read(config.subcommand, config.preset is not None):
        value = resolved.get(key, getattr(config, key))
        if value is not None:
            parts.append(f"{key}={_format_value(value)}")
    return " ".join(parts)


def replay_provenance(provenance: str) -> ResultTable:
    """Regenerate the table described by a provenance line: a subcommand,
    then ``key=value`` tokens, each read as a line of a config file."""
    subcommand, *tokens = provenance.split() or [""]
    config = config_from_settings(subcommand, split_settings("\n".join(tokens), "provenance"))
    return COMMANDS[subcommand](config)


def _default_r_max(l_sq: float) -> float:
    """The maps' default and largest ``r_a_max`` and ``r_b_max``: ``sqrt(1 - l_sq)``."""
    return math.sqrt(max(0.0, 1.0 - l_sq))


def _map_grid(config: SweepConfig) -> tuple[MirrorInterface, np.ndarray, np.ndarray, str]:
    """The row-major (r_a, r_b) grid at fixed loss as one array-valued
    coating, with its r_a and r_b columns and the table's provenance."""
    loss = math.sqrt(config.l_sq)
    default_max = _default_r_max(config.l_sq)
    r_a_max = default_max if config.r_a_max is None else config.r_a_max
    r_b_max = default_max if config.r_b_max is None else config.r_b_max
    count = config.grid_count
    r_a = np.repeat(np.linspace(0.0, r_a_max, count), count)
    r_b = np.tile(np.linspace(0.0, r_b_max, count), count)
    side_a, side_b = (
        SideCoefficients(r, np.sqrt(np.maximum(0.0, 1.0 - r * r - loss * loss)), loss)
        for r in (r_a, r_b)
    )
    provenance = _provenance(config, r_a_max=float(r_a[-1]), r_b_max=float(r_b[-1]))
    return MirrorInterface(side_a, side_b), r_a, r_b, provenance


def cmd_eta_map(config: SweepConfig) -> ResultTable:
    """Normalisation constants on an (r_a, r_b) grid at fixed loss."""
    coating, r_a, r_b, provenance = _map_grid(config)
    return ResultTable(
        columns=["r_a", "r_b", "eta_a_sq", "eta_b_sq"],
        rows=np.column_stack((r_a, r_b, *normalisation_constants(coating))),
        provenance=provenance,
    )


def cmd_xi_map(config: SweepConfig) -> ResultTable:
    """Mirror parameter on an (r_a, r_b) grid for each requested phase."""
    coating, r_a, r_b, provenance = _map_grid(config)
    xi = [mirror_parameter(replace(coating, phi3=p), "a") for p in config.phi3_values]
    return ResultTable(
        columns=["r_a", "r_b"] + [f"xi_phi3={repr(p)}" for p in config.phi3_values],
        rows=np.column_stack((r_a, r_b, *xi)),
        provenance=provenance,
    )


def _side(r_sq: float, l_sq: float) -> SideCoefficients:
    """A side that reflects ``r_sq`` of the energy, loses ``l_sq`` and transmits the rest."""
    return SideCoefficients(math.sqrt(r_sq), math.sqrt(max(0.0, 1.0 - r_sq - l_sq)), math.sqrt(l_sq))


def _coating(r_sq: float, l_a_sq: float, l_b_sq: float, phase: float) -> MirrorInterface:
    """Both sides reflect ``r_sq``, each loses its own share; ``phase`` is both reflection phases."""
    return MirrorInterface(_side(r_sq, l_a_sq), _side(r_sq, l_b_sq), phi1=phase, phi3=phase)


#: The paper's curve families (figures 4-7), each a list of curves
#: ``(column label, r_sq, l_a_sq, l_b_sq, phase, alignment)``: the first
#: four numbers are the arguments of :func:`_coating`.
PRESETS = {
    "fig4": [
        (f"xi={xi:+.2f}_d1sq={int(alignment)}", r * r, 0.0, 0.0, phase, alignment)
        for xi, phase in ((-1.5, math.pi), (-0.75, math.pi), (0.75, 0.0), (1.5, 0.0))
        for r in (2.0 * abs(xi) / 3.0,)
        for alignment in (0.0, 1.0)
    ],
    "fig5a": [(f"r={r:.1f}", r * r, 0.0, 0.0, math.pi, 0.0) for r in (0.2, 0.4, 0.6, 0.8, 1.0)],
    "fig5b": [
        (f"rsq={r_sq}_phi3={token}", r_sq, 0.9, 0.9, phase, 0.0)
        for phase, token in ((math.pi, "pi"), (0.0, "0"))
        for r_sq in (0.025, 0.05, 0.075, 0.1)
    ],
    "fig6": [(f"lsq={l_sq:.1f}", 0.4, l_sq, l_sq, math.pi, 0.0) for l_sq in (0.0, 0.2, 0.4, 0.6)],
    # The far side transmits nothing, so the emitter-side loss sweep
    # leaves the rate untouched.
    "fig7a": [(f"la_sq={l_sq:.1f}", 0.4, l_sq, 0.6, math.pi, 0.0) for l_sq in (0.0, 0.2, 0.4)],
    "fig7b": [(f"lb_sq={l_sq:.1f}", 0.4, 0.6, l_sq, math.pi, 0.0) for l_sq in (0.0, 0.2, 0.4)],
}


def cmd_decay_curve(config: SweepConfig) -> ResultTable:
    """Decay-rate ratio against ``u`` for a preset family or custom coating."""
    from .rates import sample_decay_curve

    u_values = np.linspace(config.u_min, config.u_max, config.u_count)
    if config.preset is not None:
        curves = [(label, _coating(*coating), alignment)
                  for label, *coating, alignment in PRESETS[config.preset]]
    else:
        reference = "gamma_air" if config.side == "a" else "gamma_med"
        curves = [(f"ratio_vs_{reference}", config.interface(), config.alignment)]
    columns = ["u"] + [label for label, _, _ in curves]
    ratios = [
        sample_decay_curve(interface, config.side, alignment, u_values).ratio
        for _, interface, alignment in curves
    ]
    return ResultTable(
        columns=columns,
        rows=np.column_stack((u_values, *ratios)),
        provenance=_provenance(config),
    )


def _random_side(rng: np.random.Generator) -> SideCoefficients:
    while True:
        r_sq = float(rng.uniform(0.0, 1.0))
        l_sq = float(rng.uniform(0.0, 1.0 - r_sq))
        # Keep 1 + r^2 - t^2 = 2 r^2 + l^2 clear of the degeneracy cut.
        if 2.0 * r_sq + l_sq > 1e-6:
            return _side(r_sq, l_sq)


def _random_interface(rng: np.random.Generator) -> MirrorInterface:
    side_a = _random_side(rng)
    side_b = _random_side(rng)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=4)
    return MirrorInterface(side_a, side_b, *map(float, phases))


def _random_dipole(rng: np.random.Generator) -> DipoleOrientation:
    from .rates import DipoleOrientation

    while True:
        parts = rng.normal(size=3) + 1j * rng.normal(size=3)
        if np.linalg.norm(parts) > 1e-6:
            return DipoleOrientation.from_components(*parts)


@dataclass(frozen=True)
class OracleCase:
    """One deterministic pseudo-random oracle configuration, of a coating of one cell."""

    index: int
    interface: MirrorInterface
    side: str
    dipole: DipoleOrientation
    u: float

    def __post_init__(self) -> None:
        _check_one_cell(self.interface)
        _check_side(self.side)
        check_finite(self, "index", "u")


def seeded_oracle_cases(seed: int, count: int) -> list[OracleCase]:
    """Deterministic case list shared by the CLI sweep and the test suite.

    ``count`` is bounded like the ``cases`` setting: its ``oracle-check``
    table must stay within :data:`MAX_TABLE_VALUES`.
    """
    seed, count = check_count("seed", seed, 0), check_count("count", count, 0)
    most = MAX_TABLE_VALUES // len(_ORACLE_COLUMNS)
    if count > most:
        raise DomainError(f"count must be <= {most}, got {count!r}")
    rng = np.random.default_rng(seed)
    cases = []
    for index in range(count):
        interface = _random_interface(rng)
        side = "a" if int(rng.integers(0, 2)) == 0 else "b"
        dipole = _random_dipole(rng)
        u = ORACLE_U_VALUES[index % len(ORACLE_U_VALUES)]
        cases.append(OracleCase(index, interface, side, dipole, u))
    return cases


def cmd_oracle_check(config: SweepConfig) -> ResultTable:
    """Closed form against both oracles on a seeded random grid.

    A case fails (``ok = 0``) when ``max_rel_error`` exceeds the spec's
    ``rel_tolerance`` or its quadrature gives up; such a row holds the
    sentinel :data:`FAILED_VALUE` rather than aborting the sweep.
    """
    from .oracle import oracle_compare

    spec = config.quadrature()
    rows = []
    for case in seeded_oracle_cases(config.seed, config.cases):
        try:
            report = oracle_compare(case.interface, case.side, case.dipole, case.u, spec)
        except QuadratureBudgetExceeded:
            ok = 0.0
            row_values = (FAILED_VALUE, FAILED_VALUE, FAILED_VALUE, FAILED_VALUE)
        else:
            ok = 1.0 if report.max_rel_error <= spec.rel_tolerance else 0.0
            row_values = (
                report.closed_form,
                report.oracle_2d,
                report.oracle_1d,
                report.max_rel_error,
            )
        side_is_b = 0.0 if case.side == "a" else 1.0
        rows.append([float(case.index), side_is_b, case.u, case.dipole.alignment, *row_values, ok])
    table = ResultTable(columns=list(_ORACLE_COLUMNS), rows=rows, provenance=_provenance(config))
    # Sentinel rows hold -1.0, below every measured error.
    worst = float(table.column("max_rel_error").max(initial=0.0))
    table.trailer = (
        f"summary: cases={config.cases} failures={oracle_failures(table)} "
        f"worst_max_rel_error={worst!r}"
    )
    return table


COMMANDS = {
    "eta-map": cmd_eta_map,
    "xi-map": cmd_xi_map,
    "decay-curve": cmd_decay_curve,
    "oracle-check": cmd_oracle_check,
}


def oracle_failures(table: ResultTable) -> int:
    """Count failed rows of an oracle-check table."""
    return int(np.count_nonzero(table.column("ok") == 0.0))
