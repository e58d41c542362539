"""The typed-error contract: every public function and constructor meets any
float argument, inf, nan and -0.0 included, with a finite result or a
:class:`MirrorFieldError`; the rate path also refuses arguments of the wrong
kind, and public counts are bounded."""

import dataclasses
import functools
import inspect
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mirrorfield
from mirrorfield import (
    CODATA2018,
    NATURAL_UNITS,
    AtomParams,
    ConfigError,
    DecayRateCurve,
    DipoleOrientation,
    DomainError,
    Medium,
    MirrorFieldError,
    MirrorInterface,
    OracleCase,
    OracleReport,
    PhysicalConstants,
    QuadratureSpec,
    ResultTable,
    SideCoefficients,
    SideRateTerms,
    SweepConfig,
    decay_rate_1d_oracle,
    decay_rate_2d_oracle,
    format_csv,
    gamma_air,
    gamma_med,
    lossless_interface,
    mirror_parameter,
    normalisation_constants,
    oracle_compare,
    oscillatory_bracket,
    panel_count,
    parse_csv,
    refractive_index,
    relative_decay_rate,
    replay_provenance,
    sample_decay_curve,
    seeded_oracle_cases,
    side_rate_terms,
    unnormalised_decay_rate,
    validate_interface,
    write_csv,
)
from mirrorfield.interface import as_real
from mirrorfield.sweep import COMMANDS, MAX_TABLE_VALUES, SUBCOMMAND_KEYS

COATING = (0.5, 0.6, None, 0.4, 0.7, None, 0.3, 0.4)
IFACE = validate_interface(*COATING)
DIPOLE = DipoleOrientation.from_components(0.3, 0.5j, 0.8)
MEDIUM = (2.25, 1.0)
ATOM = (2.0, 0.5)
SPEC = dict(panels_per_oscillation=4, points_per_panel=16, min_panels=8, rel_tolerance=1e-9)

#: A working setting for every key, small enough to run in milliseconds.
SWEEP = {
    "eta-map": dict(grid_count=3),
    "xi-map": dict(grid_count=3),
    "decay-curve": dict(r_a=0.5, t_a=0.6, r_b=0.4, t_b=0.7, u_count=5),
    "oracle-check": dict(cases=1),
}


def slots(call, *defaults):
    """One call per argument position: ``x`` there, ``defaults`` elsewhere."""
    return [
        lambda x, i=i: call(*defaults[:i], x, *defaults[i + 1:])
        for i in range(len(defaults))
    ]


def oracle_u(call):
    """``call`` for every ``x`` but finite ones above 10, which it skips."""
    return lambda x: None if math.isfinite(x) and x > 10.0 else call(x)


def coating_slots(use):
    return slots(lambda *values: use(validate_interface(*values)), *COATING)


#: The numeric settings of every subcommand, each once per subcommand.
NUMERIC_SETTINGS = [
    (subcommand, key)
    for subcommand, keys in SUBCOMMAND_KEYS.items()
    for key in keys
    if key not in ("preset", "side")
]
SETTING_IDS = [f"{subcommand}-{key}" for subcommand, key in NUMERIC_SETTINGS]


def sweep_slots():
    calls = []
    for subcommand, key in NUMERIC_SETTINGS:

        def run(x, subcommand=subcommand, key=key):
            value = (x,) if key == "phi3_values" else x
            config = SweepConfig(subcommand, **{**SWEEP[subcommand], key: value})
            return COMMANDS[subcommand](config)

        calls.append(run)
    return calls


#: Public name -> calls of one float each.
CALLS = {
    "AtomParams": slots(AtomParams, *ATOM),
    "DecayRateCurve": slots(
        lambda alignment, u0, u1, ratio: DecayRateCurve("a", alignment, [u0, u1], [ratio, 1.0]),
        0.5, 1.0, 2.0, 1.0,
    ),
    "DipoleOrientation": (
        slots(DipoleOrientation, 0.6, 0.8, 0.0)
        + slots(DipoleOrientation.from_components, 0.3, 0.5j, 0.8)
        + [DipoleOrientation.aligned]
    ),
    "Medium": slots(Medium, *MEDIUM),
    "MirrorInterface": slots(
        lambda *phases: MirrorInterface(IFACE.side_a, IFACE.side_b, *phases), 0.3, 0.4
    ),
    "OracleCase": slots(lambda index, u: OracleCase(index, IFACE, "a", DIPOLE, u), 0, 1.0),
    "OracleReport": slots(
        lambda u, alignment, *values: OracleReport(u, alignment, "a", *values),
        1.0, 0.5, 1.1, 1.1, 1.1, 0.0,
    ),
    "PhysicalConstants": slots(PhysicalConstants, 1.0, 1.0, 1.0, 1.0, 1.0),
    # Each spec is used, so a field the oracle cannot use shows too.
    "QuadratureSpec": slots(
        lambda *values: decay_rate_1d_oracle(IFACE, "a", 0.5, 1.0, QuadratureSpec(*values)),
        *SPEC.values(),
    ),
    "ResultTable": slots(lambda a, b: ResultTable(["a", "b"], [[a, b]], "p"), 1.0, 2.0),
    "SideCoefficients": (
        slots(SideCoefficients, 0.6, 0.8, 0.0)
        + slots(SideCoefficients, 0.6, 0.7)
    ),
    "SideRateTerms": slots(SideRateTerms, 0.5, 0.1, 0.5, 2.0, 2.0),
    # A config is checked when it is built, then its command runs.
    "SweepConfig": sweep_slots(),
    "decay_rate_1d_oracle": [
        lambda x: decay_rate_1d_oracle(IFACE, "b", x, 1.0),
        oracle_u(lambda x: decay_rate_1d_oracle(IFACE, "b", 0.5, x)),
    ],
    "decay_rate_2d_oracle": [
        oracle_u(lambda x: decay_rate_2d_oracle(IFACE, "a", DIPOLE, x)),
        lambda x: decay_rate_2d_oracle(
            IFACE, "a", DipoleOrientation.from_components(x, 0.5j, 0.8), 1.0
        ),
    ],
    "format_csv": [lambda x: format_csv(ResultTable(["a"], [[x]], "p"))],
    "gamma_air": (
        slots(lambda *atom: gamma_air(AtomParams(*atom), NATURAL_UNITS), *ATOM)
        + slots(lambda *atom: gamma_air(AtomParams(*atom), CODATA2018), 1e15, 1e-29)
    ),
    "gamma_med": (
        slots(lambda *atom: gamma_med(AtomParams(*atom), NATURAL_UNITS, Medium(*MEDIUM)), *ATOM)
        + slots(lambda *medium: gamma_med(AtomParams(*ATOM), NATURAL_UNITS, Medium(*medium)),
                *MEDIUM)
    ),
    "lossless_interface": slots(lossless_interface, 0.5, 0.1, 0.3),
    "mirror_parameter": coating_slots(lambda iface: mirror_parameter(iface, "b")),
    "normalisation_constants": coating_slots(normalisation_constants),
    "oracle_compare": [oracle_u(lambda x: oracle_compare(IFACE, "b", DIPOLE, x))],
    "oscillatory_bracket": slots(oscillatory_bracket, 2.0, 0.5),
    "panel_count": [lambda x: panel_count(x, QuadratureSpec())],
    "parse_csv": [lambda x: parse_csv(f"# provenance: p\na,b\n1.0,{x!r}\n")],
    "refractive_index": slots(lambda *medium: refractive_index(Medium(*medium)), *MEDIUM),
    "relative_decay_rate": (
        slots(lambda alignment, u: relative_decay_rate(IFACE, "a", alignment, u), 0.5, 2.0)
        + coating_slots(lambda iface: relative_decay_rate(iface, "b", 0.5, 2.0))
    ),
    "replay_provenance": [
        lambda x: replay_provenance(f"eta-map grid_count=3 l_sq={x!r}"),
        lambda x: replay_provenance(f"xi-map grid_count=3 phi3_values=0,{x!r}"),
        lambda x: replay_provenance(f"decay-curve preset=fig4 u_count=5 u_max={x!r}"),
        lambda x: replay_provenance(f"oracle-check cases=1 rel_tolerance={x!r}"),
    ],
    "sample_decay_curve": slots(
        lambda alignment, *u: sample_decay_curve(IFACE, "a", alignment, u), 0.5, 1.0, 2.0
    ),
    "seeded_oracle_cases": slots(seeded_oracle_cases, 1, 2),
    "side_rate_terms": coating_slots(lambda iface: side_rate_terms(iface, "a")),
    "unnormalised_decay_rate": slots(
        lambda alignment, u: unnormalised_decay_rate(IFACE, "b", alignment, u), 0.5, 2.0
    ),
    "validate_interface": slots(validate_interface, *COATING),
    "write_csv": [lambda x: write_csv(ResultTable(["a"], [[x]], "p"), os.devnull)],
}


def finite(value) -> bool:
    """Whether every number in ``value``, a result or record, is finite."""
    if value is None or isinstance(value, (str, int)):
        return True
    if isinstance(value, (float, complex, np.ndarray, np.generic)):
        return bool(np.isfinite(value).all())
    if isinstance(value, (list, tuple)):
        return all(map(finite, value))
    if dataclasses.is_dataclass(value):
        return all(finite(getattr(value, item.name)) for item in dataclasses.fields(value))
    raise AssertionError(f"no finiteness rule for {type(value).__name__}")


def test_every_public_callable_is_covered():
    public = {
        name for name in mirrorfield.__all__
        if callable(getattr(mirrorfield, name))
        and not (inspect.isclass(getattr(mirrorfield, name))
                 and issubclass(getattr(mirrorfield, name), MirrorFieldError))
    }
    assert public == set(CALLS)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.floats())
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(-0.0)
@example(0.0)
@example(1e308)
@example(-1e308)
def test_finite_value_or_typed_error(x):
    for name, calls in CALLS.items():
        for slot, call in enumerate(calls):
            try:
                result = call(x)
            except MirrorFieldError:
                continue
            except Exception as error:
                pytest.fail(f"{name}, call {slot}, x={x!r}: {error!r}")
            assert finite(result), f"{name}, call {slot}, x={x!r}: {result!r}"


class TestCounts:
    @pytest.mark.parametrize("field", ["panels_per_oscillation", "points_per_panel", "min_panels"])
    @pytest.mark.parametrize("value", [16.0, 1.5, math.nan, True])
    def test_quadrature_counts_must_be_integers(self, field, value):
        with pytest.raises(DomainError, match=field):
            QuadratureSpec(**{field: value})

    @pytest.mark.parametrize("seed,count", [(-1, 2), (1, -1), (1.0, 2), (1, 2.0), (True, 2)])
    def test_seeded_cases_need_non_negative_integers(self, seed, count):
        with pytest.raises(DomainError):
            seeded_oracle_cases(seed, count)

    def test_numpy_integers_are_counts(self):
        spec = QuadratureSpec(points_per_panel=np.int64(8))
        assert panel_count(1.0, spec) == 8
        assert len(seeded_oracle_cases(np.int64(1), np.int64(2))) == 2


@pytest.mark.parametrize(
    "build",
    [
        lambda side: DecayRateCurve(side, 0.5, [1.0, 2.0], [1.0, 1.0]),
        lambda side: OracleReport(1.0, 0.5, side, 1.0, 1.0, 1.0, 0.0),
        lambda side: OracleCase(0, IFACE, side, DIPOLE, 1.0),
    ],
    ids=["DecayRateCurve", "OracleReport", "OracleCase"],
)
def test_record_side_must_be_a_or_b(build):
    for side in ("a", "b"):
        assert build(side).side == side
    for side in ("z", np.array(["a", "b"]), np.array(["a"])):
        with pytest.raises(DomainError, match="side must be 'a' or 'b'"):
            build(side)


#: Arguments of a kind the rate path does not take: not a real number or an
#: array of real numbers (u), or not one real number (alignment, oracle u).
BAD_U = ["1", ["1", "2"], True, [1.0, True], 1 + 1j, [[1.0], [1.0, 2.0]], np.array(["1", "2"]),
         np.array([1.0, None])]
BAD_ALIGNMENT = ["0.3", [0.1, 0.2], np.array([0.1, 0.2]), None, True, 1 + 0j]
RATE_CALLS = {
    "relative_decay_rate": lambda alignment, u: relative_decay_rate(IFACE, "a", alignment, u),
    "unnormalised_decay_rate": lambda alignment, u: unnormalised_decay_rate(IFACE, "a", alignment, u),
    "oscillatory_bracket": lambda alignment, u: oscillatory_bracket(u, alignment),
    "sample_decay_curve": lambda alignment, u: sample_decay_curve(IFACE, "a", alignment, u),
    "DecayRateCurve": lambda alignment, u: DecayRateCurve("a", alignment, u, [1.0, 1.0]),
}

REAL = "must be a real number"

#: An array coating of two cells and one of one cell, which only the oracles refuse.
TWO_CELLS = validate_interface(np.array([0.5, 0.6]), *COATING[1:])
ONE_CELL = validate_interface(np.array([0.5]), *COATING[1:])
ONE_CELL_ONLY = "the oracles take a coating of one cell"

#: Constructor arguments of the wrong kind, each with the error and message
#: it raises: a str, bool (also inside a list), complex, None, ragged list
#: or, for a scalar, an array; amplitudes, coating sides or a coating and
#: ``u`` whose cells do not broadcast, an array coating for the oracles,
#: curve columns of two lengths; a side that is not a str; table values
#: that are not real or leave the float range, a table of no columns, table
#: text that its CSV cannot carry, and a CSV or provenance line that is not
#: text.
BAD_CONSTRUCTIONS = {
    "SideCoefficients str": (lambda: SideCoefficients("0.6", "0.8", "0"), DomainError, REAL),
    "SideCoefficients bool": (lambda: SideCoefficients(True, False, 0.0), DomainError, REAL),
    "SideCoefficients complex": (lambda: SideCoefficients(0.6 + 0j, 0.8, 0.0), DomainError, REAL),
    "SideCoefficients ragged": (lambda: SideCoefficients([[0.6], [0.6, 0.6]], 0.8, 0.0), DomainError, REAL),
    "SideCoefficients shapes": (
        lambda: SideCoefficients([0.6, 0.8], [0.8, 0.6, 0.0], 0.0), DomainError, "do not broadcast"
    ),
    "as_real nested bool": (lambda: as_real("r", [True, 0.5]), DomainError, REAL),
    "SideCoefficients nested bool": (lambda: SideCoefficients([False, 0.6], 0.8), DomainError, REAL),
    "SideCoefficients implied-loss str": (lambda: SideCoefficients("0.6", "0.8"), DomainError, REAL),
    "SideCoefficients implied-loss shapes": (
        lambda: SideCoefficients([0.6, 0.8], [0.8, 0.6, 0.0]), DomainError, "do not broadcast"
    ),
    "lossless_interface str": (lambda: lossless_interface("0.5"), DomainError, REAL),
    "aligned bool": (lambda: DipoleOrientation.aligned(True), DomainError, REAL),
    "aligned str": (lambda: DipoleOrientation.aligned("0.3"), DomainError, REAL),
    "DipoleOrientation str": (lambda: DipoleOrientation("1", 0, 0), DomainError, "d1 must be a real or complex"),
    "DipoleOrientation bool": (lambda: DipoleOrientation(True, 0, 0), DomainError, "d1 must be a real or complex"),
    "DipoleOrientation ragged": (
        lambda: DipoleOrientation([[1.0], [1.0, 2.0]], 0, 0), DomainError, "d1 must be a real or complex"
    ),
    "DecayRateCurve lengths": (lambda: DecayRateCurve("a", 0.5, [1.0, 2.0], [1.0]), DomainError, "one length"),
    "from_components str": (
        lambda: DipoleOrientation.from_components("1", 0, 0), DomainError, "d1 must be a real or complex"
    ),
    "Medium str": (lambda: Medium("2", 1.0), DomainError, REAL),
    "AtomParams str": (lambda: AtomParams("1", 1.0), DomainError, REAL),
    "PhysicalConstants str": (lambda: PhysicalConstants("1", 1, 1, 1, 1), DomainError, f"hbar {REAL}"),
    "PhysicalConstants bool": (lambda: PhysicalConstants(True, 1, 1, 1, 1), DomainError, f"hbar {REAL}"),
    "PhysicalConstants array": (
        lambda: PhysicalConstants(1, 1, 1, np.array([1.0, 1.0]), 1), DomainError, f"c0 {REAL}"
    ),
    "QuadratureSpec str": (lambda: QuadratureSpec(rel_tolerance="1e-9"), DomainError, f"rel_tolerance {REAL}"),
    "QuadratureSpec bool": (lambda: QuadratureSpec(rel_tolerance=True), DomainError, f"rel_tolerance {REAL}"),
    "QuadratureSpec array": (
        lambda: QuadratureSpec(rel_tolerance=np.array([1e-9, 1e-9])), DomainError, f"rel_tolerance {REAL}"
    ),
    "phi1 str": (lambda: validate_interface(*COATING[:6], phi1="1"), DomainError, REAL),
    "phi3 array": (lambda: validate_interface(*COATING[:6], phi3=np.array([1.0, 2.0])), DomainError, REAL),
    "SideRateTerms str": (lambda: SideRateTerms("0.5", 0.0, 0.5, 2.0, 2.0), DomainError, f"r {REAL}"),
    "OracleCase None": (lambda: OracleCase(0, IFACE, "a", DIPOLE, None), DomainError, f"u {REAL}"),
    "OracleReport ragged": (
        lambda: OracleReport([[1.0], [1.0, 2.0]], 0.5, "a", 1.0, 1.0, 1.0, 0.0), DomainError, f"u {REAL}"
    ),
    "ResultTable complex": (lambda: ResultTable(["x"], [[1j]], "p"), ConfigError, "must be real numbers"),
    "ResultTable object": (lambda: ResultTable(["x"], [[object()]], "p"), ConfigError, "must be real numbers"),
    "ResultTable huge int": (lambda: ResultTable(["x"], [[10**400]], "p"), ConfigError, "within the float range"),
    "ResultTable str": (lambda: ResultTable(["x"], [["2.5"]], "p"), ConfigError, "must be real numbers"),
    "ResultTable bool": (lambda: ResultTable(["x"], [[True]], "p"), ConfigError, "must be real numbers"),
    "ResultTable nested bool": (
        lambda: ResultTable(["a", "b"], [[True, 2.5]], "p"), ConfigError, "real numbers within the float range"
    ),
    "ResultTable no columns": (lambda: ResultTable([], [], "p"), ConfigError, "at least one column"),
    "ResultTable no columns, rows": (
        lambda: ResultTable([], np.empty((3, 0)), "p"), ConfigError, "at least one column"
    ),
    "parse_csv bytes": (lambda: parse_csv(b"# provenance: x\na\n1\n"), ConfigError, "a CSV must be text"),
    "replay_provenance int": (lambda: replay_provenance(5), ConfigError, "a provenance line must be text"),
    "ResultTable non-ASCII column": (lambda: ResultTable(["é"], [[1.0]], "p"), ConfigError, "printable ASCII"),
    "ResultTable column line separator": (
        lambda: ResultTable(["x\x85"], [[1.0]], "p"), ConfigError, "printable ASCII"
    ),
    "ResultTable column comma": (lambda: ResultTable(["x,y"], [[1.0]], "p"), ConfigError, "must not hold a comma"),
    "ResultTable provenance line break": (
        lambda: ResultTable(["x"], [[1.0]], "p\nq"), ConfigError, "printable ASCII"
    ),
    "ResultTable trailer line break": (
        lambda: ResultTable(["x"], [[1.0]], "p", "t\nu"), ConfigError, "printable ASCII"
    ),
    "relative_decay_rate side array": (
        lambda: relative_decay_rate(IFACE, np.array(["a", "b"]), 0.3, 1.0), DomainError, "side must be"
    ),
    "side_rate_terms side array": (lambda: side_rate_terms(IFACE, np.array(["a"])), DomainError, "side must be"),
    "MirrorInterface cells": (
        lambda: MirrorInterface(SideCoefficients(np.array([0.5, 0.6]), 0.5),
                                SideCoefficients(np.array([0.5, 0.5, 0.5]), 0.5)),
        DomainError, "cells of the two sides do not broadcast",
    ),
    "relative_decay_rate cells": (
        lambda: relative_decay_rate(TWO_CELLS, "a", 0.3, np.ones(3)), DomainError, "do not broadcast"
    ),
    "unnormalised_decay_rate cells": (
        lambda: unnormalised_decay_rate(TWO_CELLS, "a", 0.3, np.ones(3)), DomainError, "do not broadcast"
    ),
    "sample_decay_curve cells": (
        lambda: sample_decay_curve(TWO_CELLS, "a", 0.3, np.ones(3)), DomainError, "do not broadcast"
    ),
    **{
        f"{name} {cells}": (functools.partial(call, coating), DomainError, ONE_CELL_ONLY)
        for cells, coating in (("two cells", TWO_CELLS), ("one cell", ONE_CELL))
        for name, call in (
            ("decay_rate_2d_oracle", lambda coating: decay_rate_2d_oracle(coating, "a", DIPOLE, 1.0)),
            ("decay_rate_1d_oracle", lambda coating: decay_rate_1d_oracle(coating, "a", 0.3, 1.0)),
            ("oracle_compare", lambda coating: oracle_compare(coating, "a", DIPOLE, 1.0)),
            ("OracleCase", lambda coating: OracleCase(0, coating, "a", DIPOLE, 1.0)),
        )
    },
}


class TestArgumentKinds:
    @pytest.mark.parametrize("call", RATE_CALLS.values(), ids=RATE_CALLS)
    @pytest.mark.parametrize("u", BAD_U, ids=repr)
    def test_u_must_be_real(self, call, u):
        with pytest.raises(DomainError, match="u must be a real number or an array of real numbers"):
            call(0.3, u)

    @pytest.mark.parametrize("call", RATE_CALLS.values(), ids=RATE_CALLS)
    @pytest.mark.parametrize("alignment", BAD_ALIGNMENT, ids=repr)
    def test_alignment_must_be_one_real_number(self, call, alignment):
        with pytest.raises(DomainError, match="alignment must be a real number"):
            call(alignment, [1.0, 2.0])

    @pytest.mark.parametrize(
        "oracle",
        [
            lambda u: decay_rate_2d_oracle(IFACE, "a", DIPOLE, u),
            lambda u: decay_rate_1d_oracle(IFACE, "a", 0.3, u),
            lambda u: oracle_compare(IFACE, "a", DIPOLE, u),
            lambda u: panel_count(u, QuadratureSpec()),
        ],
        ids=["decay_rate_2d_oracle", "decay_rate_1d_oracle", "oracle_compare", "panel_count"],
    )
    @pytest.mark.parametrize("u", [[1.0, 2.0], np.array([1.0]), "1", True], ids=repr)
    def test_oracle_u_must_be_one_real_number(self, oracle, u):
        with pytest.raises(DomainError, match="u must be a real number"):
            oracle(u)

    def test_real_kinds_keep_their_values(self):
        for u in (2, np.int32(2), np.uint8(2), np.float32(2.0), [1, 2], np.arange(1, 3)):
            assert np.array_equal(relative_decay_rate(IFACE, "a", 0.3, u),
                                  relative_decay_rate(IFACE, "a", 0.3, np.asarray(u, dtype=float)))
        assert relative_decay_rate(IFACE, "a", 1, 2.0) == relative_decay_rate(IFACE, "a", 1.0, 2.0)
        assert relative_decay_rate(IFACE, "a", np.array(0.3), 2.0) == relative_decay_rate(IFACE, "a", 0.3, 2.0)
        assert decay_rate_1d_oracle(IFACE, "a", 0.3, np.float64(1.0)) == decay_rate_1d_oracle(IFACE, "a", 0.3, 1)

    @pytest.mark.parametrize("build, error, match", BAD_CONSTRUCTIONS.values(), ids=BAD_CONSTRUCTIONS)
    def test_constructor_arguments_must_be_real(self, build, error, match):
        with pytest.raises(error, match=match):
            build()

    def test_constructors_take_real_kinds_as_floats(self):
        assert SideCoefficients(np.int64(1), 0, np.uint8(0)) == SideCoefficients(1.0, 0.0, 0.0)
        assert Medium(np.int32(2), 1) == Medium(2.0, 1.0)
        assert type(Medium(np.float32(2.0)).eps_rel) is float
        assert AtomParams(np.int64(2), np.float32(0.5)) == AtomParams(2.0, 0.5)
        assert DipoleOrientation.aligned(np.int8(1)) == DipoleOrientation.aligned(1.0)
        assert MirrorInterface(IFACE.side_a, IFACE.side_b, phi3=np.float64(0.4)).phi3 == 0.4
        assert type(MirrorInterface(IFACE.side_a, IFACE.side_b, phi1=np.array(1.0)).phi1) is float
        assert PhysicalConstants(np.int64(1), 1, 1, np.float32(1.0), 1) == NATURAL_UNITS
        assert type(PhysicalConstants(1, 1, 1, 1, 1).hbar) is float
        assert type(QuadratureSpec(rel_tolerance=np.float32(0.5)).rel_tolerance) is float
        assert DipoleOrientation(np.int8(1), 0, np.complex64(0)).alignment == 1.0


def test_seeded_cases_are_bounded_before_drawing():
    # The 9-column oracle-check table of this many cases would pass the
    # table limit; the count is refused before any case is drawn.
    with pytest.raises(DomainError, match="count must be <="):
        seeded_oracle_cases(1, 10**12)
    limit = MAX_TABLE_VALUES // 9
    with pytest.raises(DomainError, match="count must be <="):
        seeded_oracle_cases(1, limit + 1)
    with pytest.raises(ConfigError, match="limit"):
        SweepConfig("oracle-check", cases=limit + 1)
    SweepConfig("oracle-check", cases=limit)


def test_table_size_checks_read_the_table_widths():
    # fig4's 8 curves plus u make the widest decay-curve table, 9 columns.
    limit = MAX_TABLE_VALUES // 9
    with pytest.raises(ConfigError, match="limit"):
        SweepConfig("decay-curve", preset="fig4", u_count=limit + 1)
    SweepConfig("decay-curve", u_count=limit)
    # A custom coating's table is u and one curve; fig7a's is u and 3 curves.
    half = MAX_TABLE_VALUES // 2
    SweepConfig("decay-curve", u_count=half)
    with pytest.raises(ConfigError, match=f"gives a table of {2 * (half + 1)} values"):
        SweepConfig("decay-curve", u_count=half + 1)
    SweepConfig("decay-curve", preset="fig7a", u_count=MAX_TABLE_VALUES // 4)
    with pytest.raises(ConfigError, match="limit"):
        SweepConfig("decay-curve", preset="fig7a", u_count=MAX_TABLE_VALUES // 4 + 1)
    # eta-map writes 4 columns whatever phi3_values holds; xi-map 2 + len(phi3_values).
    phases = (0.0, 1.0, 2.0, 3.0)
    side = math.isqrt(MAX_TABLE_VALUES // 4)
    SweepConfig("eta-map", grid_count=side, phi3_values=phases)
    with pytest.raises(ConfigError, match=f"gives a table of {4 * (side + 1) ** 2} values"):
        SweepConfig("eta-map", grid_count=side + 1, phi3_values=phases)
    side = math.isqrt(MAX_TABLE_VALUES // 6)
    SweepConfig("xi-map", grid_count=side, phi3_values=phases)
    with pytest.raises(ConfigError, match="limit"):
        SweepConfig("xi-map", grid_count=side + 1, phi3_values=phases)


def test_alignment_range_is_closed_for_the_dipole_and_the_config():
    assert DipoleOrientation.aligned(1.0).alignment == 1.0
    assert SweepConfig("decay-curve", alignment=1.0).alignment == 1.0


class TestSweepConfigKinds:
    @pytest.mark.parametrize("subcommand, key", NUMERIC_SETTINGS, ids=SETTING_IDS)
    def test_a_setting_of_the_wrong_kind_fails_construction(self, subcommand, key):
        bad = ["1", None, [0.5, 0.5], 0.5 + 1j, [[1.0], [1.0, 2.0]], True]
        if key == "phi3_values":  # one wrong phase inside the tuple, too
            bad += [(value,) for value in bad]
        for value in bad:
            if value is None and SweepConfig.__dataclass_fields__[key].default is None:
                continue  # None is the unset default there
            with pytest.raises(ConfigError):
                SweepConfig(subcommand, **{**SWEEP[subcommand], key: value})

    @pytest.mark.parametrize("subcommand, key", NUMERIC_SETTINGS, ids=SETTING_IDS)
    def test_real_kinds_are_stored_as_python_numbers(self, subcommand, key):
        def stored(value):
            # Without loss, r_a_max and r_b_max may reach 1.
            config = SweepConfig(subcommand, **{**SWEEP[subcommand], "l_sq": 0.0, key: value})
            return getattr(config, key)

        kind = SweepConfig.__dataclass_fields__[key].type
        if kind == "int":
            for value in (5, np.int64(5), np.uint8(5)):
                assert type(stored(value)) is int and stored(value) == 5
            for value in (np.float32(5.0), np.float64(5.0), 5.0):
                with pytest.raises(ConfigError, match=f"{key} must be an integer"):
                    stored(value)
        elif key == "phi3_values":
            phases = stored((1, np.int64(1), np.float32(0.5), np.float64(0.5)))
            assert phases == (1.0, 1.0, 0.5, 0.5)
            assert all(type(phase) is float for phase in phases)
        else:
            for value, expected in ((1, 1.0), (np.int64(1), 1.0), (np.float32(0.5), 0.5),
                                    (np.float64(0.5), 0.5)):
                assert type(stored(value)) is float and stored(value) == expected

    def test_a_config_is_frozen_and_has_no_separate_check(self):
        config = SweepConfig("eta-map", grid_count=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.grid_count = 1
        assert not hasattr(SweepConfig, "validate")
        assert hash(config) == hash(SweepConfig("eta-map", grid_count=np.int64(3)))
