import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorfield import (
    ConfigError,
    MirrorInterface,
    QuadratureSpec,
    ResultTable,
    SideCoefficients,
    SweepConfig,
    format_csv,
    mirror_parameter,
    normalisation_constants,
    parse_csv,
    replay_provenance,
    seeded_oracle_cases,
    write_csv,
)
from mirrorfield.sweep import (
    PRESETS,
    cmd_decay_curve,
    cmd_eta_map,
    cmd_oracle_check,
    cmd_xi_map,
    config_from_settings,
    oracle_failures,
)


def make_config(**overrides) -> SweepConfig:
    return SweepConfig(**{"subcommand": "eta-map", **overrides})


class TestResultTable:
    def test_rejects_ragged_rows(self):
        with pytest.raises(ConfigError):
            ResultTable(columns=["a", "b"], rows=[[1.0]], provenance="x")

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigError):
            ResultTable(columns=["a"], rows=[[float("nan")]], provenance="x")

    def test_column_access(self):
        table = ResultTable(columns=["a", "b"], rows=[[1.0, 2.0], [3.0, 4.0]], provenance="x")
        assert table.column("b").tolist() == [2.0, 4.0]

    def test_rejects_ragged_nested_list(self):
        with pytest.raises(ConfigError, match="match the column count"):
            ResultTable(columns=["a", "b"], rows=[[1.0], [1.0, 2.0]], provenance="x")

    @pytest.mark.parametrize("rows", [[], np.empty((0, 3))], ids=["list", "array"])
    def test_empty_rows_have_the_column_width(self, rows):
        table = ResultTable(columns=["a", "b", "c"], rows=rows, provenance="x")
        assert table.rows.shape == (0, 3)
        assert table.rows.dtype == np.float64

    def test_rows_and_column_views_are_read_only(self):
        table = ResultTable(columns=["a", "b"], rows=np.ones((2, 2)), provenance="x")
        with pytest.raises(ValueError):
            table.rows[0, 0] = math.nan
        with pytest.raises(ValueError):
            table.column("b")[1] = math.inf
        assert np.isfinite(table.rows).all()

    @pytest.mark.parametrize("rows", [[[1.0, 2.0], [3.0, float("nan")]],
                                      np.array([[1.0, 2.0], [3.0, math.nan]])],
                             ids=["list", "array"])
    def test_non_finite_message_names_the_first_bad_value(self, rows):
        with pytest.raises(ConfigError) as caught:
            ResultTable(columns=["a", "b"], rows=rows, provenance="x")
        assert str(caught.value) == "table values must be finite, got nan"


class TestCsv:
    def test_round_trip_with_trailer(self):
        table = ResultTable(
            columns=["u", "value"],
            rows=[[0.1, 1.0 / 3.0], [0.2, 2.0 / 3.0]],
            provenance="decay-curve u_count=2",
            trailer="summary: cases=2 failures=0",
        )
        again = parse_csv(format_csv(table))
        assert (again.columns, again.provenance, again.trailer) == (
            table.columns, table.provenance, table.trailer,
        )
        assert again.rows.tobytes() == table.rows.tobytes()

    def test_shortest_repr_floats_survive(self):
        value = 1.4555436966701532
        table = ResultTable(columns=["x"], rows=[[value]], provenance="p")
        assert parse_csv(format_csv(table)).rows[0][0] == value

    def test_line_endings(self, tmp_path):
        table = ResultTable(columns=["x"], rows=[[1.0]], provenance="p")
        path = tmp_path / "t.csv"
        write_csv(table, path)
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    @pytest.mark.parametrize(
        "text",
        ["x\n1.0\n", "# provenance: eta-map\n", "# provenance: x\nx\nabc\n"],
        ids=["no-header", "header-only", "non-numeric"],
    )
    def test_missing_provenance_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_csv(text)


def per_value_csv(table: ResultTable) -> str:
    """The one-repr-per-value serialisation that ``format_csv`` must match."""
    lines = [f"# provenance: {table.provenance}", ",".join(table.columns)]
    lines += [",".join(repr(float(value)) for value in row) for row in table.rows]
    if table.trailer:
        lines.append(f"# {table.trailer}")
    return "\n".join(lines) + "\n"


# Signed zeros, subnormals, and both sides of repr's switches to exponent
# form at 1e16 and below 1e-4.
CSV_EDGE_VALUES = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.0,
    1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 1e-5, -1e16, -1e-5,
)


@st.composite
def csv_tables(draw):
    width = draw(st.integers(1, 9))
    value = st.sampled_from(CSV_EDGE_VALUES) | st.floats(allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.lists(value, min_size=width, max_size=width), max_size=12))
    trailer = draw(st.sampled_from([None, "summary: cases=1 failures=0"]))
    columns = [f"c{index}" for index in range(width)]
    return ResultTable(columns=columns, rows=rows, provenance="p", trailer=trailer)


class TestCsvBytes:
    @given(csv_tables())
    @example(ResultTable(columns=["x", "y"], rows=[[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0]],
                         provenance="p"))
    @example(ResultTable(columns=["x"], rows=[], provenance="p", trailer="t"))
    @settings(max_examples=200, deadline=None)
    def test_equals_per_value_repr(self, table):
        assert format_csv(table) == per_value_csv(table)

    @pytest.mark.parametrize(
        "argv,deduplicated",
        [
            (["eta-map", "--grid-count", "33"], True),
            (["decay-curve", "--preset", "fig4", "--u-count", "2500"], False),
        ],
        ids=["map", "curve"],
    )
    def test_both_sides_of_the_distinct_value_cut(self, argv, deduplicated, tmp_path, capsys):
        # The map repeats most values; the curve, over several row blocks,
        # none.  Each sink receives the same row blocks.
        from mirrorfield.cli import main
        from mirrorfield.sweep import COMMANDS, CSV_BLOCK_ROWS

        config = config_from_settings(argv[0], dict(zip(
            (flag[2:].replace("-", "_") for flag in argv[1::2]), argv[2::2])))
        table = COMMANDS[config.subcommand](config)
        distinct = len(np.unique(table.rows.view(np.int64)))
        assert (2 * distinct <= table.rows.size) is deduplicated
        assert len(table.rows) > CSV_BLOCK_ROWS
        expected = per_value_csv(table)
        assert format_csv(table) == expected
        write_csv(table, tmp_path / "table.csv")
        assert (tmp_path / "table.csv").read_bytes() == expected.encode("ascii")
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_write_csv_holds_one_row_block_at_a_time(self, tmp_path):
        # A 6.9 MB CSV: formatting the whole body before writing it peaked
        # at 21.6 MB with numpy 2.4, writing it block by block at 14.9 MB.
        table = cmd_eta_map(make_config(grid_count=301))
        tracemalloc.start()
        try:
            write_csv(table, tmp_path / "eta.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 19 * 2**20

    def test_map_tables(self):
        for table in (cmd_eta_map(make_config(grid_count=9)),
                      cmd_xi_map(make_config(subcommand="xi-map", grid_count=7))):
            assert format_csv(table) == per_value_csv(table)

    @pytest.mark.parametrize(
        "config",
        [
            make_config(subcommand="decay-curve", preset="fig4", u_count=41),
            make_config(
                subcommand="decay-curve", r_a=0.6, t_a=0.2, r_b=0.3, t_b=0.1,
                phi3=math.pi, alignment=0.5, u_min=0.0, u_count=33,
            ),
            make_config(subcommand="oracle-check", cases=3, seed=5),
        ],
        ids=["preset-curve", "custom-curve", "oracle-check"],
    )
    def test_command_tables(self, config):
        from mirrorfield.sweep import COMMANDS

        table = COMMANDS[config.subcommand](config)
        assert format_csv(table) == per_value_csv(table)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"subcommand": "bogus"},
            {"side": "c"},
            {"side": 1},
            {"preset": 1, "subcommand": "decay-curve"},
            {"alignment": 1.5},
            {"u_min": 2.0, "u_max": 1.0},
            {"u_count": 1},
            {"grid_count": 1},
            {"l_sq": 1.5},
            {"r_a_max": 1.2},
            {"l_sq": 0.5, "r_a_max": 0.99},
            {"l_sq": 0.5, "r_b_max": 0.75, "subcommand": "xi-map"},
            {"preset": "fig99", "subcommand": "decay-curve"},
            {"cases": 0, "subcommand": "oracle-check"},
            {"seed": -1, "subcommand": "oracle-check"},
            {"points_per_panel": 1, "subcommand": "oracle-check"},
            {"points_per_panel": 1},
            {"phi3_values": (), "subcommand": "xi-map"},
            {"u_max": math.inf, "subcommand": "decay-curve"},
            {"grid_count": 100_000},
            {"phi3_values": (0.0,) * 1000, "subcommand": "xi-map"},
            {"u_count": 10**7, "subcommand": "decay-curve"},
            {"cases": 10**7, "subcommand": "oracle-check"},
            {"phi3_values": (0.0, math.inf), "subcommand": "xi-map"},
            {"phi3_values": (math.nan,), "subcommand": "xi-map"},
            {"phi3": math.nan, "subcommand": "decay-curve"},
            {"phi1": -math.inf, "subcommand": "decay-curve"},
            {"phi4": math.inf, "subcommand": "decay-curve"},
        ],
    )
    def test_bad_values(self, overrides):
        with pytest.raises(ConfigError):
            make_config(**overrides)

    def test_quadrature_defaults_are_the_spec_defaults(self):
        assert SweepConfig(subcommand="oracle-check").quadrature() == QuadratureSpec()

    def test_custom_curve_needs_amplitudes(self):
        config = make_config(subcommand="decay-curve", r_a=0.5, t_a=0.5)
        with pytest.raises(ConfigError):
            config.interface()


# Text that often parses: numbers, integers and multiples of pi.
_NUMBER_TEXT = (
    st.floats().map(repr)
    | st.integers().map(str)
    | st.from_regex(r"[+-]?[0-9.]{0,4}pi(/[0-9.]{0,3})?", fullmatch=True)
)


class TestSettingsSchema:
    @given(
        st.dictionaries(
            st.sampled_from([item.name for item in fields(SweepConfig)]) | st.text(max_size=8),
            _NUMBER_TEXT | st.text(max_size=16),
            max_size=8,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_parse_ends_in_config_or_config_error(self, raw):
        # Parse and check only: running a command could allocate
        # without limit for a random grid_count.
        try:
            config = config_from_settings("decay-curve", raw)
        except ConfigError:
            return
        assert isinstance(config, SweepConfig)


class TestEtaMap:
    def test_hand_checked_corner(self):
        # r_a = sqrt(0.8), r_b = 0 at l^2 = 0.2: 1.8 + (1.8/0.2)*0.8 = 9
        table = cmd_eta_map(make_config(grid_count=2))
        assert table.columns == ["r_a", "r_b", "eta_a_sq", "eta_b_sq"]
        row = table.rows[2]
        assert row[0] == pytest.approx(math.sqrt(0.8), rel=1e-15)
        assert row[1] == 0.0
        assert row[2] == pytest.approx(9.0, rel=1e-12)
        assert row[3] == pytest.approx(1.0, rel=1e-12)

    def test_swap_symmetry(self):
        table = cmd_eta_map(make_config(grid_count=5))
        count = 5
        for i in range(count):
            for j in range(count):
                direct = table.rows[i * count + j]
                mirrored = table.rows[j * count + i]
                assert direct[2] == pytest.approx(mirrored[3], rel=1e-12)

    def test_custom_range(self):
        table = cmd_eta_map(make_config(grid_count=3, l_sq=0.5, r_a_max=0.5))
        assert table.rows[-1][0] == 0.5
        assert "r_a_max=0.5" in table.provenance


class TestXiMap:
    def test_quarter_phase_column_vanishes(self):
        config = make_config(subcommand="xi-map", grid_count=4, phi3_values=(0.5 * math.pi,))
        table = cmd_xi_map(config)
        assert all(abs(value) < 1e-12 for value in table.column(table.columns[2]))

    def test_opposite_phases_negate(self):
        config = make_config(subcommand="xi-map", grid_count=4, phi3_values=(0.0, math.pi))
        table = cmd_xi_map(config)
        for row in table.rows:
            assert row[2] == -row[3]

    def test_bounded(self):
        table = cmd_xi_map(make_config(subcommand="xi-map", grid_count=6))
        for name in table.columns[2:]:
            assert all(abs(v) <= 1.5 + 1e-12 for v in table.column(name))


class TestArrayMaps:
    @given(
        st.floats(0.01, 1.0),
        st.integers(2, 6),
        st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_rows_equal_per_cell_scalar_calls(self, l_sq, count, phases):
        eta = cmd_eta_map(make_config(grid_count=count, l_sq=l_sq))
        xi = cmd_xi_map(make_config(
            subcommand="xi-map", grid_count=count, l_sq=l_sq, phi3_values=tuple(phases)
        ))
        loss = math.sqrt(l_sq)

        def side(r):
            return SideCoefficients(r, math.sqrt(max(0.0, 1.0 - r * r - loss * loss)), loss)

        for eta_row, xi_row in zip(eta.rows.tolist(), xi.rows.tolist(), strict=True):
            r_a, r_b = eta_row[:2]
            assert xi_row[:2] == [r_a, r_b]
            eta_a_sq, eta_b_sq = normalisation_constants(MirrorInterface(side(r_a), side(r_b)))
            assert eta_row[2:] == [eta_a_sq, eta_b_sq]
            assert xi_row[2:] == [
                mirror_parameter(MirrorInterface(side(r_a), side(r_b), phi3=p), "a")
                for p in phases
            ]


class TestDecayCurve:
    def test_custom_curve_column_name_tracks_side(self):
        base = dict(
            subcommand="decay-curve", r_a=0.6, t_a=0.2, r_b=0.3, t_b=0.1,
            u_count=5, phi3=math.pi,
        )
        air = cmd_decay_curve(make_config(**base))
        assert air.columns == ["u", "ratio_vs_gamma_air"]
        med = cmd_decay_curve(make_config(**base, side="b"))
        assert med.columns == ["u", "ratio_vs_gamma_med"]

    def test_preset_families_have_expected_sizes(self):
        for name, expected in (("fig4", 8), ("fig5a", 5), ("fig5b", 8), ("fig6", 4), ("fig7a", 3), ("fig7b", 3)):
            assert len(PRESETS[name]) == expected

    def test_interference_extremes_preset(self):
        config = make_config(subcommand="decay-curve", preset="fig4", u_min=0.001, u_count=4)
        table = cmd_decay_curve(config)
        contact = dict(zip(table.columns, table.rows[0]))
        assert contact["xi=+1.50_d1sq=0"] == pytest.approx(2.0, abs=1e-3)
        assert contact["xi=+1.50_d1sq=1"] == pytest.approx(0.0, abs=1e-3)
        assert contact["xi=-1.50_d1sq=0"] == pytest.approx(0.0, abs=1e-3)
        assert contact["xi=-1.50_d1sq=1"] == pytest.approx(2.0, abs=1e-3)

    def test_all_samples_physical(self):
        for preset in PRESETS:
            config = make_config(subcommand="decay-curve", preset=preset, u_count=40)
            table = cmd_decay_curve(config)
            for name in table.columns[1:]:
                assert all(-1e-12 <= v <= 2.0 + 1e-12 for v in table.column(name))


class TestOracleCheck:
    def test_seeded_cases_are_reproducible(self):
        first = seeded_oracle_cases(seed=5, count=6)
        second = seeded_oracle_cases(seed=5, count=6)
        assert first == second
        assert seeded_oracle_cases(seed=6, count=6) != first

    def test_clean_run(self):
        table = cmd_oracle_check(make_config(subcommand="oracle-check", cases=5))
        assert oracle_failures(table) == 0
        assert all(value == 1.0 for value in table.column("ok"))
        assert "failures=0" in table.trailer

    def test_starved_quadrature_marks_failures(self):
        config = make_config(
            subcommand="oracle-check", cases=4,
            panels_per_oscillation=1, points_per_panel=2, min_panels=1,
        )
        table = cmd_oracle_check(config)
        assert oracle_failures(table) == 4
        # sentinel rows stay finite so the CSV still parses
        assert parse_csv(format_csv(table)).column("closed_form").tolist() == [-1.0] * 4

    @pytest.mark.parametrize(
        "errors,ok,summary",
        [
            ([5e-10, None, 3e-3, 0.0], [1.0, 0.0, 0.0, 1.0],
             "summary: cases=4 failures=2 worst_max_rel_error=0.003"),
            ([None, None], [0.0, 0.0], "summary: cases=2 failures=2 worst_max_rel_error=0.0"),
        ],
        ids=["mixed", "all-over-budget"],
    )
    def test_summary_counts_failed_rows_and_the_worst_measured_error(
        self, monkeypatch, errors, ok, summary
    ):
        # None stands for a case whose quadrature runs over budget.
        from mirrorfield import OracleReport, QuadratureBudgetExceeded
        import mirrorfield.oracle as oracle

        remaining = iter(errors)

        def fake_compare(interface, side, dipole, u, spec):
            error = next(remaining)
            if error is None:
                raise QuadratureBudgetExceeded("starved")
            return OracleReport(u, dipole.alignment, side, 1.0, 1.0, 1.0, error)

        # cmd_oracle_check reads oracle_compare from its home module per call.
        monkeypatch.setattr(oracle, "oracle_compare", fake_compare)
        table = cmd_oracle_check(make_config(subcommand="oracle-check", cases=len(errors)))
        assert table.column("ok").tolist() == ok
        assert table.trailer == summary


class TestReplay:
    @pytest.mark.parametrize(
        "config",
        [
            make_config(grid_count=4),
            make_config(subcommand="xi-map", grid_count=3, phi3_values=(0.4, 2.2)),
            make_config(subcommand="decay-curve", preset="fig6", u_count=7),
            make_config(
                subcommand="decay-curve", r_a=0.5, t_a=0.5, r_b=0.5, t_b=0.5,
                phi3=1.1, alignment=0.25, u_count=6,
            ),
            # Explicit losses take the strict SideCoefficients constructor.
            make_config(
                subcommand="decay-curve", side="b", r_a=0.6, t_a=0.2, l_a=0.7745966692414834,
                r_b=0.3, t_b=0.5, l_b=0.812403840463596, phi1=0.5 * math.pi, u_count=101,
            ),
            make_config(subcommand="oracle-check", cases=3, seed=11),
        ],
        ids=["eta-map", "xi-map", "preset-curve", "custom-curve", "custom-losses", "oracle-check"],
    )
    def test_provenance_regenerates_identical_table(self, config):
        from mirrorfield.sweep import COMMANDS

        table = COMMANDS[config.subcommand](config)
        for name in ("l_a", "l_b"):
            assert (getattr(config, name) is None) == (f"{name}=" not in table.provenance)
        again = replay_provenance(table.provenance)
        assert format_csv(again) == format_csv(table)

    def test_transmission_phase_settings_replay_and_change_no_ratio(self):
        # No output reads phi2 or phi4, but a provenance line that sets them
        # still replays byte for byte.
        line = ("decay-curve side=b u_min=0.01 u_max=50.0 u_count=21 alignment=0.3 r_a=0.8 t_a=0.5 "
                "r_b=0.3 t_b=0.6 phi1=2.356194490192345 phi2={} phi3=0.0 phi4={}")
        text = format_csv(replay_provenance(line.format(0.2, 0.7)))
        assert text.splitlines()[0] == "# provenance: " + line.format(0.2, 0.7)
        assert format_csv(replay_provenance(parse_csv(text).provenance)) == text
        ratio = parse_csv(text).column("ratio_vs_gamma_med")
        zero = replay_provenance(line.format(0.0, 0.0)).column("ratio_vs_gamma_med")
        assert ratio.tobytes() == zero.tobytes()

    @pytest.mark.parametrize(
        "config, setting",
        [
            (make_config(subcommand="decay-curve", preset="fig4", u_min=0, u_count=5), "u_min=0.0"),
            (make_config(grid_count=3, l_sq=np.float64(0.2)), "l_sq=0.2"),
            (make_config(subcommand="xi-map", grid_count=3, phi3_values=(0, np.float64(0.5))),
             "phi3_values=0.0,0.5"),
            (make_config(subcommand="oracle-check", cases=np.int64(2), rel_tolerance=np.float32(0.5)),
             "rel_tolerance=0.5"),
        ],
        ids=["int-u_min", "numpy-l_sq", "mixed-phi3_values", "numpy-oracle-settings"],
    )
    def test_a_library_built_config_replays_byte_for_byte(self, config, setting):
        from mirrorfield.sweep import COMMANDS

        table = COMMANDS[config.subcommand](config)
        assert setting in table.provenance.split()
        assert format_csv(replay_provenance(table.provenance)) == format_csv(table)

    @pytest.mark.parametrize(
        "provenance",
        [
            "decay-curve u_count=abc", "eta-map emit_svg=1", "eta-map grid_count",
            "eta-map u_count=5", "decay-curve preset=fig4 alignment=1.0", "bogus l_sq=0.2",
        ],
    )
    def test_bad_provenance_is_a_config_error(self, provenance):
        with pytest.raises(ConfigError):
            replay_provenance(provenance)

    @pytest.mark.parametrize(
        "provenance, message",
        [("", "unknown subcommand ''"), ("  ", "unknown subcommand ''"),
         ("eta-map grid_count", "provenance:1: expected key = value"),
         ("eta-map grid_count=3 l_sq", "provenance:2: expected key = value")],
    )
    def test_bad_provenance_message(self, provenance, message):
        with pytest.raises(ConfigError, match=message):
            replay_provenance(provenance)

    def test_provenance_tokens_read_like_config_file_lines(self):
        # A # starts a comment, as in a config file.
        table = replay_provenance("eta-map grid_count=3#l_sq=0.5 #r_a_max=0.5")
        assert format_csv(table) == format_csv(cmd_eta_map(make_config(grid_count=3)))
