import errno
import io
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import mirrorfield

from mirrorfield import ConfigError, OracleReport, parse_csv, replay_provenance, format_csv
from mirrorfield.cli import load_config_file, main
from mirrorfield.sweep import COMMANDS, SUBCOMMAND_KEYS, parse_angle


class FullStdout(io.StringIO):
    """A stdout on a full device."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


class TestAngleParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1.25", 1.25),
            ("pi", math.pi),
            ("-pi", -math.pi),
            ("pi/2", 0.5 * math.pi),
            ("0.5pi", 0.5 * math.pi),
            ("-0.25pi", -0.25 * math.pi),
            ("2pi", 2.0 * math.pi),
            ("1_0.5", 10.5),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("text", ["", "pie", "pi*2", "two", "pi/0", "+-0.5pi", "pi/-2"])
    def test_rejected_forms(self, text):
        with pytest.raises(ConfigError):
            parse_angle(text)


class TestConfigFile:
    def test_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# sweep under test\n"
            "r_a = 0.5\n"
            "t_a = 0.5   # lossless front\n"
            "phi3 = pi\n"
            "u_count = 7\n"
        )
        settings = load_config_file(str(path))
        assert settings == {"r_a": "0.5", "t_a": "0.5", "phi3": "pi", "u_count": "7"}

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config_file("/nonexistent/run.cfg")

    def test_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("r_a 0.5\n")
        with pytest.raises(ConfigError):
            load_config_file(str(path))


class TestMain:
    def test_eta_map_to_stdout(self, capsys):
        assert main(["eta-map", "--grid-count", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# provenance: eta-map ")
        assert parse_csv(out).columns == ["r_a", "r_b", "eta_a_sq", "eta_b_sq"]

    def test_out_file_and_svg(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main([
            "decay-curve", "--preset", "fig5a", "--u-count", "9",
            "--out", str(out), "--svg",
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        table = parse_csv(out.read_text())
        assert len(table.rows) == 9
        svg = (tmp_path / "curve.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_heat_map_svg(self, tmp_path):
        out = tmp_path / "map.csv"
        assert main(["xi-map", "--grid-count", "4", "--out", str(out), "--svg"]) == 0
        root = ET.parse(tmp_path / "map.svg").getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        # One embedded image per phi3 value.
        assert len(root.findall("{http://www.w3.org/2000/svg}image")) == 2

    def test_heat_map_axes_span_the_grid(self, tmp_path):
        out = tmp_path / "map.csv"
        args = ["eta-map", "--grid-count", "3", "--r-a-max", "0.5", "--out", str(out), "--svg"]
        assert main(args) == 0
        caption = "r_a: 0 to 0.5 (horizontal), r_b: 0 to 0.8944 (vertical)</text>"
        assert caption in (tmp_path / "map.svg").read_text()

    def test_svg_requires_out(self, capsys):
        assert main(["eta-map", "--svg"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("out", [None, "plot.svg"], ids=["no-out", "svg-out"])
    def test_a_bad_setting_is_reported_before_a_usage_error(self, tmp_path, capsys, out):
        # The config is checked when it is built, before --svg and --out are.
        args = ["eta-map", "--grid-count", "1", "--svg"]
        args += [] if out is None else ["--out", str(tmp_path / out)]
        assert main(args) == 1
        assert capsys.readouterr().err == "error: grid_count must be an integer >= 2, got 1\n"

    def test_svg_may_not_replace_the_csv(self, tmp_path, capsys, monkeypatch):
        def refuse(config):
            raise AssertionError("computed before rejecting --out")

        monkeypatch.setitem(COMMANDS, "eta-map", refuse)
        out = tmp_path / "plot.svg"
        assert main(["eta-map", "--grid-count", "3", "--out", str(out), "--svg"]) == 1
        assert "is where the plot would go" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("svg", [False, True], ids=["csv", "csv-and-svg"])
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys, target, svg):
        out = tmp_path / "no" / "such" / "x.csv" if target == "missing-dir" else tmp_path
        assert main(["eta-map", "--grid-count", "3", "--out", str(out)] + ["--svg"] * svg) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and str(out) in err

    def test_unwritable_stdout_is_a_config_error(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", FullStdout())
        assert main(["eta-map", "--grid-count", "3"]) == 1
        assert capsys.readouterr().err == "error: cannot write output: [Errno 28] No space left on device\n"

    def test_a_closed_stdout_pipe_ends_in_one_error_line(self):
        # The CSV fits in stdout's buffer, so the interpreter would flush it
        # again at exit; that flush must not fail a second time.
        src = str(Path(mirrorfield.__file__).resolve().parents[1])
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "mirrorfield.cli", "eta-map", "--grid-count", "3"],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert child.returncode == 1
        assert child.stderr.splitlines() == ["error: cannot write output: [Errno 32] Broken pipe"]

    def test_unwritable_svg_is_a_config_error(self, tmp_path, capsys):
        (tmp_path / "map.svg").mkdir()
        out = tmp_path / "map.csv"
        assert main(["eta-map", "--grid-count", "3", "--out", str(out), "--svg"]) == 1
        assert "cannot write output: " in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "r_a = 0.6\nt_a = 0.2\nr_b = 0.3\nt_b = 0.1\n"
            "phi3 = pi\nu_count = 5\nalignment = 1.0\n"
        )
        assert main(["decay-curve", "--config", str(cfg), "--alignment", "0.0"]) == 0
        table = parse_csv(capsys.readouterr().out)
        assert "alignment=0.0" in table.provenance
        assert "u_count=5" in table.provenance

    def test_custom_curve_missing_amplitudes(self, capsys):
        assert main(["decay-curve", "--r-a", "0.5"]) == 1
        assert "missing" in capsys.readouterr().err

    def test_bad_flag_value(self, capsys):
        assert main(["decay-curve", "--preset", "fig4", "--u-count", "many"]) == 1
        assert "bad value" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        assert main(["eta-map", "--config", str(cfg)]) == 1
        assert "unknown option 'bogus'" in capsys.readouterr().err

    def test_config_file_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"grid_count = 3 # caf\xe9\n")
        assert main(["eta-map", "--config", str(cfg)]) == 1
        assert f"error: cannot read config file {cfg}: 'utf-8' codec" in capsys.readouterr().err

    def test_key_the_subcommand_does_not_read(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("u_count = 5\n")
        assert main(["eta-map", "--config", str(cfg)]) == 1
        assert "eta-map does not read option 'u_count'" in capsys.readouterr().err

    def test_preset_rejects_coating_and_alignment(self, capsys):
        assert main(["decay-curve", "--preset", "fig4", "--phi3", "pi"]) == 1
        assert "decay-curve with a preset does not read option 'phi3'" in capsys.readouterr().err

    def test_degenerate_map_corner(self, capsys):
        # l_sq = 0 makes the r_a = r_b = 0 cell a fully transparent sheet.
        assert main(["eta-map", "--l-sq", "0", "--grid-count", "3"]) == 1
        assert "the field normalisation is undefined" in capsys.readouterr().err

    def test_unknown_preset(self, capsys):
        assert main(["decay-curve", "--preset", "fig12"]) == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_degenerate_interface_is_a_model_error(self, capsys):
        code = main([
            "decay-curve", "--r-a", "0.0", "--t-a", "1.0",
            "--r-b", "0.0", "--t-b", "1.0", "--u-count", "4",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_oracle_check_success(self, capsys):
        assert main(["oracle-check", "--cases", "4"]) == 0
        captured = capsys.readouterr()
        assert "failures=0" in captured.err
        assert parse_csv(captured.out).column("ok").tolist() == [1.0] * 4

    def test_oracle_check_starved_exit_code(self, capsys):
        code = main([
            "oracle-check", "--cases", "3",
            "--points-per-panel", "2", "--min-panels", "1",
            "--panels-per-oscillation", "1",
        ])
        assert code == 2
        assert "failures=3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error, ok, code, flags",
        [(2e-9, 0.0, 2, []), (5e-10, 1.0, 0, []), (5e-7, 1.0, 0, ["--rel-tolerance", "1e-6"])],
        ids=["over", "under", "spec-tolerance"],
    )
    def test_oracle_check_fail_threshold(self, monkeypatch, capsys, error, ok, code, flags):
        # Either side of the spec's rel_tolerance, 1e-9 by default.
        def off_by_error(interface, side, dipole, u, spec):
            return OracleReport(u, dipole.alignment, side, 1.0, 1.0 + error, 1.0, error)

        monkeypatch.setattr("mirrorfield.oracle.oracle_compare", off_by_error)
        assert main(["oracle-check", "--cases", "2", *flags]) == code
        assert parse_csv(capsys.readouterr().out).column("ok").tolist() == [ok, ok]

    def test_oracle_check_svg_plots_one_point_per_case(self, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        assert main(["oracle-check", "--cases", "3", "--out", str(out), "--svg"]) == 0
        root = ET.parse(out.with_suffix(".svg")).getroot()
        (line,) = root.iter("{http://www.w3.org/2000/svg}polyline")
        assert len(line.get("points").split()) == 3

    def test_oversized_quadrature_spec(self, capsys):
        assert main(["oracle-check", "--cases", "1", "--points-per-panel", "20000"]) == 1
        assert "points_per_panel must be <= 512" in capsys.readouterr().err

    def test_over_budget_case_is_a_failed_row(self, capsys):
        # A million panels per oscillation asks for about 1e9 2D nodes.
        code = main(["oracle-check", "--cases", "1", "--panels-per-oscillation", "1000000"])
        assert code == 2
        captured = capsys.readouterr()
        assert "failures=1" in captured.err
        assert parse_csv(captured.out).column("ok") == [0.0]

    def test_stdout_replay_round_trip(self, capsys):
        assert main(["xi-map", "--grid-count", "3", "--phi3-values", "0,pi"]) == 0
        table = parse_csv(capsys.readouterr().out)
        assert format_csv(replay_provenance(table.provenance)) == format_csv(table)


class TestCommandLine:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["eta-map", "--bogus", "1"], "unknown option 'bogus'"),
            (["eta-map", "--grid", "3"], "unknown option 'grid'"),
            (["eta-map", "--r-a", "0.5"], "eta-map does not read option 'r_a'"),
            (["eta-map", "--grid-count"], "--grid-count needs a value"),
            (["eta-map", "5"], "got '5'"),
            (["eta-map", "--u_count", "3"], "got '--u_count'"),
            (["eta-map", "--out", "eta.csv", "--svg=1"], "--svg takes no value"),
            (["frob"], "unknown subcommand 'frob'"),
            ([], "no subcommand"),
        ],
        ids=["unknown-key", "abbreviation", "unread-key", "no-value", "bare-word",
             "underscore", "svg-value", "unknown-subcommand", "empty"],
    )
    def test_a_malformed_command_line_is_one_error_line(self, argv, message, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and message in line
        assert captured.out == ""

    def test_space_equals_and_config_file_give_the_same_bytes(self, tmp_path, capsys):
        # A value is read verbatim, so a leading '-' does not make it a flag.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("phi3 = -pi/2\n")
        custom = ["decay-curve", "--r-a", "0.6", "--t-a", "0.2", "--r-b", "0.3", "--t-b", "0.1",
                  "--u-count", "11"]
        outputs = []
        for extra in (["--phi3", "-pi/2"], ["--phi3=-pi/2"], ["--config", str(cfg)]):
            assert main(custom + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert " phi3=-1.5707963267948966 " in outputs[0].splitlines()[0]

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help_names_every_flag_of_every_subcommand(self, flag, capsys):
        assert main([flag]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        usage, *lines = captured.out.splitlines()
        assert all(word in usage for word in ("--config", "--out", "--svg"))
        assert len(lines) == len(SUBCOMMAND_KEYS)
        for line, (name, keys) in zip(lines, SUBCOMMAND_KEYS.items()):
            words = line.partition(":")[0].split()
            assert words == [name, *(f"--{key.replace('_', '-')}" for key in keys)]

    def test_help_on_an_unwritable_stdout_is_one_error_line(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", FullStdout())
        assert main(["--help"]) == 1
        assert capsys.readouterr().err == "error: cannot write output: [Errno 28] No space left on device\n"


#: Every public name of the package: ``__all__`` must list exactly these.
PUBLIC_NAMES = [
    "AIR", "AtomParams", "CODATA2018", "ConfigError", "DEFAULT_QUADRATURE",
    "DecayRateCurve", "DegenerateTransparency", "DipoleOrientation", "DomainError",
    "EnergyViolation", "Medium", "MirrorFieldError", "MirrorInterface",
    "NATURAL_UNITS", "ORACLE_U_VALUES",
    "OracleCase", "OracleReport", "PhysicalConstants", "QuadratureBudgetExceeded",
    "QuadratureSpec", "RangeError", "ResultTable", "SideCoefficients", "SideRateTerms",
    "SweepConfig", "decay_rate_1d_oracle", "decay_rate_2d_oracle", "format_csv",
    "gamma_air", "gamma_med", "lossless_interface", "mirror_parameter",
    "normalisation_constants", "oracle_compare", "oscillatory_bracket", "panel_count",
    "parse_csv", "refractive_index", "relative_decay_rate", "replay_provenance",
    "sample_decay_curve", "seeded_oracle_cases", "side_rate_terms",
    "unnormalised_decay_rate", "validate_interface", "write_csv",
]


def run_child(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` with this checkout's package importable."""
    src = str(Path(mirrorfield.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60, check=True
    )


def modules_loaded_by_command(*argv: str) -> set[str]:
    """Names of every module ``python -m mirrorfield.cli *argv`` imports."""
    result = run_child("-X", "importtime", "-m", "mirrorfield.cli", *argv)
    return {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines() if line.startswith("import time:")
    }


class TestImports:
    def test_importing_the_package_loads_nothing_else(self):
        # A public name or a submodule loads its own module when first used.
        code = (
            "import sys, mirrorfield\n"
            "def loaded():\n"
            "    print(sorted(name for name in sys.modules\n"
            "                 if name == 'numpy' or name.startswith('mirrorfield.')))\n"
            "loaded()\n"
            "mirrorfield.DomainError\n"
            "loaded()\n"
            "mirrorfield.rates.SMALL_U\n"
            "loaded()\n"
        )
        assert run_child("-c", code).stdout.splitlines() == [
            "[]",
            "['mirrorfield.errors']",
            "['mirrorfield.errors', 'mirrorfield.interface', 'mirrorfield.rates', 'numpy']",
        ]

    def test_a_map_command_loads_neither_rates_nor_the_oracles(self, tmp_path):
        loaded = modules_loaded_by_command(
            "eta-map", "--grid-count", "3", "--out", str(tmp_path / "eta.csv"))
        assert "mirrorfield.sweep" in loaded
        assert not loaded & {"mirrorfield.rates", "mirrorfield.oracle", "mirrorfield.modes", "argparse"}

    def test_a_decay_curve_loads_neither_the_oracles_nor_modes(self, tmp_path):
        loaded = modules_loaded_by_command(
            "decay-curve", "--preset", "fig6", "--u-count", "5", "--out", str(tmp_path / "c.csv"))
        assert "mirrorfield.rates" in loaded
        assert not loaded & {"mirrorfield.oracle", "mirrorfield.modes"}

    def test_every_public_name_resolves_and_is_listed(self):
        assert sorted(mirrorfield.__all__) == PUBLIC_NAMES
        listed = dir(mirrorfield)
        for name in mirrorfield.__all__:
            assert getattr(mirrorfield, name) is not None
            assert name in listed

    def test_star_import_binds_every_public_name(self):
        namespace: dict = {}
        exec("from mirrorfield import *", namespace)
        assert set(mirrorfield.__all__) <= set(namespace)
        assert namespace["oracle_compare"] is mirrorfield.oracle.oracle_compare

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            mirrorfield.no_such_name

    def test_only_the_oracles_load_their_modules(self):
        # Starting the command line does not load the Gauss-Legendre rule
        # module; the first oracle call does.  Nothing loads a thread pool,
        # not even an oracle call that runs leaves on helper threads.
        # Modules that numpy itself loads on import are left out of the
        # first check.
        code = (
            "import sys, numpy\n"
            "names = ('concurrent.futures', 'numpy.polynomial')\n"
            "by_numpy = {name for name in names if name in sys.modules}\n"
            "import mirrorfield.cli\n"
            "print(sorted(set(names) & set(sys.modules) - by_numpy))\n"
            "iface = mirrorfield.lossless_interface(0.5)\n"
            "mirrorfield.decay_rate_1d_oracle(iface, 'a', 0.3, 1.0)\n"
            "mirrorfield.decay_rate_2d_oracle(iface, 'a', mirrorfield.DipoleOrientation.aligned(0.3), 300.0)\n"
            "print(sorted(set(names) & set(sys.modules)))\n"
        )
        assert run_child("-c", code).stdout.splitlines() == ["[]", "['numpy.polynomial']"]
