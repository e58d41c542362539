"""Mutation table: each row changes one constant or one wire of the package
and names the tests that must fail on the changed copy.

A mutant that no test can tell from the real code marks a constant or a
wire that the tests do not pin.  Run from anywhere, with pytest installed::

    python tests/mutants.py

The script first runs every named test on an unchanged copy of ``src/``
and ``tests/``, where all must pass.  Then, for each row, it makes a fresh
temporary copy, replaces the row's old text, which must occur exactly once
in its file, by the new text, and runs the row's tests there with the copy
first on ``PYTHONPATH``.  A row is killed when every test it names fails
(for a parametrised test named without its brackets, at least one case).
The exit code is 1 if a mutant survives or a row cannot be applied, and 0
otherwise.  This file is not collected by pytest, since one row costs a
few seconds; it uses the standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INTERFACE = "src/mirrorfield/interface.py"
MODES = "src/mirrorfield/modes.py"
ORACLE = "src/mirrorfield/oracle.py"
RATES = "src/mirrorfield/rates.py"
SWEEP = "src/mirrorfield/sweep.py"
CLI = "src/mirrorfield/cli.py"

SIDE_B_REFLECTION = "tests/test_interface.py::TestMirrorParameter::test_side_b_uses_back_reflection"
EXTREME_XI = "tests/test_interface.py::TestMirrorParameter::test_extreme_values"
TRANSMITTED_WAVE = "tests/test_modes.py::TestMirrorField::test_transmitted_wave_scaling"
DIPOLE_RANGE = ("tests/test_rates.py::TestDipoleOrientation::"
                "test_components_whose_squares_leave_the_normal_range")

#: (file, old text, new text, test ids that must fail on the mutant).
MUTANTS = [
    (RATES, "SMALL_U = 1e-2", "SMALL_U = 1e-3",
     ["tests/test_rates.py::TestOscillatoryBracket::test_matches_mpmath_below_the_series_switch"]),
    # The oracle-check verdict, judged at the spec's rel_tolerance.
    (SWEEP, "report.max_rel_error <= spec.rel_tolerance", "report.max_rel_error <= 1e3 * spec.rel_tolerance",
     ["tests/test_cli.py::TestMain::test_oracle_check_fail_threshold[over]"]),
    (ORACLE, "return max(1.0, abs(value))", "return abs(value)",
     ["tests/test_oracle.py::TestBudget::test_refinement_check_has_a_unit_floor"]),
    # The one alignment rule of the rate functions, the dipole and the config.
    (INTERFACE, "0.0 <= value <= 1.0", "0.0 <= value < 1.0",
     ["tests/test_acceptance.py::test_criterion_3_perfect_mirror_contact_limits",
      "tests/test_errors.py::test_alignment_range_is_closed_for_the_dipole_and_the_config"]),
    # The table-size checks derive their widths.
    (SWEEP, "self.cases * len(_ORACLE_COLUMNS)", "self.cases * (len(_ORACLE_COLUMNS) - 1)",
     ["tests/test_errors.py::test_seeded_cases_are_bounded_before_drawing"]),
    (SWEEP, "1 + len(PRESETS[self.preset])", "len(PRESETS[self.preset])",
     ["tests/test_errors.py::test_table_size_checks_read_the_table_widths"]),
    (SWEEP, "self.grid_count**2 * 4", "self.grid_count**2 * (2 + len(self.phi3_values))",
     ["tests/test_errors.py::test_table_size_checks_read_the_table_widths"]),
    (INTERFACE, "ENERGY_TOL = 1e-9", "ENERGY_TOL = 1e-6",
     ["tests/test_interface.py::TestSideCoefficients::test_energy_tolerance_boundary"]),
    # An implied loss is floored at 0 before its square root.
    (INTERFACE, "np.maximum(0.0, 1.0 - self.r**2 - self.t**2)", "1.0 - self.r**2 - self.t**2",
     ["tests/test_interface.py::TestSideCoefficients::test_implied_loss_energy_tolerance_boundary"]),
    (RATES, "_RATIO_SLACK = 1e-12", "_RATIO_SLACK = 1e-6",
     ["tests/test_rates.py::TestDecayRateCurve::test_rejects_a_ratio_just_beyond_the_rounding_slack"]),
    # The one node builder of both oracles' shared fill.
    (ORACLE, "half_width * base_w", "np.ones_like(half_width) * base_w",
     ["tests/test_oracle.py::TestKnownIntegrals::test_black_sheet_is_free_space"]),
    (ORACLE, "MAX_ORACLE_NODES = 2**24", "MAX_ORACLE_NODES = 2**25",
     ["tests/test_oracle.py::TestBudget::test_1d_fine_level_just_over_budget_raises_before_allocating"]),
    # Each worker checks for another worker's error before each leaf.
    (ORACLE, "if errors:  # another worker raised", "if False:",
     ["tests/test_oracle.py::TestLeaves::test_a_leaf_error_stops_the_other_workers"]),
    # The emitter-side selection of side_rate_terms.
    (INTERFACE, "interface.side_a, interface.phi1, 1", "interface.side_a, interface.phi3, 1",
     [SIDE_B_REFLECTION,
      "tests/test_rates.py::TestRelativeDecayRate::test_side_b_equals_swapped_side_a"]),
    (INTERFACE, "r=near.r", "r=far.r", [SIDE_B_REFLECTION, EXTREME_XI]),
    (INTERFACE, "t_opposite=far.t", "t_opposite=near.t",
     [TRANSMITTED_WAVE, "tests/test_modes.py::TestMirrorField::test_opaque_backside_blocks_species_b"]),
    (INTERFACE, "eta_sq=eta_sq[index], eta_opposite_sq=eta_sq[1 - index]",
     "eta_sq=eta_sq[1 - index], eta_opposite_sq=eta_sq[index]",
     [EXTREME_XI, TRANSMITTED_WAVE, "tests/test_acceptance.py::test_criterion_8_loss_side_asymmetry"]),
    # The one number reader gives a Python float for a scalar.
    (INTERFACE, "return float(array) if array.ndim == 0 else array.astype(float, copy=False)",
     "return array.astype(float, copy=False)",
     ["tests/test_interface.py::TestNumberReaders::test_as_real_gives_a_float_for_a_scalar"]),
    # The dipole norm falls back to math.hypot outside the normal float range.
    (RATES, "sys.float_info.min <= total", "0.0 < total", [f"{DIPOLE_RANGE}[1e-160]"]),
    (RATES, "total < math.inf", "total", [f"{DIPOLE_RANGE}[sum-overflows]"]),
    # A stdout that refused the CSV is pointed at the null device, so the
    # interpreter's flush at exit adds no second error.
    (CLI, "os.dup2(null, descriptor)", "None",
     ["tests/test_cli.py::TestMain::test_a_closed_stdout_pipe_ends_in_one_error_line"]),
    # A flag name spells its key one way only, with '-' for '_'.
    (CLI, ' or "_" in name', "",
     ["tests/test_cli.py::TestCommandLine::test_a_malformed_command_line_is_one_error_line[underscore]"]),
    # The algebraic oracle computes xi itself, so it catches a wrong sign of
    # mirror_parameter's phase factor.
    (INTERFACE, "math.cos(terms.reflection_phase)", "abs(math.cos(terms.reflection_phase))",
     ["tests/test_rates.py::TestRelativeDecayRate::test_two_routes_agree"]),
    # The closed form and the 1D oracle compute with the alignment their
    # reader returned, not the numpy number they were given.
    (RATES, "alignment, u = _check_alignment(alignment), check_u(u)\n    xi = mirror_parameter(",
     "_, u = _check_alignment(alignment), check_u(u)\n    xi = mirror_parameter(",
     ["tests/test_rates.py::TestNumpyNumbers::test_closed_form_reads_python_values"]),
    (ORACLE, "alignment, u = _check_alignment(alignment), check_u(u, scalar=True)",
     "_, u = _check_alignment(alignment), check_u(u, scalar=True)",
     ["tests/test_oracle.py::TestNumpyNumbers::test_oracles_read_python_values"]),
    # Each kernel weights its own values: a coefficient of the 1D formula,
    # and the 2D block's azimuth weights (symmetric, so only ones differ).
    (ORACLE, "(1.0 + alignment) * nodes * nodes", "(1.0 + 2.0 * alignment) * nodes * nodes",
     ["tests/test_oracle.py::TestKnownIntegrals::test_perfect_mirror_contact",
      "tests/test_oracle.py::TestAgreementWithClosedForm::test_random_configurations"]),
    (MODES, "np.multiply.outer(cos_weights, phi_weights,", "np.multiply.outer(cos_weights, np.ones_like(phi_weights),",
     ["tests/test_oracle.py::TestKnownIntegrals::test_black_sheet_is_free_space"]),
]


def copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)


def run_tests(copy: Path, tests: list[str]) -> tuple[int, set[str], str]:
    """Run ``tests`` in ``copy``: pytest's exit code, the ids that failed
    and the output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(copy / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True, timeout=600,
    )
    failed = {line.split()[1] for line in result.stdout.splitlines() if line.startswith("FAILED ")}
    return result.returncode, failed, result.stdout + result.stderr


def named_test_failed(test: str, failed: set[str]) -> bool:
    return any(found == test or found.startswith(test + "[") for found in failed)


def main() -> int:
    bad = 0
    for path, old, _, _ in MUTANTS:
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            print(f"BAD ROW   {path}: {old!r} occurs {count} times, not once")
            bad += 1
    if bad:
        return 1
    with tempfile.TemporaryDirectory(prefix="mirrorfield-mutants-") as scratch:
        baseline = Path(scratch, "baseline")
        copy_tree(baseline)
        tests = sorted({test for row in MUTANTS for test in row[3]})
        code, _, output = run_tests(baseline, tests)
        if code != 0:
            print(output)
            print("the named tests do not all pass on the unchanged code")
            return 1
        for number, (path, old, new, tests) in enumerate(MUTANTS):
            copy = Path(scratch, f"mutant{number}")
            copy_tree(copy)
            target = copy / path
            target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
            code, failed, output = run_tests(copy, tests)
            passed = [test for test in tests if not named_test_failed(test, failed)]
            if code not in (0, 1):
                print(output)
                print(f"ERROR     {path}: {old!r} -> {new!r}: pytest exit code {code}")
                bad += 1
            elif passed:
                print(f"SURVIVED  {path}: {old!r} -> {new!r}; still passing: {', '.join(passed)}")
                bad += 1
            else:
                print(f"killed    {path}: {old!r} -> {new!r}")
            shutil.rmtree(copy)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
