"""Acceptance gate.

One test per advertised guarantee; each records a PASS/FAIL line in the
terminal summary.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np

from conftest import criterion
from mirrorfield import (
    CODATA2018,
    NATURAL_UNITS,
    AtomParams,
    DipoleOrientation,
    Medium,
    SweepConfig,
    gamma_air,
    gamma_med,
    lossless_interface,
    mirror_parameter,
    normalisation_constants,
    oracle_compare,
    refractive_index,
    relative_decay_rate,
    seeded_oracle_cases,
    validate_interface,
)
from mirrorfield.cli import main
from mirrorfield.oracle import decay_rate_2d_oracle
from mirrorfield.sweep import cmd_decay_curve

ORACLE_SEED = 42
ORACLE_CASES = 64
ORACLE_2D_REL = 1e-6
ORACLE_1D_ABS = 1e-8
ORACLE_RUNTIME_S = 60.0

IDENTITY_TOL = 1e-12
CONTACT_TOL = 1e-6
FAR_FIELD_U = 1e3
FAR_FIELD_SLACK = 1e-6
BOUND_TOL = 1e-12
ANCHOR_VALUE = 0.42504042542393106
ANCHOR_TOL = 1e-3
PEAK_RANGE = (1.5, 1.7)
MEDIUM_RATE_REL = 1e-12
SUM_RULE_TOL = 1e-9
INVARIANCE_TOL = 1e-12
CONTACT_SHIFT_MIN = 0.05

PERFECT_MIRROR = validate_interface(1.0, 0.0, 0.0, 1.0, 0.0, 0.0, phi1=math.pi, phi3=math.pi)
BLACK_SHEET = validate_interface(0.0, 0.0, 1.0, 0.0, 0.0, 1.0)


def test_criterion_1_closed_form_agrees_with_oracles():
    with criterion(1):
        started = time.perf_counter()
        for case in seeded_oracle_cases(ORACLE_SEED, ORACLE_CASES):
            report = oracle_compare(case.interface, case.side, case.dipole, case.u)
            rel_2d = abs(report.oracle_2d - report.closed_form) / abs(report.closed_form)
            abs_1d = abs(report.oracle_1d - report.closed_form)
            assert rel_2d <= ORACLE_2D_REL, f"case {case.index}: 2D deviation {rel_2d}"
            assert abs_1d <= ORACLE_1D_ABS, f"case {case.index}: 1D deviation {abs_1d}"
        elapsed = time.perf_counter() - started
        assert elapsed < ORACLE_RUNTIME_S, f"oracle sweep took {elapsed:.1f} s"


def test_criterion_2_normalisation_identity_and_floor():
    with criterion(2):
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            squares = []
            for _side in range(2):
                r_sq = float(rng.uniform(0.0, 1.0))
                l_sq = float(rng.uniform(0.0, 1.0)) * (1.0 - r_sq)
                if 2.0 * r_sq + l_sq <= 1e-6:
                    r_sq += 1e-6
                squares.append((r_sq, l_sq))
            (ra_sq, la_sq), (rb_sq, lb_sq) = squares
            iface = validate_interface(
                math.sqrt(ra_sq), math.sqrt(max(0.0, 1.0 - ra_sq - la_sq)), None,
                math.sqrt(rb_sq), math.sqrt(max(0.0, 1.0 - rb_sq - lb_sq)), None,
            )
            eta_a_sq, eta_b_sq = normalisation_constants(iface)
            identity_a = (1.0 + iface.side_a.r**2) / eta_a_sq + iface.side_b.t**2 / eta_b_sq
            identity_b = (1.0 + iface.side_b.r**2) / eta_b_sq + iface.side_a.t**2 / eta_a_sq
            assert abs(identity_a - 1.0) <= IDENTITY_TOL
            assert abs(identity_b - 1.0) <= IDENTITY_TOL
            assert eta_a_sq >= 1.0
            assert eta_b_sq >= 1.0
        # symmetric lossless coatings collapse to the textbook value exactly;
        # r = 0 is excluded because a bare transparent sheet is degenerate
        for r in np.linspace(0.01, 0.99, 34):
            iface = lossless_interface(float(r))
            eta_a_sq, eta_b_sq = normalisation_constants(iface)
            expected = 1.0 + iface.side_a.r**2 + iface.side_a.t**2
            assert eta_a_sq == expected
            assert eta_b_sq == expected
            # 2.0 up to one rounding of t = sqrt(1 - r^2)
            assert abs(eta_a_sq - 2.0) <= 2.0 * np.finfo(float).eps
        mirror_eta_a_sq, mirror_eta_b_sq = normalisation_constants(PERFECT_MIRROR)
        assert mirror_eta_a_sq == 2.0
        assert mirror_eta_b_sq == 2.0


def test_criterion_3_perfect_mirror_contact_limits():
    with criterion(3):
        for u in (1e-9, 1e-6, 1e-4):
            tangential = relative_decay_rate(PERFECT_MIRROR, "a", 0.0, u)
            normal = relative_decay_rate(PERFECT_MIRROR, "a", 1.0, u)
            assert abs(tangential - 0.0) <= CONTACT_TOL
            assert abs(normal - 2.0) <= CONTACT_TOL


def test_criterion_4_far_field_returns_to_unity():
    with criterion(4):
        probes = [
            (PERFECT_MIRROR, "a", 0.0),
            (PERFECT_MIRROR, "a", 1.0),
            (lossless_interface(0.7, phi3=math.pi), "a", 0.3),
            (validate_interface(0.8, 0.6, 0.0, 0.2, 0.6, None, phi3=1.0), "a", 0.5),
            (validate_interface(0.8, 0.6, 0.0, 0.2, 0.6, None, phi1=2.0), "b", 1.0),
        ]
        for iface, side, alignment in probes:
            xi = mirror_parameter(iface, side)
            ratio = relative_decay_rate(iface, side, alignment, FAR_FIELD_U)
            assert abs(ratio - 1.0) <= 3.0 * abs(xi) / FAR_FIELD_U + FAR_FIELD_SLACK


def test_criterion_5_mirror_parameter_bound_and_attainment():
    with criterion(5):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            r_sq = float(rng.uniform(0.0, 1.0))
            l_sq = float(rng.uniform(0.0, 1.0)) * (1.0 - r_sq)
            if 2.0 * r_sq + l_sq <= 1e-6:
                r_sq += 1e-6
            iface = validate_interface(
                math.sqrt(r_sq), math.sqrt(max(0.0, 1.0 - r_sq - l_sq)), None,
                0.5, 0.3, None, phi3=float(rng.uniform(0.0, 2.0 * math.pi)),
            )
            assert abs(mirror_parameter(iface, "a")) <= 1.5 + BOUND_TOL
        # the bound is reached exactly by a lossless perfect reflector
        extreme = validate_interface(1.0, 0.0, 0.0, 0.5, 0.0, None, phi3=0.0)
        assert mirror_parameter(extreme, "a") == 1.5
        flipped = validate_interface(1.0, 0.0, 0.0, 0.5, 0.0, None, phi3=math.pi)
        assert mirror_parameter(flipped, "a") == -1.5
        # and only there: pulling any knob off its extreme loses the bound
        near_misses = [
            validate_interface(0.999, 0.0, None, 0.5, 0.0, None, phi3=0.0),
            validate_interface(1.0, 0.0, 0.0, 0.5, 0.2, None, phi3=0.0),
            validate_interface(1.0, 0.0, 0.0, 0.5, 0.0, None, phi3=0.01),
        ]
        for iface in near_misses:
            assert abs(mirror_parameter(iface, "a")) < 1.5 - 1e-9


def test_criterion_6_strong_absorption_anchor_and_peak():
    with criterion(6):
        # r^2 = 0.1, l^2 = 0.9, phase pi: contact value 1 - 2 sqrt(0.1) / 1.1
        anchor_iface = validate_interface(
            math.sqrt(0.1), 0.0, None, math.sqrt(0.1), 0.0, None,
            phi1=math.pi, phi3=math.pi,
        )
        contact = relative_decay_rate(anchor_iface, "a", 0.0, 1e-4)
        assert abs(contact - ANCHOR_VALUE) <= ANCHOR_TOL
        config = SweepConfig(subcommand="decay-curve", preset="fig5b")
        table = cmd_decay_curve(config)
        peak = max(max(table.column(name)) for name in table.columns[1:])
        assert PEAK_RANGE[0] <= peak <= PEAK_RANGE[1], f"family peak {peak}"


def test_criterion_7_medium_rate_and_sum_rule():
    with criterion(7):
        atom = AtomParams(omega0=2.3, dipole_magnitude=0.7)
        for constants in (NATURAL_UNITS, CODATA2018):
            for eps in (1.0, 1.7689, 2.25, 4.0):
                medium = Medium(eps_rel=eps)
                expected = refractive_index(medium) * gamma_air(atom, constants)
                actual = gamma_med(atom, constants, medium)
                assert abs(actual - expected) <= MEDIUM_RATE_REL * expected
        rng = np.random.default_rng(11)
        for _ in range(100):
            parts = rng.normal(size=3) + 1j * rng.normal(size=3)
            dipole = DipoleOrientation.from_components(*map(complex, parts))
            total = decay_rate_2d_oracle(BLACK_SHEET, "a", dipole, 1.0)
            assert abs(total - 1.0) <= SUM_RULE_TOL


def test_criterion_8_loss_side_asymmetry():
    with criterion(8):
        near_config = SweepConfig(subcommand="decay-curve", preset="fig7a", u_count=101)
        near_table = cmd_decay_curve(near_config)
        baseline = near_table.column(near_table.columns[1])
        for name in near_table.columns[2:]:
            worst = max(
                abs(a - b) for a, b in zip(baseline, near_table.column(name))
            )
            assert worst <= INVARIANCE_TOL, f"{name} moved by {worst}"
        far_config = SweepConfig(subcommand="decay-curve", preset="fig7b", u_count=101)
        far_table = cmd_decay_curve(far_config)
        contacts = [far_table.column(name)[0] for name in far_table.columns[1:]]
        spread = max(contacts) - min(contacts)
        assert spread >= CONTACT_SHIFT_MIN, f"contact spread {spread}"


def test_criterion_9_oracle_check_is_deterministic(tmp_path):
    with criterion(9):
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert main(["oracle-check", "--seed", str(ORACLE_SEED), "--out", str(first)]) == 0
        assert main(["oracle-check", "--seed", str(ORACLE_SEED), "--out", str(second)]) == 0
        first_bytes = first.read_bytes()
        assert first_bytes == second.read_bytes()
        assert first_bytes.count(b"\n") == ORACLE_CASES + 3
