import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorfield import (
    AIR,
    ConfigError,
    DegenerateTransparency,
    EnergyViolation,
    Medium,
    MirrorInterface,
    QuadratureSpec,
    RangeError,
    SideCoefficients,
    lossless_interface,
    mirror_parameter,
    normalisation_constants,
    refractive_index,
    side_rate_terms,
    validate_interface,
)
from mirrorfield.interface import as_real, check_count
from mirrorfield.sweep import config_from_settings, split_settings

TWO_PI = 2.0 * math.pi


def valid_side_squares(draw):
    r_sq = draw(st.floats(0.0, 1.0, allow_nan=False))
    l_sq = draw(st.floats(0.0, 1.0, allow_nan=False)) * (1.0 - r_sq)
    # keep clear of the degenerate fully-transparent sheet
    if 2.0 * r_sq + l_sq <= 1e-6:
        r_sq += 0.5e-6
        l_sq += 0.5e-6
    return r_sq, l_sq


@st.composite
def coatings(draw):
    r_a_sq, l_a_sq = valid_side_squares(draw)
    r_b_sq, l_b_sq = valid_side_squares(draw)
    phases = [draw(st.floats(0.0, TWO_PI, exclude_max=True)) for _ in range(2)]
    return validate_interface(
        r_a=math.sqrt(r_a_sq),
        t_a=math.sqrt(max(0.0, 1.0 - r_a_sq - l_a_sq)),
        l_a=math.sqrt(l_a_sq),
        r_b=math.sqrt(r_b_sq),
        t_b=math.sqrt(max(0.0, 1.0 - r_b_sq - l_b_sq)),
        l_b=math.sqrt(l_b_sq),
        phi1=phases[0],
        phi3=phases[1],
    )


class TestSideCoefficients:
    def test_valid_triplet(self):
        side = SideCoefficients(0.6, 0.8, 0.0)
        assert side.r == 0.6 and side.t == 0.8 and side.l == 0.0

    @pytest.mark.parametrize("triplet", [(1.2, 0.0, 0.0), (-0.1, 0.5, 0.5), (0.5, float("nan"), 0.5)])
    def test_out_of_range(self, triplet):
        with pytest.raises(RangeError):
            SideCoefficients(*triplet)

    def test_energy_violation(self):
        with pytest.raises(EnergyViolation):
            SideCoefficients(0.8, 0.8, 0.0)

    def test_energy_tolerance_boundary(self):
        # r^2 + t^2 + l^2 = 1 + l^2 within a rounding of 1, either side of ENERGY_TOL = 1e-9.
        assert SideCoefficients(0.6, 0.8, math.sqrt(5e-10)).l == math.sqrt(5e-10)
        with pytest.raises(EnergyViolation, match="expected 1 within 1e-09"):
            SideCoefficients(0.6, 0.8, math.sqrt(3e-9))

    def test_implied_loss_energy_tolerance_boundary(self):
        # An implied loss is floored at 0, so r^2 + t^2 may exceed 1 only by ENERGY_TOL.
        side = SideCoefficients(0.6, math.sqrt(0.64 + 5e-10))
        assert side.l == 0.0 and type(side.l) is float
        with pytest.raises(EnergyViolation, match="expected 1 within 1e-09"):
            SideCoefficients(0.6, math.sqrt(0.64 + 3e-9))
        assert SideCoefficients(0.6, 0.8, None) == SideCoefficients(0.6, 0.8)

    def test_array_with_one_bad_cell(self):
        r = np.array([0.6, 0.8, 0.0])
        t = np.array([0.8, 0.8, 1.0])
        with pytest.raises(EnergyViolation, match=r"= 1\.28") as info:
            SideCoefficients(r, t, 0.0)
        assert "np.float64" not in str(info.value)

    def test_implied_loss(self):
        side = SideCoefficients(0.6, 0.0)
        assert math.isclose(side.l, 0.8, rel_tol=1e-15)
        with pytest.raises(EnergyViolation):
            SideCoefficients(0.8, 0.8)


class TestMirrorInterface:
    def test_phases_reduced_to_principal_range(self):
        iface = validate_interface(0.5, 0.5, None, 0.5, 0.5, None, phi1=-0.5 * math.pi, phi3=TWO_PI + 0.5)
        assert math.isclose(iface.phi3, 0.5, abs_tol=1e-12)
        assert math.isclose(iface.phi1, 1.5 * math.pi, abs_tol=1e-12)

    def test_fully_transparent_sheet_rejected(self):
        with pytest.raises(DegenerateTransparency):
            validate_interface(0.0, 1.0, 0.0, 0.0, 1.0, 0.0)

    def test_relaxed_loss_is_implied(self):
        iface = validate_interface(0.5, 0.5, None, 0.2, 0.4, None)
        assert math.isclose(iface.side_a.l**2, 0.5, rel_tol=1e-12)
        assert math.isclose(iface.side_b.l**2, 0.8, rel_tol=1e-12)

    def test_mismatched_explicit_loss_rejected(self):
        with pytest.raises(EnergyViolation):
            validate_interface(0.5, 0.5, 0.9, 0.5, 0.5, None)

    def test_lossless_constructor(self):
        iface = lossless_interface(0.5, phi3=math.pi)
        assert math.isclose(iface.side_a.t, math.sqrt(0.75), rel_tol=1e-15)
        assert iface.side_a.l == 0.0
        assert iface.side_a == iface.side_b
        with pytest.raises(RangeError):
            lossless_interface(1.0)


class TestNormalisation:
    def test_black_sheet_reference(self):
        # r = t = 0 on both sides leaves plain half-space modes
        eta_a_sq, eta_b_sq = normalisation_constants(validate_interface(0.0, 0.0, 1.0, 0.0, 0.0, 1.0))
        assert eta_a_sq == 1.0
        assert eta_b_sq == 1.0

    def test_anchor_mirror_with_partial_backside(self):
        # hand value: 2 + (2/1) * 0.25 = 2.5 and 1.25 + 0
        eta_a_sq, eta_b_sq = normalisation_constants(validate_interface(1.0, 0.0, 0.0, 0.5, 0.5, None))
        assert eta_a_sq == 2.5
        assert eta_b_sq == 1.25

    def test_anchor_asymmetric_lossy(self):
        # hand values: 1.64 + (1.28/0.68)*0.36 and 1.04 + (0.68/1.28)*0.36
        eta_a_sq, eta_b_sq = normalisation_constants(
            validate_interface(0.8, 0.6, 0.0, 0.2, 0.6, None)
        )
        assert math.isclose(eta_a_sq, 2.3176470588235296, rel_tol=1e-14)
        assert math.isclose(eta_b_sq, 1.23125, rel_tol=1e-14)

    def test_symmetric_lossless_closed_form(self):
        for r in (0.1, 0.3, 0.5, 0.7, 0.9):
            iface = lossless_interface(r)
            eta_a_sq, eta_b_sq = normalisation_constants(iface)
            expected = 1.0 + iface.side_a.r**2 + iface.side_a.t**2
            assert eta_a_sq == expected
            assert eta_b_sq == expected

    def test_transparent_limit_approached_from_below(self):
        # r = 0: eta^2 = 1 + t^2, decreasing towards the black-sheet value
        values = [
            normalisation_constants(validate_interface(0.0, t, None, 0.0, t, None))[0]
            for t in (0.5, 0.25, 0.1, 0.0)
        ]
        assert values == sorted(values, reverse=True)
        assert values[-1] == 1.0

    @given(coatings())
    @settings(max_examples=200, deadline=None)
    def test_unit_decay_identity(self, iface):
        eta_a_sq, eta_b_sq = normalisation_constants(iface)
        lhs_a = (1.0 + iface.side_a.r**2) / eta_a_sq + iface.side_b.t**2 / eta_b_sq
        lhs_b = (1.0 + iface.side_b.r**2) / eta_b_sq + iface.side_a.t**2 / eta_a_sq
        assert abs(lhs_a - 1.0) < 1e-12
        assert abs(lhs_b - 1.0) < 1e-12

    @given(coatings())
    @settings(max_examples=200, deadline=None)
    def test_at_least_vacuum_weight(self, iface):
        eta_a_sq, eta_b_sq = normalisation_constants(iface)
        assert eta_a_sq >= 1.0
        assert eta_b_sq >= 1.0


class TestMirrorParameter:
    def test_lossless_half_reflector(self):
        iface = lossless_interface(0.5)
        xi, eta_sq = mirror_parameter(iface, "a"), side_rate_terms(iface, "a").eta_sq
        assert math.isclose(eta_sq, 2.0, rel_tol=1e-15)
        assert math.isclose(xi, 0.75, rel_tol=1e-14)

    def test_extreme_values(self):
        # perfect front mirror, opaque back: xi = 3 r cos(phi) / 2
        front = validate_interface(1.0, 0.0, 0.0, 0.5, 0.0, None, phi3=0.0)
        assert mirror_parameter(front, "a") == 1.5
        flipped = validate_interface(1.0, 0.0, 0.0, 0.5, 0.0, None, phi3=math.pi)
        assert mirror_parameter(flipped, "a") == -1.5

    def test_side_b_uses_back_reflection(self):
        iface = validate_interface(0.9, 0.1, None, 0.3, 0.2, None, phi1=math.pi, phi3=0.0)
        xi = mirror_parameter(iface, "b")
        terms = side_rate_terms(iface, "b")
        assert terms.r == 0.3
        assert math.isclose(xi, 3.0 * 0.3 * math.cos(math.pi) / terms.eta_sq, rel_tol=1e-14)

    @given(coatings(), st.sampled_from(["a", "b"]))
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_three_halves(self, iface, side):
        assert abs(mirror_parameter(iface, side)) <= 1.5 + 1e-12

    def test_odd_under_phase_reflection(self):
        for phase in (0.3, 1.1, 2.0):
            plus = mirror_parameter(lossless_interface(0.6, phi3=phase), "a")
            minus = mirror_parameter(lossless_interface(0.6, phi3=math.pi - phase), "a")
            assert math.isclose(plus, -minus, rel_tol=1e-12)


class TestReturnValues:
    """``normalisation_constants`` and ``mirror_parameter`` return plain values."""

    def test_scalar_coating_gives_python_floats(self):
        iface = validate_interface(0.5, 0.6, None, 0.4, 0.7, None, 0.3, 0.4)
        pair = normalisation_constants(iface)
        assert type(pair) is tuple
        assert [type(value) for value in pair] == [float, float]
        for side in ("a", "b"):
            assert type(mirror_parameter(iface, side)) is float

    def test_array_coating_gives_arrays_of_its_shape(self):
        r_a = np.linspace(0.1, 0.9, 6).reshape(2, 3)
        grid = validate_interface(r_a, 0.3, None, 0.4, 0.7, None, phi1=0.5, phi3=2.0)
        values = [*normalisation_constants(grid), mirror_parameter(grid, "a"), mirror_parameter(grid, "b")]
        for value in values:
            assert isinstance(value, np.ndarray)
            assert value.shape == (2, 3)
        # Each cell holds the bits of its own scalar coating.
        for index, r in np.ndenumerate(r_a):
            cell = validate_interface(float(r), 0.3, None, 0.4, 0.7, None, phi1=0.5, phi3=2.0)
            expected = [*normalisation_constants(cell), mirror_parameter(cell, "a"), mirror_parameter(cell, "b")]
            assert [value[index] for value in values] == expected


class TestNumberReaders:
    """``as_real`` and ``check_count`` hand back plain Python numbers for scalars."""

    @pytest.mark.parametrize(
        "value",
        [2, 2.5, np.float32(0.5), np.int64(3), np.uint8(7), np.asarray(1.5), np.asarray(4, np.int16)],
        ids=["int", "float", "float32", "int64", "uint8", "0-d-float", "0-d-int16"],
    )
    def test_as_real_gives_a_float_for_a_scalar(self, value):
        for scalar in (False, True):
            number = as_real("x", value, scalar=scalar)
            assert type(number) is float
            assert number == float(value)

    @pytest.mark.parametrize(
        "value",
        [[1, 2], np.arange(3, dtype=np.int32), np.ones((2, 2), np.float32), np.zeros((1, 0))],
        ids=["list", "int32", "float32-2d", "empty"],
    )
    def test_as_real_gives_a_float_array_for_ndim_1_up(self, value):
        array = as_real("x", value)
        assert isinstance(array, np.ndarray)
        assert array.dtype == np.float64
        assert array.shape == np.shape(value)
        np.testing.assert_array_equal(array, np.asarray(value, dtype=float))

    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint16(3)], ids=["int", "int64", "uint16"])
    def test_check_count_returns_a_python_int(self, value):
        count = check_count("n", value, 0)
        assert type(count) is int
        assert count == 3

    def test_quadrature_spec_stores_python_ints(self):
        spec = QuadratureSpec(points_per_panel=np.int64(16), min_panels=np.uint8(3))
        assert type(spec.points_per_panel) is int
        assert type(spec.min_panels) is int
        assert spec == QuadratureSpec(points_per_panel=16, min_panels=3)


class TestDielectricHelpers:
    def test_refractive_index(self):
        assert refractive_index(AIR) == 1.0
        assert refractive_index(Medium(eps_rel=2.25)) == 1.5


class TestParsing:
    """Coatings read through the sweep settings schema."""

    def test_mapping_roundtrip(self):
        values = {
            "r_a": 0.5, "t_a": 0.5, "l_a": math.sqrt(0.5),
            "r_b": 0.4, "t_b": 0.2, "l_b": math.sqrt(1 - 0.16 - 0.04),
            "phi1": 0.1, "phi2": 0.2, "phi3": 0.3, "phi4": 0.4,
        }
        texts = {key: repr(value) for key, value in values.items()}
        iface = config_from_settings("decay-curve", texts).interface()
        assert iface.side_a.r == 0.5
        assert iface.side_b.l == values["l_b"]
        assert iface.phi3 == 0.3

    def test_mapping_rejects_unknown_key(self):
        with pytest.raises(ConfigError):
            config_from_settings("decay-curve", {"r_a": "0.5", "bogus": "1.0"})

    def test_text_form(self):
        texts = split_settings(
            """
            # coating under test
            r_a = 0.5
            t_a = 0.5
            r_b = 0.5
            t_b = 0.5
            phi3 = pi
            """
        )
        iface = config_from_settings("decay-curve", texts).interface()
        assert iface.phi3 == math.pi
        assert math.isclose(iface.side_a.l**2, 0.5, rel_tol=1e-12)

    def test_text_form_bad_line(self):
        with pytest.raises(ConfigError):
            split_settings("r_a 0.5")
