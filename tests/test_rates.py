import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorfield import (
    CODATA2018,
    DEFAULT_QUADRATURE,
    NATURAL_UNITS,
    AtomParams,
    DecayRateCurve,
    DipoleOrientation,
    DomainError,
    Medium,
    PhysicalConstants,
    RangeError,
    decay_rate_1d_oracle,
    decay_rate_2d_oracle,
    gamma_air,
    gamma_med,
    lossless_interface,
    MirrorInterface,
    oracle_compare,
    oscillatory_bracket,
    panel_count,
    relative_decay_rate,
    sample_decay_curve,
    unnormalised_decay_rate,
    validate_interface,
)

from mirrorfield.rates import SMALL_U
from test_interface import coatings

ATOM = AtomParams(omega0=1.0, dipole_magnitude=1.0)

#: An alignment and a distance of each numpy kind a reader takes.  Under
#: NumPy 2's scalar promotion, arithmetic on a float16 or float32 scalar (or
#: 0-d array) itself rounds differently from arithmetic on its Python float.
NUMPY_NUMBERS = {
    "float16": (np.float16(0.3), np.float16(2.7)),
    "float32": (np.float32(0.3), np.float32(2.7)),
    "int64": (np.int64(1), np.int64(3)),
    "0-d array": (np.array(0.3, dtype=np.float32), np.array(2.7, dtype=np.float32)),
}


def perfect_mirror(phase: float) -> "MirrorInterface":
    return validate_interface(1.0, 0.0, 0.0, 1.0, 0.0, 0.0, phi1=phase, phi3=phase)


class TestConstants:
    def test_codata_values(self):
        assert CODATA2018.c0 == 299792458.0
        assert CODATA2018.eps0 == pytest.approx(8.8541878128e-12, rel=1e-10)
        assert CODATA2018.hbar == 1.054571817e-34
        # eps0 is derived from mu0 and c0, so the wave identity is exact
        assert CODATA2018.c0 * math.sqrt(CODATA2018.eps0 * CODATA2018.mu0) == pytest.approx(1.0, abs=1e-12)

    def test_inconsistent_speed_rejected(self):
        with pytest.raises(RangeError):
            PhysicalConstants(hbar=1.0, eps0=1.0, mu0=1.0, c0=2.0, e_charge=1.0)

    def test_atom_validation(self):
        with pytest.raises(RangeError):
            AtomParams(omega0=0.0, dipole_magnitude=1.0)
        with pytest.raises(RangeError):
            AtomParams(omega0=1.0, dipole_magnitude=-1.0)

    def test_rate_outside_the_float_range(self):
        # Valid parameters whose rate overflows: a typed error, not OverflowError.
        huge = AtomParams(omega0=1.0, dipole_magnitude=1e308)
        with pytest.raises(RangeError, match="gamma_air"):
            gamma_air(huge, NATURAL_UNITS)
        with pytest.raises(RangeError, match="gamma_med"):
            gamma_med(huge, NATURAL_UNITS, Medium(eps_rel=2.25))
        with pytest.raises(RangeError, match="gamma_air"):
            gamma_air(AtomParams(omega0=1e200, dipole_magnitude=1.0), CODATA2018)


class TestDipoleOrientation:
    def test_huge_components(self):
        with pytest.raises(DomainError, match="unit vector"):
            DipoleOrientation(1e308, 0.0, 0.0)
        dipole = DipoleOrientation.from_components(1e308, 1.0, 0.0)
        assert (dipole.d1, dipole.d2, dipole.d3) == (1.0, 1e-308, 0.0)
        dipole = DipoleOrientation.from_components(1e308 + 1e308j, 0.0, 0.0)
        assert dipole.alignment == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_components(self, bad):
        with pytest.raises(DomainError):
            DipoleOrientation(bad, 0.0, 0.0)
        with pytest.raises(DomainError):
            DipoleOrientation.from_components(bad, 1.0, 0.0)

    @pytest.mark.parametrize(
        "components, alignment",
        [((1e-200, 0, 0), 1.0), ((1e-160, 0, 0), 1.0), ((5e-324, 0, 0), 1.0),
         ((3e-170, 4e-170j, 0), 0.36), ((1.3e154, 1.3e154, 1.3e154), 1.0 / 3.0)],
        ids=["1e-200", "1e-160", "subnormal", "complex-tiny", "sum-overflows"],
    )
    def test_components_whose_squares_leave_the_normal_range(self, components, alignment):
        # Each square underflows, or the sum of the squares overflows, while
        # the norm itself is a normal float.
        dipole = DipoleOrientation.from_components(*components)
        norm_sq = sum(abs(d) ** 2 for d in (dipole.d1, dipole.d2, dipole.d3))
        assert norm_sq == pytest.approx(1.0, abs=1e-15)
        assert dipole.alignment == pytest.approx(alignment, rel=1e-15)

    @pytest.mark.parametrize(
        "components",
        [(np.float32(0.6), np.float32(0.8), 0.0),
         (np.complex64(0.3 + 0.4j), np.float32(-0.5), np.complex64(0.7j))],
        ids=["float32", "complex64"],
    )
    def test_numpy_components_are_read_as_python_complex(self, components):
        dipole = DipoleOrientation.from_components(*components)
        assert dipole == DipoleOrientation.from_components(*map(complex, components))
        assert all(type(d) is complex for d in (dipole.d1, dipole.d2, dipole.d3))

    def test_vanishing_components(self):
        with pytest.raises(DomainError, match="vanish"):
            DipoleOrientation.from_components(0.0, 0.0, 0.0)

    def test_alignment_of_a_normal_dipole_stays_within_one(self):
        # |d1|**2 rounds above 1 for these, which the unit-norm check accepts.
        iface = lossless_interface(0.5)
        for dipole in (
            DipoleOrientation(0.9158756483745744 + 0.40146207381825405j, 0.0, 0.0),
            DipoleOrientation.from_components(-0.535669373161111 + 0.36159505490948474j, 0.0, 0.0),
            DipoleOrientation(1.0 + 4e-13, 0.0, 0.0),
        ):
            assert dipole.alignment == 1.0
            # Both the closed form and the 1D oracle take the alignment.
            assert oracle_compare(iface, "a", dipole, 1.0).max_rel_error < 1e-11


class TestReferenceRates:
    def test_natural_units_value(self):
        assert gamma_air(ATOM, NATURAL_UNITS) == pytest.approx(1.0 / (3.0 * math.pi), rel=1e-15)

    def test_frequency_and_dipole_scaling(self):
        base = gamma_air(ATOM, CODATA2018)
        assert gamma_air(AtomParams(2.0, 1.0), CODATA2018) == pytest.approx(8.0 * base, rel=1e-14)
        assert gamma_air(AtomParams(1.0, 3.0), CODATA2018) == pytest.approx(9.0 * base, rel=1e-14)

    def test_medium_rate_scales_with_index(self):
        base = gamma_air(ATOM, CODATA2018)
        for eps in (1.0, 2.25, 4.0, 11.9):
            rate = gamma_med(ATOM, CODATA2018, Medium(eps_rel=eps))
            assert rate == pytest.approx(math.sqrt(eps) * base, rel=1e-12)

    def test_magnetic_medium(self):
        # n^3 / eps_rel with n = sqrt(eps mu): eps = mu = 2 gives factor 4
        rate = gamma_med(ATOM, NATURAL_UNITS, Medium(eps_rel=2.0, mu_rel=2.0))
        assert rate == pytest.approx(4.0 * gamma_air(ATOM, NATURAL_UNITS), rel=1e-12)


class TestOscillatoryBracket:
    def test_contact_limit(self):
        for alignment in (0.0, 0.25, 0.5, 1.0):
            expected = (2.0 - 4.0 * alignment) / 3.0
            assert oscillatory_bracket(1e-12, alignment) == pytest.approx(expected, abs=1e-15)

    def test_hand_values(self):
        # u = pi, tangential dipole: sinc term vanishes, tail is -1/pi^2
        assert oscillatory_bracket(math.pi, 0.0) == pytest.approx(-1.0 / math.pi**2, abs=1e-15)
        # u = pi/2, normal dipole: 2 cos(u)/u^2 - 2 sin(u)/u^3 = -16/pi^3
        assert oscillatory_bracket(0.5 * math.pi, 1.0) == pytest.approx(-16.0 / math.pi**3, abs=1e-15)

    # (u, alignment, bracket) with the bracket from 50-digit mpmath at the
    # exact binary u and alignment, rounded to the nearest float.  These u
    # lie below SMALL_U; the trigonometric form is off there by up to 3e-10.
    MPMATH_BRACKETS = [
        (0.001, 0.0, 0.6666665333333405),
        (0.00104, 0.0, 0.6666665224533417),
        (0.0015, 0.0, 0.6666663666667029),
        (0.0025, 0.0, 0.6666658333336124),
        (0.004, 0.0, 0.666664533335162),
        (0.006, 0.0, 0.6666618666759238),
        (0.008, 0.0, 0.6666581333625904),
        (0.00999, 0.0, 0.6666533600578097),
        (0.001, 0.3, 0.26666659333333764),
        (0.00104, 0.3, 0.26666658734933835),
        (0.0015, 0.3, 0.26666650166668837),
        (0.0025, 0.3, 0.26666620833350074),
        (0.004, 0.3, 0.2666654933344305),
        (0.006, 0.3, 0.26666402667222094),
        (0.008, 0.3, 0.2666619733508876),
        (0.00999, 0.3, 0.2666593480353525),
        (0.001, 1.0, -0.6666666000000023),
        (0.00104, 1.0, -0.6666665945600028),
        (0.0015, 1.0, -0.6666665166666788),
        (0.0025, 1.0, -0.666666250000093),
        (0.004, 1.0, -0.6666656000006095),
        (0.006, 1.0, -0.6666642666697524),
        (0.008, 1.0, -0.6666624000097524),
        (0.00999, 1.0, -0.666660013350381),
    ]

    @pytest.mark.parametrize("u, alignment, exact", MPMATH_BRACKETS)
    def test_matches_mpmath_below_the_series_switch(self, u, alignment, exact):
        assert abs(oscillatory_bracket(u, alignment) - exact) <= 1e-15

    def test_series_matches_direct_at_switchover(self):
        for alignment in (0.0, 0.5, 1.0):
            below = oscillatory_bracket(float(np.nextafter(SMALL_U, 0.0)), alignment)
            above = oscillatory_bracket(SMALL_U, alignment)
            assert below == pytest.approx(above, abs=1e-11)

    @given(
        st.floats(0.0, 200.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_global_bound(self, u, alignment):
        assert abs(oscillatory_bracket(u, alignment)) <= 2.0 / 3.0 + 1e-12


class TestRelativeDecayRate:
    def test_perfect_mirror_contact(self):
        iface = perfect_mirror(math.pi)
        assert abs(relative_decay_rate(iface, "a", 0.0, 1e-9)) <= 1e-12
        assert relative_decay_rate(iface, "a", 1.0, 1e-9) == pytest.approx(2.0, abs=1e-12)

    def test_perfect_mirror_known_curve_point(self):
        # ratio(u) = 1 - (3/2) [sin u / u + cos u / u^2 - sin u / u^3] for a
        # tangential dipole at a phase-pi perfect mirror
        u = 2.0
        expected = 1.0 - 1.5 * (
            math.sin(u) / u + math.cos(u) / u**2 - math.sin(u) / u**3
        )
        assert relative_decay_rate(perfect_mirror(math.pi), "a", 0.0, u) == pytest.approx(expected, rel=1e-14)

    def test_quarter_phase_kills_interference(self):
        iface = lossless_interface(0.7, phi3=0.5 * math.pi)
        for u in (0.3, 2.0, 17.0):
            assert relative_decay_rate(iface, "a", 0.4, u) == pytest.approx(1.0, abs=1e-15)

    def test_far_field_returns_to_unity(self):
        iface = lossless_interface(0.9, phi3=math.pi)
        for u in (1e2, 1e3, 1e4):
            assert abs(relative_decay_rate(iface, "a", 0.0, u) - 1.0) <= 3.0 * 1.5 / u

    def test_side_b_equals_swapped_side_a(self):
        iface = validate_interface(
            0.7, 0.2, None, 0.3, 0.5, None, phi1=0.9, phi2=1.7, phi3=2.5, phi4=0.4
        )
        swapped = MirrorInterface(
            iface.side_b, iface.side_a,
            phi1=iface.phi3, phi2=iface.phi4, phi3=iface.phi1, phi4=iface.phi2,
        )
        for u in (0.05, 1.3, 9.0):
            assert relative_decay_rate(iface, "b", 0.6, u) == relative_decay_rate(swapped, "a", 0.6, u)

    def test_argument_validation(self):
        iface = lossless_interface(0.5)
        with pytest.raises(DomainError):
            relative_decay_rate(iface, "a", -0.1, 1.0)
        with pytest.raises(DomainError):
            relative_decay_rate(iface, "a", 0.0, -1.0)
        with pytest.raises(DomainError):
            relative_decay_rate(iface, "c", 0.0, 1.0)
        for alignment in (math.nan, math.inf, -math.inf):
            for call in (relative_decay_rate, unnormalised_decay_rate):
                with pytest.raises(DomainError, match="alignment"):
                    call(iface, "a", alignment, 1.0)
            with pytest.raises(DomainError, match="alignment"):
                oscillatory_bracket(1.0, alignment)

    def test_each_call_checks_its_arguments_once(self, monkeypatch):
        from mirrorfield import rates

        calls = []
        real_check = rates.check_u
        monkeypatch.setattr(rates, "check_u", lambda u: calls.append(u) or real_check(u))
        iface = lossless_interface(0.5)
        for call in (relative_decay_rate, unnormalised_decay_rate):
            call(iface, "a", 0.3, 1.0)
            assert len(calls) == 1, call
            calls.clear()

    @given(
        coatings(), st.sampled_from(["a", "b"]),
        st.floats(0.0, 1.0, allow_nan=False),
        st.lists(
            st.floats(0.0, 2.0 * SMALL_U, allow_nan=False)
            | st.floats(0.0, 200.0, allow_nan=False),
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_array_path_equals_scalar_path(self, iface, side, alignment, extra):
        # 0 and both sides of the Taylor switch are always present.
        u = np.array([0.0, np.nextafter(SMALL_U, 0.0), SMALL_U, *extra])
        ratio = relative_decay_rate(iface, side, alignment, u)
        scalar = [relative_decay_rate(iface, side, alignment, float(x)) for x in u]
        assert all(type(value) is float for value in scalar)
        assert ratio.tolist() == scalar

    @given(coatings(), st.sampled_from(["a", "b"]),
           st.floats(0.0, 1.0, allow_nan=False),
           st.floats(0.0, 60.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_two_routes_agree(self, iface, side, alignment, u):
        direct = relative_decay_rate(iface, side, alignment, u)
        raw = unnormalised_decay_rate(iface, side, alignment, u)
        assert raw == pytest.approx(direct, abs=1e-12)
        assert direct >= -1e-12
        assert direct <= 2.0 + 1e-12


class TestNumpyNumbers:
    @pytest.mark.parametrize("read", ["alignment", "u", "both"])
    @pytest.mark.parametrize("alignment, u", NUMPY_NUMBERS.values(), ids=NUMPY_NUMBERS)
    def test_closed_form_reads_python_values(self, alignment, u, read):
        # Each function computes with the Python float of a numpy number,
        # so it gives that float's result bit for bit.
        iface = lossless_interface(0.7, phi3=0.4)
        python = float(alignment), float(u)
        numbers = (alignment if read != "u" else python[0]), (u if read != "alignment" else python[1])
        for side in ("a", "b"):
            for call in (relative_decay_rate, unnormalised_decay_rate):
                assert call(iface, side, *numbers) == call(iface, side, *python), (call, side)
            curve = sample_decay_curve(iface, side, numbers[0], [0.5, numbers[1]])
            expected = sample_decay_curve(iface, side, python[0], [0.5, python[1]])
            assert curve.ratio.tolist() == expected.ratio.tolist()
            assert type(curve.alignment) is float and curve.alignment == python[0]
        assert oscillatory_bracket(numbers[1], numbers[0]) == oscillatory_bracket(python[1], python[0])


_HALF = lossless_interface(0.5)
_DIPOLE = DipoleOrientation.aligned(0.0)


class TestDistanceDomain:
    @pytest.mark.parametrize("u", [math.inf, -math.inf, math.nan, -1.0])
    @pytest.mark.parametrize(
        "call",
        [
            lambda u: relative_decay_rate(_HALF, "a", 0.0, u),
            lambda u: oscillatory_bracket(u, 0.0),
            lambda u: unnormalised_decay_rate(_HALF, "a", 0.0, u),
            lambda u: decay_rate_1d_oracle(_HALF, "a", 0.0, u),
            lambda u: decay_rate_2d_oracle(_HALF, "a", _DIPOLE, u),
            lambda u: panel_count(u, DEFAULT_QUADRATURE),
        ],
        ids=["relative", "bracket", "unnormalised", "oracle_1d", "oracle_2d", "panel_count"],
    )
    def test_rejected_everywhere(self, call, u):
        with pytest.raises(DomainError):
            call(u)


class TestDecayRateCurve:
    def test_sampling(self):
        iface = lossless_interface(0.5, phi3=math.pi)
        curve = sample_decay_curve(iface, "a", 0.0, [0.1, 1.0, 10.0])
        assert curve.u.tolist() == [0.1, 1.0, 10.0]
        assert curve.ratio[1] == relative_decay_rate(iface, "a", 0.0, 1.0)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(DomainError):
            DecayRateCurve("a", 0.0, u=[1.0, 0.5], ratio=[1.0, 1.0])

    def test_rejects_unphysical_ratio(self):
        with pytest.raises(DomainError):
            DecayRateCurve("a", 0.0, u=[1.0], ratio=[2.5])

    @pytest.mark.parametrize("ratio", [2.0 + 5e-13, -5e-13])
    def test_accepts_a_ratio_within_the_rounding_slack(self, ratio):
        assert DecayRateCurve("a", 0.0, u=[1.0], ratio=[ratio]).ratio[0] == ratio

    @pytest.mark.parametrize("ratio", [2.0 + 1e-11, -1e-11])
    def test_rejects_a_ratio_just_beyond_the_rounding_slack(self, ratio):
        with pytest.raises(DomainError, match="outside physical bounds"):
            DecayRateCurve("a", 0.0, u=[1.0], ratio=[ratio])
