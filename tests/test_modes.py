"""The dipole-mode coupling kernel of the 2D oracle, against its physics."""

import dataclasses
import math

import numpy as np
import pytest

from mirrorfield import (
    DipoleOrientation,
    seeded_oracle_cases,
    validate_interface,
)
from mirrorfield import modes, oracle
from mirrorfield.interface import side_rate_terms

BLACK_SHEET = validate_interface(0.0, 0.0, 1.0, 0.0, 0.0, 1.0)
PERFECT_MIRROR = validate_interface(1.0, 0.0, 0.0, 1.0, 0.0, 0.0, phi1=math.pi, phi3=math.pi)


def kernel(terms, dipole, u, cos_nodes, phi_nodes):
    """The integrand on the (cos theta, phi) product grid, in a fresh workspace:
    the kernel's weighted values at unit weights, which keep every bit."""
    cos_nodes = np.asarray(cos_nodes, dtype=float)
    phi_nodes = np.asarray(phi_nodes, dtype=float)
    workspace = [np.empty(cos_nodes.size * phi_nodes.size, dtype) for dtype in modes._ANGULAR_BUFFERS]
    block = modes._angular_integrand(terms, dipole, u, phi_nodes, np.ones(phi_nodes.size))
    return block(cos_nodes, np.ones(cos_nodes.size), workspace).copy()


def random_nodes(rng, rows=41, columns=23):
    """Random cos theta nodes, with both poles and the equator among them, and azimuths."""
    cos_nodes = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, rows - 3)])
    return cos_nodes, rng.uniform(0.0, 2.0 * math.pi, columns)


def random_dipoles(rng, count=8):
    """Complex orientations, with the normal and a tangential one first."""
    yield DipoleOrientation(1.0, 0.0, 0.0)
    yield DipoleOrientation(0.0, 0.6, 0.8j)
    for _ in range(count - 2):
        yield DipoleOrientation.from_components(*(rng.normal(size=3) + 1j * rng.normal(size=3)))


def transverse_triad(cos_theta, phi):
    """``k_hat``, ``e1`` and ``e2`` of the module docstring at one direction."""
    sin_theta = math.sqrt(1.0 - cos_theta * cos_theta)
    k_hat = (cos_theta, math.cos(phi) * sin_theta, math.sin(phi) * sin_theta)
    e1 = (0.0, math.sin(phi), -math.cos(phi))
    e2 = (sin_theta, -math.cos(phi) * cos_theta, -math.sin(phi) * cos_theta)
    return k_hat, e1, e2


def free_space_pattern(dipole, cos_nodes, phi_nodes):
    """``1 - |k_hat . d|**2``: the emission pattern with no coating."""
    c = cos_nodes[:, None]
    s = np.sqrt(1.0 - c * c)
    k_dot_d = c * dipole.d1 + s * (np.cos(phi_nodes) * dipole.d2 + np.sin(phi_nodes) * dipole.d3)
    return 1.0 - np.abs(k_dot_d) ** 2


class TestPolarisationBasis:
    """``p1`` and ``p2`` are ``d* . e1`` and ``d* . e2``; on a black sheet the
    kernel is ``|p1|**2 + |p2|**2``, the dipole's share across ``k_hat``."""

    def test_sideways_direction(self):
        terms = side_rate_terms(BLACK_SHEET, "a")
        # theta = pi/2 with phi = 0 propagates along +y, with phi = pi/2 along +z
        for phi, along, across in ((0.0, (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
                                   (0.5 * math.pi, (0.0, 0.0, 1.0), (0.0, 1.0, 0.0))):
            for dipole, expected in ((along, 0.0), (across, 1.0), ((1.0, 0.0, 0.0), 1.0)):
                value = kernel(terms, DipoleOrientation(*dipole), 0.0, [0.0], [phi])
                assert value[0, 0] == pytest.approx(expected, abs=1e-15), (phi, dipole)

    def test_normal_incidence_is_transverse_to_x(self):
        terms = side_rate_terms(BLACK_SHEET, "a")
        phi_nodes = np.linspace(0.0, 2.0 * math.pi, 9)
        normal = kernel(terms, DipoleOrientation(1.0, 0.0, 0.0), 3.0, [-1.0, 1.0], phi_nodes)
        assert np.all(normal == 0.0)
        tangential = kernel(terms, DipoleOrientation(0.0, 0.6, 0.8j), 3.0, [-1.0, 1.0], phi_nodes)
        np.testing.assert_allclose(tangential, 1.0, rtol=0.0, atol=1e-15)

    def test_orthonormal_transverse_triad(self):
        # On a black sheet a dipole along k_hat does not couple, and one along
        # e1, e2 or the circular (e1 + i e2) / sqrt 2 couples with weight 1:
        # e1 and e2 are orthonormal and transverse to k_hat.
        terms = side_rate_terms(BLACK_SHEET, "a")
        rng = np.random.default_rng(7)
        for cos_theta, phi in zip(rng.uniform(-1.0, 1.0, 200), rng.uniform(0.0, 2.0 * math.pi, 200)):
            k_hat, e1, e2 = transverse_triad(float(cos_theta), float(phi))
            circular = [(a + 1j * b) / math.sqrt(2.0) for a, b in zip(e1, e2)]
            for dipole, expected in ((k_hat, 0.0), (e1, 1.0), (e2, 1.0), (circular, 1.0)):
                value = kernel(terms, DipoleOrientation.from_components(*dipole), 0.0, [cos_theta], [phi])
                assert value[0, 0] == pytest.approx(expected, abs=1e-12), (cos_theta, phi, expected)


class TestMirrorField:
    """The dressed modes behind the kernel, seen through the couplings."""

    def test_black_sheet_keeps_free_modes(self):
        # r = t = 0 normalises to eta = 1 and leaves the direct wave alone:
        # only its phase moves with u, so the kernel does not.
        rng = np.random.default_rng(13)
        for side in ("a", "b"):
            terms = side_rate_terms(BLACK_SHEET, side)
            assert (terms.r, terms.t_opposite, terms.eta_sq, terms.eta_opposite_sq) == (0.0, 0.0, 1.0, 1.0)
            cos_nodes, phi_nodes = random_nodes(rng)
            for dipole in random_dipoles(rng, count=4):
                at_contact = kernel(terms, dipole, 0.0, cos_nodes, phi_nodes)
                for u in (0.3, 17.0, 2e4):
                    np.testing.assert_allclose(
                        kernel(terms, dipole, u, cos_nodes, phi_nodes), at_contact, rtol=0.0, atol=1e-15
                    )

    def test_perfect_mirror_tangential_field_vanishes(self):
        # At a perfect mirror's surface the image cancels the tangential field
        # of every mode and doubles its normal field: a dipole along e1 (pure
        # polarisation 1) does not couple, a normal one sees (2 sin th)**2 / eta**2
        # with eta**2 = 2.
        rng = np.random.default_rng(19)
        for side in ("a", "b"):
            terms = side_rate_terms(PERFECT_MIRROR, side)
            assert terms.eta_sq == 2.0
            cos_nodes, phi_nodes = random_nodes(rng)
            normal = kernel(terms, DipoleOrientation(1.0, 0.0, 0.0), 0.0, cos_nodes, phi_nodes)
            expected = np.broadcast_to(2.0 * (1.0 - cos_nodes**2)[:, None], normal.shape)
            np.testing.assert_allclose(normal, expected, rtol=0.0, atol=1e-14)
            for cos_theta, phi in zip(cos_nodes, phi_nodes):
                _, e1, _ = transverse_triad(float(cos_theta), float(phi))
                value = kernel(terms, DipoleOrientation.from_components(*e1), 0.0, [cos_theta], [phi])
                assert abs(value[0, 0]) < 1e-14

    def test_opaque_backside_blocks_species_b(self):
        # t_b = 0: the far side's species sends nothing through to an emitter
        # on side a, whatever its normalisation; with t_b = 0.3 it would.
        iface = validate_interface(0.5, 0.5, None, 0.3, 0.0, None)
        terms = side_rate_terms(iface, "a")
        assert terms.t_opposite == 0.0
        rng = np.random.default_rng(23)
        cos_nodes, phi_nodes = random_nodes(rng)
        for dipole in random_dipoles(rng, count=4):
            for u in (0.0, 1.3, 40.0):
                found = kernel(terms, dipole, u, cos_nodes, phi_nodes)
                renormalised = dataclasses.replace(terms, eta_opposite_sq=7.0)
                assert found.tobytes() == kernel(renormalised, dipole, u, cos_nodes, phi_nodes).tobytes()
                leaking = dataclasses.replace(terms, t_opposite=0.3)
                assert np.all(kernel(leaking, dipole, u, cos_nodes, phi_nodes) >= found)

    def test_transmitted_wave_scaling(self):
        # Species b reaches an emitter on side a as its transmitted wave,
        # (t_b / eta_b) times the free mode up to a phase: it adds
        # (t_b / eta_b)**2 times the free pattern, whatever the far side's
        # reflection phase phi1 is.
        eta_b_sq = 1.0 + 0.04 + (1.04 - 0.36) / (1.25 - 0.25) * 0.25
        rng = np.random.default_rng(29)
        for phi1 in (0.0, 0.9, 4.0):
            iface = validate_interface(0.5, 0.5, None, 0.2, 0.6, None, phi1=phi1)
            terms = side_rate_terms(iface, "a")
            assert terms.t_opposite == 0.6
            assert terms.eta_opposite_sq == pytest.approx(eta_b_sq, rel=1e-15)
            blocked = dataclasses.replace(terms, t_opposite=0.0)
            cos_nodes, phi_nodes = random_nodes(rng)
            for dipole in random_dipoles(rng, count=4):
                for u in (0.0, 2.5, 300.0):
                    transmitted = kernel(terms, dipole, u, cos_nodes, phi_nodes) - kernel(
                        blocked, dipole, u, cos_nodes, phi_nodes
                    )
                    expected = 0.36 / eta_b_sq * free_space_pattern(dipole, cos_nodes, phi_nodes)
                    np.testing.assert_allclose(transmitted, expected, rtol=0.0, atol=1e-14)


class TestCoupling:
    def test_black_sheet_couples_like_free_space(self):
        # r = t = 0 normalises to eta = 1 and leaves the direct wave alone.
        rng = np.random.default_rng(7)
        for side in ("a", "b"):
            terms = side_rate_terms(BLACK_SHEET, side)
            for dipole in random_dipoles(rng):
                for u in (0.0, 0.7, 42.0, 3e3):
                    cos_nodes, phi_nodes = random_nodes(rng)
                    found = kernel(terms, dipole, u, cos_nodes, phi_nodes)
                    expected = free_space_pattern(dipole, cos_nodes, phi_nodes)
                    np.testing.assert_allclose(found, expected, rtol=0.0, atol=1e-14)

    def test_perfect_mirror_contact_cancellation(self):
        # A tangential dipole at the surface of a perfect mirror cannot radiate.
        rng = np.random.default_rng(11)
        for side in ("a", "b"):
            terms = side_rate_terms(PERFECT_MIRROR, side)
            for dipole in list(random_dipoles(rng))[1:]:
                tangential = DipoleOrientation.from_components(0.0, dipole.d2, dipole.d3)
                cos_nodes, phi_nodes = random_nodes(rng)
                found = kernel(terms, tangential, 0.0, cos_nodes, phi_nodes)
                assert np.abs(found).max() < 1e-14

    def test_far_side_magnitude_independent_of_distance(self):
        # With r = 0 on the emitter's side nothing interferes: the direct
        # wave and the far side's transmitted one both keep the free pattern.
        rng = np.random.default_rng(5)
        for coating, side in (
            ((0.0, 0.6, None, 0.3, 0.5, None), "a"),
            ((0.0, 0.6, None, 0.3, 0.0, None), "a"),  # opaque far side: no transmitted share
            ((0.5, 0.5, None, 0.0, 0.7, None), "b"),
        ):
            iface = validate_interface(*coating, phi1=0.4, phi3=2.2)
            terms = side_rate_terms(iface, side)
            weight = 1.0 / terms.eta_sq + terms.t_opposite**2 / terms.eta_opposite_sq
            for dipole in random_dipoles(rng):
                cos_nodes, phi_nodes = random_nodes(rng)
                expected = weight * free_space_pattern(dipole, cos_nodes, phi_nodes)
                for u in (0.0, 1.0, 42.0, 3e3):
                    found = kernel(terms, dipole, u, cos_nodes, phi_nodes)
                    np.testing.assert_allclose(found, expected, rtol=0.0, atol=1e-14)

    def test_reflection_phase_periodicity(self):
        rng = np.random.default_rng(3)
        for case in seeded_oracle_cases(seed=3, count=6):
            terms = side_rate_terms(case.interface, case.side)
            wrapped = dataclasses.replace(terms, reflection_phase=terms.reflection_phase + 2.0 * math.pi)
            cos_nodes, phi_nodes = random_nodes(rng)
            np.testing.assert_allclose(
                kernel(wrapped, case.dipole, 3.0, cos_nodes, phi_nodes),
                kernel(terms, case.dipole, 3.0, cos_nodes, phi_nodes),
                rtol=0.0, atol=1e-14,
            )

    def test_never_negative(self):
        rng = np.random.default_rng(17)
        cases = seeded_oracle_cases(seed=1, count=16) + seeded_oracle_cases(seed=4, count=16)
        for case in cases:
            terms = side_rate_terms(case.interface, case.side)
            cos_nodes, phi_nodes = random_nodes(rng)
            for u in (0.0, float(rng.uniform(0.0, 10.0)), float(rng.uniform(10.0, 1e4))):
                assert kernel(terms, case.dipole, u, cos_nodes, phi_nodes).min() >= 0.0


class TestAngularKernel:
    """The 2D block kernel writes into a reused workspace; its bits must not move."""

    @staticmethod
    def plain_block(terms, dipole, u, phi_nodes, cos_nodes):
        # The kernel as one plain numpy expression per quantity.
        cos_phi = np.cos(phi_nodes)[None, :]
        sin_phi = np.sin(phi_nodes)[None, :]
        d1c = complex(dipole.d1).conjugate()
        d2c = complex(dipole.d2).conjugate()
        d3c = complex(dipole.d3).conjugate()
        p1 = d2c * sin_phi - d3c * cos_phi
        transverse = d2c * cos_phi + d3c * sin_phi
        reflect = terms.r * np.exp(1j * terms.reflection_phase)
        reflected_p1 = reflect * p1
        eta = math.sqrt(terms.eta_sq)
        p1_sq = np.abs(p1) ** 2
        transmitted_weight = terms.t_opposite**2 / terms.eta_opposite_sq
        c = cos_nodes[:, None]
        s = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
        p2 = d1c * s - transverse * c
        q2 = reflect * (-d1c * s - transverse * c)
        travel = np.exp(1j * 0.5 * u * c)
        back = np.conj(travel)
        g2 = (p2 * travel + q2 * back) / eta
        far_side = transmitted_weight * (p1_sq + np.abs(p2) ** 2)
        g1 = (p1 * travel + reflected_p1 * back) / eta
        return np.abs(g1) ** 2 + np.abs(g2) ** 2 + far_side

    @pytest.mark.parametrize("u", [0.0, 0.3, 20.0, 1e3, 5e4])
    def test_block_matches_the_plain_expression(self, u):
        phi_nodes, _ = oracle._phi_nodes()
        rng = np.random.default_rng(int(u) + 3)
        cases = seeded_oracle_cases(seed=1, count=4) + seeded_oracle_cases(seed=2, count=3)
        for case in cases:
            terms = side_rate_terms(case.interface, case.side)
            # Unit weights, so the weighted values are the integrand's bits.
            block = modes._angular_integrand(terms, case.dipole, u, phi_nodes, np.ones(phi_nodes.size))
            workspace = [np.empty(1025 * oracle.PHI_ORDER, dtype) for dtype in modes._ANGULAR_BUFFERS]
            # A full leaf, then ragged ones, all in one workspace: each block
            # starts from what the one before left in it.
            for rows in (1024, 7, 1025, 513, 1):
                cos_nodes = np.sort(rng.uniform(-1.0, 1.0, rows))
                cos_nodes[: min(rows, 3)] = (-1.0, 0.0, 1.0)[: min(rows, 3)]
                found = block(cos_nodes, np.ones(rows), workspace)
                expected = self.plain_block(terms, case.dipole, u, phi_nodes, cos_nodes)
                assert found.shape == expected.shape
                assert np.shares_memory(found, workspace[0])
                assert found.tobytes() == expected.tobytes(), (case.index, rows)
