"""Plane-wave mode functions and their superposition near the coating.

Directions are parametrised so that the first Cartesian axis is normal to
the coating: ``k_hat = (cos th, cos ph sin th, sin ph sin th)``.  The two
transverse polarisation vectors are

    e1 = (0, sin ph, -cos ph)
    e2 = (sin th, -cos ph cos th, -sin ph cos th)

Reflected contributions are built from the mirror image: positions and
field vectors have their normal components negated, and a dipole coupling
to the image field sees its normal component flipped,
``d_image = (-d1, d2, d3)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError
from .interface import (
    Medium,
    MirrorInterface,
    check_cells,
    check_finite,
    normalisation_constants,
    reduce_phase,
    refractive_index,
    side_rate_terms,
)
from .rates import DipoleOrientation, PhysicalConstants, check_u

#: Mode amplitudes are complex 3-vectors.
ModeAmplitude = np.ndarray

_POLARISATIONS = (1, 2)

_MIRROR = np.array([-1.0, 1.0, 1.0])


def _check_polarisation(polarisation: int) -> None:
    if polarisation not in _POLARISATIONS:
        raise DomainError(f"polarisation must be 1 or 2, got {polarisation!r}")


def _check_species(species: str) -> None:
    if species not in ("a", "b"):
        raise DomainError(f"species must be 'a' or 'b', got {species!r}")


@dataclass(frozen=True)
class WaveDirection:
    """Propagation direction and angular frequency of one plane wave."""

    theta: float
    phi: float
    omega: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta <= math.pi):
            raise DomainError(f"theta must be in [0, pi], got {self.theta!r}")
        if not (self.omega >= 0.0 and math.isfinite(self.omega)):
            raise DomainError(f"omega must be >= 0, got {self.omega!r}")
        object.__setattr__(self, "phi", reduce_phase(self.phi))

    def unit_wavevector(self) -> np.ndarray:
        sin_theta = math.sin(self.theta)
        return np.array(
            [
                math.cos(self.theta),
                math.cos(self.phi) * sin_theta,
                math.sin(self.phi) * sin_theta,
            ]
        )

    def wavenumber(self, constants: PhysicalConstants) -> float:
        return self.omega / constants.c0


@dataclass(frozen=True)
class PolarisationBasis:
    """The two real transverse unit vectors attached to a direction."""

    e1: np.ndarray
    e2: np.ndarray

    def __post_init__(self) -> None:
        check_finite(self)


def polarisation_basis(direction: WaveDirection) -> PolarisationBasis:
    """Transverse basis ``(e1, e2)``; with ``k_hat`` it is right-handed."""
    sin_theta = math.sin(direction.theta)
    cos_theta = math.cos(direction.theta)
    sin_phi = math.sin(direction.phi)
    cos_phi = math.cos(direction.phi)
    e1 = np.array([0.0, sin_phi, -cos_phi])
    e2 = np.array([sin_theta, -cos_phi * cos_theta, -sin_phi * cos_theta])
    return PolarisationBasis(e1=e1, e2=e2)


def polarisation_vector(direction: WaveDirection, polarisation: int) -> np.ndarray:
    _check_polarisation(polarisation)
    basis = polarisation_basis(direction)
    return basis.e1 if polarisation == 1 else basis.e2


def free_mode_amplitude(
    direction: WaveDirection,
    polarisation: int,
    position,
    constants: PhysicalConstants,
) -> tuple[ModeAmplitude, ModeAmplitude]:
    """Electric and magnetic amplitude of one free-space travelling mode.

    Returns the coefficient pair multiplying the annihilation operator:

        E = (i / 4 pi) sqrt(hbar w / pi eps0) exp(i k.r) e_pol
        B = -(1 / c0) * (same scalar) * (k_hat x e_pol)
    """
    _check_polarisation(polarisation)
    pos = np.asarray(position, dtype=float)
    k_hat = direction.unit_wavevector()
    k_dot_r = direction.wavenumber(constants) * float(k_hat @ pos)
    size = math.sqrt(constants.hbar * direction.omega / (math.pi * constants.eps0))
    if not all(map(math.isfinite, (k_dot_r, size, size / constants.c0))):
        raise RangeError("the mode's phase k.r or its amplitude is outside the float range")
    scalar = (1j / (4.0 * math.pi)) * size * cmath.exp(1j * k_dot_r)
    e_pol = polarisation_vector(direction, polarisation)
    electric = scalar * e_pol
    magnetic = -(scalar / constants.c0) * np.cross(k_hat, e_pol)
    return electric, magnetic


def medium_mode_amplitude(
    direction: WaveDirection,
    polarisation: int,
    position,
    constants: PhysicalConstants,
    medium: Medium,
) -> tuple[ModeAmplitude, ModeAmplitude]:
    """Travelling-mode amplitudes inside the homogeneous dielectric.

    Obtained from the free amplitudes by evaluating at ``n r`` (the
    optical path stretches by the refractive index) and rescaling the
    electric part by ``sqrt(n**3 eps0 / eps)`` and the magnetic part by
    ``sqrt(n**3 mu / mu0)``.
    """
    n = refractive_index(medium)
    # sqrt(n**3 / eps) = sqrt(n * mu), with no n**3 to leave the float range;
    # a result outside that range is an error below, not a warning.
    scale = math.sqrt(n * medium.mu_rel)
    with np.errstate(over="ignore", invalid="ignore"):
        pos = n * np.asarray(position, dtype=float)
        electric, magnetic = free_mode_amplitude(direction, polarisation, pos, constants)
        electric, magnetic = scale * electric, n * scale * magnetic
    check_cells(np.isfinite(electric) & np.isfinite(magnetic), RangeError,
                "medium mode amplitudes are outside the float range")
    return electric, magnetic


def mirror_field_amplitude(
    interface: MirrorInterface,
    species: str,
    direction: WaveDirection,
    polarisation: int,
    position,
    constants: PhysicalConstants,
    medium: Medium,
) -> ModeAmplitude:
    """Electric amplitude of one photon species of the dressed field.

    On the air half space (normal coordinate ``x >= 0``) species "a"
    combines its direct wave with the phase-shifted mirror image while
    species "b" only contributes its transmitted wave; inside the
    dielectric (``x < 0``) the roles swap and the medium amplitudes are
    used.  Mirror images negate the normal component of both the
    evaluation point and the field vector.
    """
    _check_species(species)
    pos = np.asarray(position, dtype=float)
    pair = normalisation_constants(interface)
    eta_a = math.sqrt(pair.eta_a_sq)
    eta_b = math.sqrt(pair.eta_b_sq)
    mirrored_pos = _MIRROR * pos

    if pos[0] >= 0.0:
        if species == "a":
            direct, _ = free_mode_amplitude(direction, polarisation, pos, constants)
            image, _ = free_mode_amplitude(
                direction, polarisation, mirrored_pos, constants
            )
            reflected = (
                interface.side_a.r
                * cmath.exp(1j * interface.phi3)
                * (_MIRROR * image)
            )
            return (direct + reflected) / eta_a
        direct, _ = free_mode_amplitude(direction, polarisation, pos, constants)
        return (interface.side_b.t / eta_b) * cmath.exp(1j * interface.phi4) * direct

    if species == "b":
        direct, _ = medium_mode_amplitude(
            direction, polarisation, pos, constants, medium
        )
        image, _ = medium_mode_amplitude(
            direction, polarisation, mirrored_pos, constants, medium
        )
        reflected = (
            interface.side_b.r * cmath.exp(1j * interface.phi1) * (_MIRROR * image)
        )
        return (direct + reflected) / eta_b
    direct, _ = medium_mode_amplitude(direction, polarisation, pos, constants, medium)
    return (interface.side_a.t / eta_a) * cmath.exp(1j * interface.phi2) * direct


def _conjugate_contraction(dipole: DipoleOrientation, e_pol: np.ndarray) -> complex:
    """``d* . e`` for a real polarisation vector."""
    return (
        dipole.d1.conjugate() * e_pol[0]
        + dipole.d2.conjugate() * e_pol[1]
        + dipole.d3.conjugate() * e_pol[2]
    )


def _image_contraction(dipole: DipoleOrientation, e_pol: np.ndarray) -> complex:
    """``d* . e`` with the dipole's normal component flipped."""
    return (
        -dipole.d1.conjugate() * e_pol[0]
        + dipole.d2.conjugate() * e_pol[1]
        + dipole.d3.conjugate() * e_pol[2]
    )


def coupling_amplitude(
    interface: MirrorInterface,
    species: str,
    direction: WaveDirection,
    polarisation: int,
    dipole: DipoleOrientation,
    u: float,
    side: str,
) -> complex:
    """Dimensionless dipole-mode coupling for an emitter at distance ``u``.

    For the species living on the emitter's side this is

        (d* . e exp(i u c / 2) + r d_image* . e exp(-i u c / 2) e^{i phase}) / eta

    with ``c = cos(theta)`` the normal direction cosine; the far-side
    species contributes only its transmitted wave,
    ``(t_opp / eta_opp) d* . e exp(i u c / 2) e^{i phase}``.  Squared
    magnitudes summed over polarisations and species form the integrand
    of the angular decay-rate quadrature.
    """
    _check_species(species)
    check_u(u)
    terms = side_rate_terms(interface, side)
    e_pol = polarisation_vector(direction, polarisation)
    cos_theta = math.cos(direction.theta)
    travel = cmath.exp(1j * 0.5 * u * cos_theta)
    direct = _conjugate_contraction(dipole, e_pol)
    if species == side:
        image = _image_contraction(dipole, e_pol)
        reflected = (
            terms.r * cmath.exp(1j * terms.reflection_phase) * image * travel.conjugate()
        )
        return (direct * travel + reflected) / math.sqrt(terms.eta_sq)
    return (
        terms.t_opposite
        / math.sqrt(terms.eta_opposite_sq)
        * cmath.exp(1j * terms.transmission_phase)
        * direct
        * travel
    )
