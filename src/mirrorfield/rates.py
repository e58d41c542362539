"""Spontaneous decay rates of a two-level dipole near the coated interface.

The free-space and in-medium rates carry dimensions; everything that
depends on the coating is expressed through the dimensionless ratio
``Gamma_mirr / Gamma_ref`` as a function of ``u = 2 k0 x``, where ``x``
is the emitter-coating distance and ``k0`` the transition wavenumber.
The reference rate is the free-space rate for an emitter on the air side
and the in-medium rate for an emitter inside the dielectric.  ``u`` may be
an array; a scalar ``u`` on a scalar coating gives a Python float.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError
from .interface import (
    Medium,
    MirrorInterface,
    _check_alignment,
    _check_broadcast,
    _check_side,
    as_real,
    check_cells,
    mirror_parameter,
    refractive_index,
    side_rate_terms,
)

#: Below this ``u`` the oscillatory bracket switches to its Taylor form.
SMALL_U = 1e-2

#: Global bound on the oscillatory bracket magnitude; the rate ratio
#: therefore stays within ``1 +- 1.5 * BRACKET_BOUND``.
BRACKET_BOUND = 2.0 / 3.0

_RATIO_SLACK = 1e-12


@dataclass(frozen=True)
class PhysicalConstants:
    """Electromagnetic constants in SI or rescaled units.

    Construction checks ``c0 = 1 / sqrt(eps0 * mu0)`` to 1e-12 relative,
    so only consistent unit systems can be represented.
    """

    hbar: float
    eps0: float
    mu0: float
    c0: float
    e_charge: float

    def __post_init__(self) -> None:
        for name in ("hbar", "eps0", "mu0", "c0", "e_charge"):
            value = as_real(name, getattr(self, name), scalar=True)
            if not (value > 0.0 and math.isfinite(value)):
                raise RangeError(f"{name} must be positive and finite, got {value!r}")
            object.__setattr__(self, name, value)
        if abs(self.c0 * math.sqrt(self.eps0 * self.mu0) - 1.0) > 1e-12:
            raise RangeError("c0 must equal 1/sqrt(eps0 * mu0)")


_MU0 = 1.25663706212e-6
_C0 = 299792458.0

#: 2018 CODATA values; the permittivity is derived from ``mu0`` and ``c0``
#: so the speed-of-light identity holds to machine precision (the result
#: agrees with the published figure to all printed digits).
CODATA2018 = PhysicalConstants(
    hbar=1.054571817e-34,
    eps0=1.0 / (_MU0 * _C0**2),
    mu0=_MU0,
    c0=_C0,
    e_charge=1.602176634e-19,
)

#: hbar = eps0 = mu0 = c0 = e = 1.
NATURAL_UNITS = PhysicalConstants(1.0, 1.0, 1.0, 1.0, 1.0)


@dataclass(frozen=True)
class AtomParams:
    """Transition frequency (rad/s) and dipole matrix element magnitude."""

    omega0: float
    dipole_magnitude: float

    def __post_init__(self) -> None:
        omega0 = as_real("omega0", self.omega0, scalar=True)
        magnitude = as_real("dipole_magnitude", self.dipole_magnitude, scalar=True)
        if not (omega0 > 0.0 and math.isfinite(omega0)):
            raise RangeError(f"omega0 must be positive, got {omega0!r}")
        if not (magnitude >= 0.0 and math.isfinite(magnitude)):
            raise RangeError(f"dipole_magnitude must be >= 0, got {magnitude!r}")
        object.__setattr__(self, "omega0", omega0)
        object.__setattr__(self, "dipole_magnitude", magnitude)


def _check_components(*components) -> tuple[complex, ...]:
    """``d1, d2, d3`` as Python complex numbers; :class:`DomainError` unless each
    is one real or complex number: numpy kind ``i``, ``u``, ``f`` or ``c``, not a bool or str."""
    for name, value in zip(("d1", "d2", "d3"), components):
        try:
            array = np.asarray(value)
        except ValueError:  # a ragged nested sequence
            array = None
        if array is None or array.dtype.kind not in "iufc" or array.ndim:
            raise DomainError(f"{name} must be a real or complex number, got {value!r}")
    return tuple(map(complex, components))


def _norm(*components: complex) -> float:
    """Euclidean norm of Python complex components: the square root of the
    sum of their squared magnitudes, or ``math.hypot`` where that sum or a
    square leaves the normal float range (it neither overflows nor
    underflows midway, but it rounds differently, so the seeded
    orientations keep the plain formula and its bits)."""
    try:
        total = sum(abs(d) ** 2 for d in components)
    except OverflowError:
        total = math.inf
    if sys.float_info.min <= total < math.inf:
        return math.sqrt(total)
    return math.hypot(*(part for d in components for part in (d.real, d.imag)))


@dataclass(frozen=True)
class DipoleOrientation:
    """Complex unit vector of dipole matrix elements ``(d1, d2, d3)``.

    ``d1`` is the component normal to the coating; ``alignment`` is its
    squared magnitude, 0 for a dipole in the coating plane and 1 for one
    perpendicular to it.  Each component is stored as a Python complex.
    """

    d1: complex
    d2: complex
    d3: complex

    def __post_init__(self) -> None:
        for name, value in zip(("d1", "d2", "d3"), _check_components(self.d1, self.d2, self.d3)):
            object.__setattr__(self, name, value)
        norm = _norm(self.d1, self.d2, self.d3)
        norm_sq = norm * norm  # inf, not OverflowError, for a huge component
        if not abs(norm_sq - 1.0) <= 1e-12:
            raise DomainError(
                f"dipole components must form a unit vector, |d|^2 = {norm_sq!r}"
            )

    @property
    def alignment(self) -> float:
        # The unit-norm check allows |d1| a rounding above 1.
        return min(1.0, abs(self.d1) ** 2)

    @classmethod
    def from_components(
        cls, d1: complex, d2: complex, d3: complex
    ) -> "DipoleOrientation":
        """Normalise arbitrary components, each read as its Python ``complex()``, into a valid orientation."""
        components = _check_components(d1, d2, d3)
        norm = _norm(*components)
        if norm == 0.0:
            raise DomainError("dipole components must not all vanish")
        return cls(*(d / norm for d in components))

    @classmethod
    def aligned(cls, alignment: float) -> "DipoleOrientation":
        """Real orientation with the requested normal-component weight."""
        alignment = _check_alignment(alignment)
        return cls(math.sqrt(alignment), math.sqrt(1.0 - alignment), 0.0)


@dataclass(frozen=True)
class DecayRateCurve:
    """Decay-rate ratio ``ratio[i]`` sampled at strictly increasing ``u[i]``."""

    side: str
    alignment: float
    u: np.ndarray
    ratio: np.ndarray

    def __post_init__(self) -> None:
        _check_side(self.side)
        u, ratio = check_u(self.u), as_real("ratio", self.ratio)
        object.__setattr__(self, "alignment", _check_alignment(self.alignment))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "ratio", ratio)
        if np.ndim(u) != 1 or np.shape(ratio) != np.shape(u):
            raise DomainError("u and ratio must be 1-d arrays of one length")
        if not np.all(np.diff(u) > 0.0):
            raise DomainError("samples must be strictly increasing in u")
        check_cells((-_RATIO_SLACK <= ratio) & (ratio <= 1.0 + 1.5 * BRACKET_BOUND + _RATIO_SLACK),
                    DomainError, "ratio {ratio!r} at u={u!r} outside physical bounds",
                    ratio=ratio, u=u)


def gamma_air(atom: AtomParams, constants: PhysicalConstants) -> float:
    """Free-space spontaneous decay rate of the two-level dipole."""
    return _reference_rate("gamma_air", atom, constants, 1.0, constants.eps0)


def gamma_med(
    atom: AtomParams, constants: PhysicalConstants, medium: Medium
) -> float:
    """Decay rate inside a homogeneous dielectric.

    Scales the free-space rate by ``n**3 * eps0 / eps``; for a
    non-magnetic medium this reduces to ``n * gamma_air``.
    """
    return _reference_rate(
        "gamma_med", atom, constants, refractive_index(medium), medium.eps_rel * constants.eps0
    )


def _reference_rate(
    name: str, atom: AtomParams, constants: PhysicalConstants, n: float, eps: float
) -> float:
    """``n**3 e**2 omega0**3 d**2 / (3 pi hbar eps c0**3)``, which must be a finite float."""
    try:
        rate = (
            n**3
            * constants.e_charge**2
            * atom.omega0**3
            * atom.dipole_magnitude**2
            / (3.0 * math.pi * constants.hbar * eps * constants.c0**3)
        )
    except (OverflowError, ZeroDivisionError):  # a float ``**`` or ``/`` leaving the float range
        rate = math.inf
    if not math.isfinite(rate):
        raise RangeError(f"{name} is outside the float range for these parameters")
    return rate


def oscillatory_bracket(u, alignment: float):
    """Distance-dependent bracket multiplying the mirror parameter.

    ``(1 - A) sin(u)/u + (1 + A) (cos(u)/u**2 - sin(u)/u**3)`` with
    ``A = alignment`` in [0, 1]; below :data:`SMALL_U` the Taylor form
    through ``u**8``, accurate to O(u**10), is used to avoid cancellation.
    Its magnitude never exceeds 2/3, the value reached in the ``u -> 0``
    limit.  ``u`` may be an array, finite and ``>= 0`` in every cell; a
    scalar gives a Python float.  Each number is read as its Python ``float()``.
    """
    alignment, u = _check_alignment(alignment), check_u(u)
    return _bracket(u, alignment)


def _bracket(u: float | np.ndarray, alignment: float):
    """:func:`oscillatory_bracket` on arguments already checked."""
    series = u < SMALL_U
    # Below SMALL_U the trigonometric form can divide by zero or overflow,
    # and above it u * u can; np.where discards those cells, so their
    # warnings are silenced.
    with np.errstate(all="ignore"):
        u2 = u * u
        sin_u = np.sin(u)
        cos_u = np.cos(u)
        # The series of j0(u) and -j1(u)/u through u**8, in Horner form.
        sinc_series = 1.0 - u2 / 6.0 * (1.0 - u2 / 20.0 * (1.0 - u2 / 42.0 * (1.0 - u2 / 72.0)))
        tail_series = -1.0 / 3.0 + u2 / 30.0 * (1.0 - u2 / 28.0 * (1.0 - u2 / 54.0 * (1.0 - u2 / 88.0)))
        sinc_part = np.where(series, sinc_series, sin_u / u)
        tail_part = np.where(series, tail_series, cos_u / (u * u) - sin_u / (u * u * u))
    return as_real("bracket", (1.0 - alignment) * sinc_part + (1.0 + alignment) * tail_part)


def check_u(u, scalar: bool = False) -> float | np.ndarray:
    """``u`` read by :func:`as_real`, after rejecting a scaled distance that
    is not real (with ``scalar``, not one real number) or is negative,
    infinite or NaN in any cell."""
    u = as_real("u", u, scalar)
    check_cells((0.0 <= u) & (u < math.inf), DomainError,
                "u must be finite and >= 0, got {u!r}", u=u)
    return u


def relative_decay_rate(interface: MirrorInterface, side: str, alignment: float, u):
    """Decay rate near the coating over the reference rate for that side.

    Parameters
    ----------
    interface : MirrorInterface
    side : {"a", "b"}
        Emitter on the air side ("a", reference rate ``gamma_air``) or
        inside the dielectric ("b", reference ``gamma_med``).
    alignment : float
        Squared normal component of the dipole orientation, in [0, 1];
        a numpy number is read as its Python ``float()``, as is a scalar ``u``.
    u : float or array
        Dimensionless distance ``2 k0 x``, ``>= 0`` in every cell; an array
        must broadcast against an array coating's cells.

    Returns
    -------
    float or array
        ``1 + xi * bracket(u, alignment)``; always within [0, 2].  A
        Python float when both ``u`` and the coating are scalar.
    """
    alignment, u = _check_alignment(alignment), check_u(u)
    xi = mirror_parameter(interface, side)
    _check_broadcast("u and the coating's cells", u=u, cells=xi)
    return 1.0 + xi * _bracket(u, alignment)


def unnormalised_decay_rate(interface: MirrorInterface, side: str, alignment: float, u):
    """Rate ratio with the constant term left in its raw two-species form.

    Evaluates ``(1 + r^2)/eta^2 + t_opp^2/eta_opp^2`` explicitly instead
    of collapsing it to 1, plus the same oscillatory term as
    :func:`relative_decay_rate`, with ``xi`` computed here rather than by
    :func:`mirror_parameter`.  It is the algebraic oracle the tests compare
    the normalised closed form against; nothing else calls it.
    """
    alignment, u = _check_alignment(alignment), check_u(u)
    terms = side_rate_terms(interface, side)
    _check_broadcast("u and the coating's cells", u=u, cells=terms.eta_sq)
    constant = (1.0 + terms.r**2) / terms.eta_sq + terms.t_opposite**2 / terms.eta_opposite_sq
    xi = 3.0 * terms.r * math.cos(terms.reflection_phase) / terms.eta_sq
    return constant + xi * _bracket(u, alignment)


def sample_decay_curve(
    interface: MirrorInterface,
    side: str,
    alignment: float,
    u_values,
) -> DecayRateCurve:
    """Evaluate :func:`relative_decay_rate` on an increasing ``u`` grid."""
    u = as_real("u", u_values)
    ratio = relative_decay_rate(interface, side, alignment, u)
    return DecayRateCurve(side=side, alignment=alignment, u=u, ratio=ratio)
