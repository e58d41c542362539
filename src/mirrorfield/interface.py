"""Model of a mirror-coated interface with independent loss on each side.

A thin coating between air and a dielectric is described by real electric
field amplitudes for reflection, transmission and loss, one triple per
side of approach, together with a reflection phase per side.  Energy
conservation ties each triple to ``r**2 + t**2 + l**2 = 1``.  The module
derives the normalisation constants ``eta_a**2`` and ``eta_b**2`` of the
quantised field near the coating and the dimensionless mirror parameter
``xi`` that sets the size of the distance-dependent decay-rate modulation.

Sides are labelled ``"a"`` for light that approaches the coating from the
air half space (reflection phase ``phi3``) and ``"b"`` for light
approaching through the dielectric (reflection phase ``phi1``).  Light from
the far side reaches an emitter only as its transmitted wave, which enters
every rate as ``t**2``, so the coating carries no transmission phase.

Amplitudes may be numpy arrays: such a coating is a grid of coatings that
share the two scalar phases, and every derived quantity is per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DegenerateTransparency,
    DomainError,
    EnergyViolation,
    RangeError,
)

TWO_PI = 2.0 * math.pi

#: Absolute tolerance on ``r**2 + t**2 + l**2 - 1``.
ENERGY_TOL = 1e-9

#: Values of ``1 + r**2 - t**2`` at or below this are treated as degenerate.
DEGENERACY_TOL = 1e-9

_SIDES = ("a", "b")

#: Largest Gauss-Legendre order per panel a :class:`QuadratureSpec` may ask
#: for; the oracles' rule costs a dense eigenproblem of twice this order at
#: the fine level.
MAX_POINTS_PER_PANEL = 512


def reduce_phase(phase: float, name: str = "phase") -> float:
    """Map one finite real phase onto [0, 2*pi) as a Python float."""
    phase = as_real(name, phase, scalar=True)
    if not math.isfinite(phase):
        raise RangeError(f"{name} must be finite, got {phase!r}")
    reduced = phase % TWO_PI
    # The modulo can round up to the divisor itself for tiny negatives.
    return 0.0 if reduced >= TWO_PI else reduced


def _check_side(side: str) -> str:
    if not isinstance(side, str) or side not in _SIDES:
        raise DomainError(f"side must be 'a' or 'b', got {side!r}")
    return side


def _check_alignment(alignment: float) -> float:
    """One real ``alignment`` in [0, 1], as a Python float."""
    value = as_real("alignment", alignment, scalar=True)
    if not (0.0 <= value <= 1.0):
        raise DomainError(f"alignment must be in [0, 1], got {value!r}")
    return value


def _check_one_cell(interface: MirrorInterface) -> MirrorInterface:
    """``interface`` if each amplitude is one number, as the oracles need, else :class:`DomainError`."""
    if any(np.ndim(getattr(side, name)) for side in (interface.side_a, interface.side_b) for name in "rtl"):
        raise DomainError("the oracles take a coating of one cell: each amplitude must be one number")
    return interface


def _holds_bool(value) -> bool:
    """Whether ``value`` is or holds a bool, also inside nested lists and
    tuples, where numpy reads it as a number beside the other cells."""
    if isinstance(value, (list, tuple)):
        # Items that are all plain floats and ints, the common case, settle it by their types.
        return not set(map(type, value)) <= {float, int} and any(map(_holds_bool, value))
    return isinstance(value, (bool, np.bool_)) or (isinstance(value, np.ndarray) and value.dtype.kind == "b")


def as_real(name: str, value, scalar: bool = False) -> float | np.ndarray:
    """``value`` as a Python float if it is one real number, or (unless
    ``scalar``) as a float array if it is an array of them: numpy kind
    ``i``, ``u`` or ``f``, where a 0-d array counts as one number.

    Raise :class:`DomainError` for a bool (also inside a list), str,
    complex, object or ragged input, which a conversion to float would
    accept, turn into a number or fail on with a bare error.
    """
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged nested sequence
        array = None
    if array is None or array.dtype.kind not in "iuf" or (scalar and array.ndim) or _holds_bool(value):
        kind = "a real number" if scalar else "a real number or an array of real numbers"
        raise DomainError(f"{name} must be {kind}, got {value!r}")
    return float(array) if array.ndim == 0 else array.astype(float, copy=False)


def check_cells(ok, error: type[Exception], message: str, **values) -> None:
    """Raise ``error`` unless the condition ``ok`` holds in every cell.

    ``message`` is formatted with ``values`` taken at the first failing
    cell as Python floats, so it reads the same for scalars and arrays.
    """
    ok = np.asarray(ok)
    if not ok.all():
        cell = int(np.argmin(ok.ravel()))
        at = {name: float(np.broadcast_to(v, ok.shape).flat[cell]) for name, v in values.items()}
        raise error(message.format(**at))


def _check_broadcast(what: str, **values) -> None:
    """Raise :class:`DomainError` unless ``values`` broadcast together, naming each shape."""
    try:
        np.broadcast(*values.values())
    except ValueError:
        listed = ", ".join(f"{name} {np.shape(value)}" for name, value in values.items())
        raise DomainError(f"{what} do not broadcast: {listed}") from None


def check_finite(record, *names: str) -> None:
    """Raise :class:`DomainError` unless each named field of the dataclass
    ``record`` (every field, if none is named) is a real number or an array
    of them (see :func:`as_real`) that is finite in every cell."""
    for name in names or [item.name for item in fields(record)]:
        value = getattr(record, name)
        if not (isinstance(value, float) and math.isfinite(value)):  # finite floats skip numpy
            check_cells(np.isfinite(as_real(name, value)), DomainError,
                        f"{name} must be finite, got {{value!r}}", value=value)


def check_count(name: str, value, least: int) -> int:
    """``value`` as a Python int, if it is an int or a numpy integer, not a
    bool, of at least ``least``; else raise :class:`DomainError`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SideCoefficients:
    """Reflection, transmission and loss amplitudes for one approach side.

    All three amplitudes are real and non-negative; phases are carried
    separately by :class:`MirrorInterface`.  Each amplitude is a float or
    an array (broadcast against the others).  A loss left out or ``None``
    is implied as ``sqrt(1 - r**2 - t**2)`` (zero where that is negative),
    as in the no-mirror limit, where the whole energy budget goes into
    absorption.  Construction enforces ``r**2 + t**2 + l**2 = 1`` within
    :data:`ENERGY_TOL` in every cell.
    """

    r: float | np.ndarray
    t: float | np.ndarray
    l: float | np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("r", "t") if self.l is None else ("r", "t", "l"):
            value = as_real(name, getattr(self, name))
            object.__setattr__(self, name, value)
            check_cells((0.0 <= value) & (value <= 1.0), RangeError,
                        f"amplitude {name}={{value!r}} outside [0, 1]", value=value)
        _check_broadcast("amplitude shapes", r=self.r, t=self.t, l=self.l)
        if self.l is None:  # r and t are in range, so their squares are finite
            implied = np.sqrt(np.maximum(0.0, 1.0 - self.r**2 - self.t**2))
            object.__setattr__(self, "l", as_real("l", implied))
        budget = self.r**2 + self.t**2 + self.l**2
        check_cells(abs(budget - 1.0) <= ENERGY_TOL, EnergyViolation,
                    f"r^2 + t^2 + l^2 = {{budget!r}}, expected 1 within {ENERGY_TOL}",
                    budget=budget)


@dataclass(frozen=True)
class Medium:
    """Relative permittivity and permeability of the dielectric half space."""

    eps_rel: float = 1.0
    mu_rel: float = 1.0

    def __post_init__(self) -> None:
        for name in ("eps_rel", "mu_rel"):
            value = as_real(name, getattr(self, name), scalar=True)
            if not value > 0.0:
                raise RangeError(f"{name} must be > 0, got {value!r}")
            object.__setattr__(self, name, value)
        # Positive factors have a finite product only if both are finite;
        # the product also keeps the refractive index finite.
        if not math.isfinite(self.eps_rel * self.mu_rel):
            raise RangeError("eps_rel * mu_rel must be finite")


#: Vacuum / air on both sides.
AIR = Medium(1.0, 1.0)


@dataclass(frozen=True)
class MirrorInterface:
    """Two sets of side coefficients plus the two reflection phases.

    Phases are stored reduced to [0, 2*pi).  ``phi1``/``phi3`` are the
    reflection phases for light arriving from the dielectric and the air
    side respectively.  Construction rejects sides whose cells do not
    broadcast together and any cell whose normalisation vanishes.
    """

    side_a: SideCoefficients
    side_b: SideCoefficients
    phi1: float = 0.0
    phi3: float = 0.0

    def __post_init__(self) -> None:
        for name in ("phi1", "phi3"):
            object.__setattr__(self, name, reduce_phase(getattr(self, name), name))
        sides = {"a": self.side_a, "b": self.side_b}
        _check_broadcast("the cells of the two sides", **{f"{name}_{label}": getattr(side, name)
                                                          for label, side in sides.items() for name in "rtl"})
        for label, side in sides.items():
            denom = 1.0 + side.r**2 - side.t**2
            check_cells(denom > DEGENERACY_TOL, DegenerateTransparency,
                        f"1 + r^2 - t^2 = {{denom!r}} on side {label}; "
                        "the field normalisation is undefined", denom=denom)


@dataclass(frozen=True)
class SideRateTerms:
    """Coefficients entering the decay-rate formulas for one emitter side.

    ``r``, ``reflection_phase`` and ``eta_sq`` belong to light emitted
    towards the coating on the emitter's side; ``t_opposite`` and
    ``eta_opposite_sq`` to light leaking through from the far side, which
    enters only as ``t_opposite**2``, so no transmission phase is needed.
    All but the shared ``reflection_phase`` are arrays for an array coating.
    """

    r: float | np.ndarray
    reflection_phase: float
    t_opposite: float | np.ndarray
    eta_sq: float | np.ndarray
    eta_opposite_sq: float | np.ndarray

    def __post_init__(self) -> None:
        check_finite(self)


#: Least value of each count field of :class:`QuadratureSpec`.
SPEC_COUNTS = {"panels_per_oscillation": 1, "points_per_panel": 2, "min_panels": 1}


@dataclass(frozen=True)
class QuadratureSpec:
    """Panel layout and acceptance tolerance of the oracle quadrature.

    Kept beside the other validated records rather than in the oracle
    module, so that a sweep checks its settings without loading the oracles.
    """

    panels_per_oscillation: int = 4
    points_per_panel: int = 16
    min_panels: int = 8
    rel_tolerance: float = 1e-9

    def __post_init__(self) -> None:
        for name, least in SPEC_COUNTS.items():
            object.__setattr__(self, name, check_count(name, getattr(self, name), least))
        if self.points_per_panel > MAX_POINTS_PER_PANEL:
            raise DomainError(f"points_per_panel must be <= {MAX_POINTS_PER_PANEL}")
        tolerance = as_real("rel_tolerance", self.rel_tolerance, scalar=True)
        if not (0.0 < tolerance < math.inf):
            raise DomainError("rel_tolerance must be finite and > 0")
        object.__setattr__(self, "rel_tolerance", tolerance)


def validate_interface(
    r_a: float,
    t_a: float,
    l_a: float | None,
    r_b: float,
    t_b: float,
    l_b: float | None,
    phi1: float = 0.0,
    phi3: float = 0.0,
) -> MirrorInterface:
    """Construct a :class:`MirrorInterface` from raw coefficients.

    Parameters
    ----------
    r_a, t_a, l_a : float
        Amplitudes for light approaching from the air side.  A loss of
        ``None`` is implied as ``sqrt(1 - r**2 - t**2)``, as in
        :class:`SideCoefficients`.
    r_b, t_b, l_b : float
        Same for light approaching through the dielectric.
    phi1, phi3 : float
        Reflection phases on sides b and a; reduced to [0, 2*pi) on storage.

    Raises
    ------
    RangeError
        If any amplitude lies outside [0, 1].
    EnergyViolation
        If a side's amplitudes break ``r^2 + t^2 + l^2 = 1``.
    DegenerateTransparency
        If ``1 + r^2 - t^2`` is numerically zero on either side.
    """
    return MirrorInterface(
        SideCoefficients(r_a, t_a, l_a), SideCoefficients(r_b, t_b, l_b), phi1, phi3
    )


def lossless_interface(r: float, phi1: float = 0.0, phi3: float = 0.0) -> MirrorInterface:
    """Symmetric lossless coating with reflection amplitude ``r``.

    ``t = sqrt(1 - r**2)`` and ``l = 0`` on both sides.  ``r`` must lie in
    [0, 1); ``r = 0`` produces a fully transparent coating, which the
    interface constructor rejects as degenerate.
    """
    r = as_real("r", r)
    check_cells((0.0 <= r) & (r < 1.0), RangeError,
                "lossless reflection amplitude must be in [0, 1), got {r!r}", r=r)
    t = np.sqrt(1.0 - r * r)
    side = SideCoefficients(r, t, 0.0)
    return MirrorInterface(side, side, phi1, phi3)


def normalisation_constants(
    interface: MirrorInterface,
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Squared field normalisation constants ``(eta_a_sq, eta_b_sq)``.

    They satisfy ``(1 + r_a^2)/eta_a^2 + t_b^2/eta_b^2 = 1`` and the same
    with the sides swapped; for a symmetric coating both reduce to
    ``1 + r^2 + t^2``.  Each is a Python float for a scalar coating and an
    array for an array coating; a validated coating keeps both finite.
    """
    r_a, t_a = interface.side_a.r, interface.side_a.t
    r_b, t_b = interface.side_b.r, interface.side_b.t
    num_a = 1.0 + r_a * r_a - t_a * t_a
    num_b = 1.0 + r_b * r_b - t_b * t_b
    return (
        1.0 + r_a * r_a + (num_a / num_b) * (t_b * t_b),
        1.0 + r_b * r_b + (num_b / num_a) * (t_a * t_a),
    )


def side_rate_terms(interface: MirrorInterface, side: str) -> SideRateTerms:
    """Collect the coefficients the rate formulas need for one side: ``r``,
    the reflection phase and ``eta**2`` of the emitter's side, ``t`` and
    ``eta**2`` of the far side."""
    if _check_side(side) == "a":
        near, far, phase, index = interface.side_a, interface.side_b, interface.phi3, 0
    else:
        near, far, phase, index = interface.side_b, interface.side_a, interface.phi1, 1
    eta_sq = normalisation_constants(interface)
    return SideRateTerms(r=near.r, reflection_phase=phase, t_opposite=far.t,
                         eta_sq=eta_sq[index], eta_opposite_sq=eta_sq[1 - index])


def mirror_parameter(interface: MirrorInterface, side: str) -> float | np.ndarray:
    """Mirror parameter ``xi = 3 r cos(phase) / eta**2`` for one side.

    ``"a"`` uses the air-side reflection amplitude and ``phi3``, ``"b"``
    the dielectric-side amplitude and ``phi1``.  ``|xi| <= 1.5``; a Python
    float for a scalar coating and an array for an array coating.
    """
    terms = side_rate_terms(interface, side)
    return 3.0 * terms.r * math.cos(terms.reflection_phase) / terms.eta_sq


def refractive_index(medium: Medium) -> float:
    """``n = sqrt(eps_rel * mu_rel)``."""
    return math.sqrt(medium.eps_rel * medium.mu_rel)
