"""Independent quadrature checks of the closed-form decay-rate ratio.

Two oracles are provided.  The 2D oracle integrates the squared
dipole-mode couplings over the full solid angle; the 1D oracle integrates
the distance kernel that remains after the azimuthal integral is done
analytically.  Both use composite Gauss-Legendre panels along the normal
direction cosine, with the panel count scaled to the number of phase
oscillations, so accuracy is uniform in ``u``.

The 2D oracle evaluates its integrand in blocks of ``ROWS_PER_BLOCK``
(512) cos-theta rows, the 1D oracle in blocks of whole panels with at most
as many nodes as one 2D block (16384).  Each keeps only the weighted values
of its whole grid, about 8 bytes per fine-level node, plus about 1 MB of
temporaries per block in flight.  The blocks write disjoint slices of that
one array on up to ``MAX_WORKERS`` threads, one per usable CPU (numpy
releases the interpreter lock inside its loops), and the array is summed
once when all are done, so every result has the same bits whatever the
worker count.  Both oracles count their fine-level nodes before building
any and raise :class:`QuadratureBudgetExceeded` above ``MAX_ORACLE_NODES``.

Neither oracle touches the closed-form bracket: agreement between the
three paths is the correctness check, not a construction.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, QuadratureBudgetExceeded
from .interface import MirrorInterface, SideRateTerms, side_rate_terms
from .rates import DipoleOrientation, check_u, relative_decay_rate

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

#: Fixed Gauss-Legendre order of the azimuthal rule.  The integrand is a
#: trigonometric polynomial of degree two in the azimuth, for which this
#: order is converged far below the tolerances used anywhere here.
PHI_ORDER = 32

#: Largest Gauss-Legendre order per panel a spec may ask for; the rule
#: costs a dense eigenproblem of twice this order at the fine level.
MAX_POINTS_PER_PANEL = 512

#: Largest fine-level node count either oracle builds: panels times
#: ``2 * points_per_panel``, times ``PHI_ORDER`` for the 2D oracle.
MAX_ORACLE_NODES = 2**24

#: cos-theta rows of the 2D grid evaluated at once; the 1D oracle takes
#: whole panels up to ``ROWS_PER_BLOCK * PHI_ORDER`` nodes at once.  The
#: weighted values are written to one array and summed there, so this
#: changes memory use, not the summation order or the result.
ROWS_PER_BLOCK = 512

#: Most threads that evaluate blocks at once; fewer where this process may
#: use fewer CPUs.  Like the block size, it changes no result bit.
MAX_WORKERS = 4


@dataclass(frozen=True)
class QuadratureSpec:
    """Panel layout and acceptance tolerance of the oracle quadrature."""

    panels_per_oscillation: int = 4
    points_per_panel: int = 16
    min_panels: int = 8
    rel_tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if self.panels_per_oscillation < 1:
            raise DomainError("panels_per_oscillation must be >= 1")
        if self.points_per_panel < 2:
            raise DomainError("points_per_panel must be >= 2")
        if self.points_per_panel > MAX_POINTS_PER_PANEL:
            raise DomainError(f"points_per_panel must be <= {MAX_POINTS_PER_PANEL}")
        if self.min_panels < 1:
            raise DomainError("min_panels must be >= 1")
        if not (0.0 < self.rel_tolerance < math.inf):
            raise DomainError("rel_tolerance must be finite and > 0")


DEFAULT_QUADRATURE = QuadratureSpec()


@dataclass(frozen=True)
class OracleReport:
    """Side-by-side results of the closed form and both oracles."""

    u: float
    alignment: float
    side: str
    closed_form: float
    oracle_2d: float
    oracle_1d: float
    max_rel_error: float


def panel_count(u: float, spec: QuadratureSpec) -> int:
    """Number of panels on [-1, 1]: at least ``min_panels``, growing as
    ``ceil(u / pi) * panels_per_oscillation`` once the phase oscillates."""
    check_u(u)
    return max(spec.min_panels, math.ceil(u / math.pi) * spec.panels_per_oscillation)


@functools.cache
def _gauss_legendre(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], one solve per order.

    Orders are at most ``2 * MAX_POINTS_PER_PANEL``, which bounds the cache.
    """
    from numpy.polynomial.legendre import leggauss  # only the oracles pay its import

    nodes, weights = leggauss(points)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _panels(n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Centres and half-widths of ``n_panels`` equal panels on [-1, 1]."""
    edges = np.linspace(-1.0, 1.0, n_panels + 1)
    return 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])


def _composite_nodes(
    centres: np.ndarray, half_width: np.ndarray, points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the given panels, one row per panel."""
    base_x, base_w = _gauss_legendre(points)
    nodes = centres[:, None] + half_width[:, None] * base_x[None, :]
    weights = half_width[:, None] * base_w[None, :]
    return nodes, weights


def _phi_nodes() -> tuple[np.ndarray, np.ndarray]:
    base_x, base_w = _gauss_legendre(PHI_ORDER)
    return math.pi * (base_x + 1.0), math.pi * base_w


def _worker_count() -> int:
    """CPUs this process may run on, capped at ``MAX_WORKERS``."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        usable = os.cpu_count() or 1
    return min(MAX_WORKERS, usable)


@functools.cache
def _pool(workers: int, pid: int) -> ThreadPoolExecutor:
    """One lazily started thread pool per worker count and process.

    Keyed by the process id too, because a forked child inherits the
    cached pool but none of its threads.
    """
    from concurrent.futures import ThreadPoolExecutor  # only the oracles pay its import

    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="mirrorfield-oracle")


def _blocked_sum(
    shape: tuple[int, int], rows_per_block: int, fill: Callable[[slice, np.ndarray], None]
) -> float:
    """Sum an array whose row blocks ``fill(rows, out)`` writes on the pool.

    Each call writes only ``out``, its own slice of rows, so the blocks may
    run in any order and at once.  The array is summed in one pass when all
    are done: summing per block would change the order and the bits.  An
    exception from any block reaches the caller.
    """
    weighted = np.empty(shape)

    def run(start: int) -> None:
        rows = slice(start, start + rows_per_block)
        fill(rows, weighted[rows])

    pool = _pool(_worker_count(), os.getpid())
    for _ in pool.map(run, range(0, shape[0], rows_per_block)):
        pass
    return float(np.sum(weighted))


def _angular_integrand(
    terms: SideRateTerms,
    dipole: DipoleOrientation,
    u: float,
    phi_nodes: np.ndarray,
) -> Callable[[np.ndarray], np.ndarray]:
    """Squared couplings summed over polarisations and photon species.

    Returns a function of a block of cos theta nodes that evaluates the
    integrand on the (block, phi) product grid; the factors that depend on
    the azimuth alone are computed once here.  Mirrors the scalar coupling
    amplitudes of :mod:`mirrorfield.modes`.
    """
    cos_phi = np.cos(phi_nodes)[None, :]
    sin_phi = np.sin(phi_nodes)[None, :]

    d1c = complex(dipole.d1).conjugate()
    d2c = complex(dipole.d2).conjugate()
    d3c = complex(dipole.d3).conjugate()

    # d* . e for both transverse vectors, and the image-dipole variants:
    # the first is p1 itself, the second is q2 below.
    p1 = d2c * sin_phi - d3c * cos_phi
    transverse = d2c * cos_phi + d3c * sin_phi

    reflect = terms.r * np.exp(1j * terms.reflection_phase)
    reflected_p1 = reflect * p1
    eta = math.sqrt(terms.eta_sq)
    p1_sq = np.abs(p1) ** 2
    transmitted_weight = terms.t_opposite**2 / terms.eta_opposite_sq

    def block(cos_nodes: np.ndarray) -> np.ndarray:
        c = cos_nodes[:, None]
        s = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
        transverse_c = transverse * c
        p2 = d1c * s - transverse_c
        q2 = -d1c * s - transverse_c
        del transverse_c
        # reflect * q2 in place; ``q2 *= reflect`` would change the bits.
        np.multiply(reflect, q2, out=q2)

        travel = np.exp(1j * 0.5 * u * c)
        back = np.conj(travel)
        g2 = (p2 * travel + q2 * back) / eta
        del q2
        far_side = transmitted_weight * (p1_sq + np.abs(p2) ** 2)
        del p2
        g1 = (p1 * travel + reflected_p1 * back) / eta
        same_side = np.abs(g1) ** 2 + np.abs(g2) ** 2
        return same_side + far_side

    return block


def _distance_integrand(
    terms: SideRateTerms, alignment: float, u: float, v: np.ndarray
) -> np.ndarray:
    """Kernel in the normal direction cosine after the azimuthal integral."""
    constant = (1.0 + terms.r**2) / terms.eta_sq + (
        terms.t_opposite**2 / terms.eta_opposite_sq
    )
    isotropic = constant * (1.0 + alignment + (1.0 - 3.0 * alignment) * v * v)
    oscillatory = (
        2.0
        * terms.r
        / terms.eta_sq
        * (1.0 - 3.0 * alignment + (1.0 + alignment) * v * v)
        * np.cos(u * v - terms.reflection_phase)
    )
    return isotropic + oscillatory


def _check_budget(label: str, fine_nodes: int) -> None:
    """Refuse a quadrature whose doubled level would exceed the node budget."""
    if fine_nodes > MAX_ORACLE_NODES:
        raise QuadratureBudgetExceeded(
            f"{label}: {fine_nodes} fine-level nodes exceed "
            f"MAX_ORACLE_NODES={MAX_ORACLE_NODES}"
        )


def _refined(label: str, spec: QuadratureSpec, evaluate) -> float:
    """Run ``evaluate`` at the configured and doubled point counts.

    The coarse and fine results must agree to ``rel_tolerance`` relative
    to ``max(1, |fine|)``; the ratio scale is of order one, so the unit
    floor keeps the check meaningful at suppression zeros.
    """
    coarse = evaluate(spec.points_per_panel)
    fine = evaluate(2 * spec.points_per_panel)
    if abs(fine - coarse) > spec.rel_tolerance * max(1.0, abs(fine)):
        raise QuadratureBudgetExceeded(
            f"{label}: refinement levels disagree "
            f"({coarse!r} vs {fine!r}) beyond rel_tolerance={spec.rel_tolerance!r}"
        )
    return fine


def decay_rate_2d_oracle(
    interface: MirrorInterface,
    side: str,
    dipole: DipoleOrientation,
    u: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Rate ratio from the full solid-angle quadrature."""
    check_u(u)
    terms = side_rate_terms(interface, side)
    n_panels = panel_count(u, spec)
    _check_budget("2d oracle", n_panels * 2 * spec.points_per_panel * PHI_ORDER)
    phi_x, phi_w = _phi_nodes()
    integrand = _angular_integrand(terms, dipole, u, phi_x)

    def evaluate(points: int) -> float:
        cos_x, cos_w = _composite_nodes(*_panels(n_panels), points)
        cos_x, cos_w = cos_x.ravel(), cos_w.ravel()

        def fill(rows: slice, out: np.ndarray) -> None:
            # The weights first, then times the integrand in place.
            np.multiply(cos_w[rows, None], phi_w[None, :], out=out)
            np.multiply(out, integrand(cos_x[rows]), out=out)

        return 3.0 / (8.0 * math.pi) * _blocked_sum((cos_x.size, PHI_ORDER), ROWS_PER_BLOCK, fill)

    return _refined("2d oracle", spec, evaluate)


def decay_rate_1d_oracle(
    interface: MirrorInterface,
    side: str,
    alignment: float,
    u: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Rate ratio from the single-axis distance-kernel quadrature."""
    check_u(u)
    if not (0.0 <= alignment <= 1.0):
        raise DomainError(f"alignment must be in [0, 1], got {alignment!r}")
    terms = side_rate_terms(interface, side)
    n_panels = panel_count(u, spec)
    _check_budget("1d oracle", n_panels * 2 * spec.points_per_panel)

    centres, half_width = _panels(n_panels)

    def evaluate(points: int) -> float:
        def fill(panels: slice, out: np.ndarray) -> None:
            nodes, weights = _composite_nodes(centres[panels], half_width[panels], points)
            np.multiply(weights, _distance_integrand(terms, alignment, u, nodes), out=out)

        panels_per_block = max(1, ROWS_PER_BLOCK * PHI_ORDER // points)
        return 0.375 * _blocked_sum((n_panels, points), panels_per_block, fill)

    return _refined("1d oracle", spec, evaluate)


def oracle_compare(
    interface: MirrorInterface,
    side: str,
    dipole: DipoleOrientation,
    u: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> OracleReport:
    """Evaluate the closed form and both oracles for one configuration.

    ``max_rel_error`` is the larger oracle deviation measured against
    ``max(1, |closed form|)``, the same unit-floored scale used by the
    refinement check.
    """
    alignment = dipole.alignment
    closed = relative_decay_rate(interface, side, alignment, u)
    from_2d = decay_rate_2d_oracle(interface, side, dipole, u, spec)
    from_1d = decay_rate_1d_oracle(interface, side, alignment, u, spec)
    scale = max(1.0, abs(closed))
    max_rel = max(abs(from_2d - closed), abs(from_1d - closed)) / scale
    return OracleReport(
        u=u,
        alignment=alignment,
        side=side,
        closed_form=closed,
        oracle_2d=from_2d,
        oracle_1d=from_1d,
        max_rel_error=max_rel,
    )
