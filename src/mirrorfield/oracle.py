"""Independent quadrature checks of the closed-form decay-rate ratio.

Two oracles are provided, each for a coating of one cell.  The 2D oracle
integrates the squared dipole-mode couplings of :mod:`mirrorfield.modes`
over the full solid angle; the 1D oracle integrates the distance kernel
that remains after the azimuthal integral is done analytically.  Both use
composite Gauss-Legendre panels along the normal direction cosine, with
the panel count scaled to the number of phase oscillations, so accuracy
is uniform in ``u``.

Both run through :func:`_refined`, which checks the node budget and
compares two refinement levels.  Their kernels return the weighted values
at the nodes of one leaf, the whole panels that hold at most
``LEAF_VALUES`` values (or one larger panel); :func:`_level_sums` adds
the leaf sums of each level on up to ``MAX_WORKERS`` threads, rounding
once, so no result depends on the worker count.  The 2D kernel writes
every leaf-sized intermediate into a workspace of 48 bytes per node of a
worker's largest leaf; the 1D kernel is a plain expression and needs
none.  No array grows with ``u``, and a call over ``MAX_ORACLE_NODES``
fine-level nodes raises :class:`QuadratureBudgetExceeded` before any.

Neither oracle touches the closed-form bracket: agreement between the
three paths is the correctness check, not a construction.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureBudgetExceeded
from .interface import (
    MAX_POINTS_PER_PANEL,
    MirrorInterface,
    QuadratureSpec,
    SideRateTerms,
    _check_alignment,
    _check_one_cell,
    _check_side,
    check_finite,
    side_rate_terms,
)
from .modes import _ANGULAR_BUFFERS, _angular_integrand
from .rates import DipoleOrientation, check_u, relative_decay_rate

#: Fixed Gauss-Legendre order of the azimuthal rule.  The integrand is a
#: trigonometric polynomial of degree two in the azimuth, for which this
#: order is converged far below the tolerances used anywhere here.
PHI_ORDER = 32

#: Largest fine-level node count either oracle builds: panels times
#: ``2 * points_per_panel``, times ``PHI_ORDER`` for the 2D oracle.
MAX_ORACLE_NODES = 2**24

#: Most values of a leaf of whole panels, unless one panel holds more (see
#: :func:`_leaf_rows`).  It sets the memory use and the work per leaf; the
#: result may move in its last bits with it.
LEAF_VALUES = 16384

#: Most threads that evaluate leaves at once; fewer where this process may
#: use fewer CPUs.  It changes no result bit.
MAX_WORKERS = 4


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

    def __post_init__(self) -> None:
        _check_side(self.side)
        check_finite(self, "u", "alignment", "closed_form", "oracle_2d", "oracle_1d", "max_rel_error")


def panel_count(u: float, spec: QuadratureSpec) -> int:
    """Number of panels on [-1, 1]: at least ``min_panels``, growing as
    ``ceil(u / pi) * panels_per_oscillation`` once the phase oscillates.
    ``u`` must be one real number, as in both oracles."""
    u = check_u(u, scalar=True)
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


def _panels(n_panels: int, panels: slice) -> tuple[np.ndarray, np.ndarray]:
    """Centres and half-widths of the ``panels`` slice of ``n_panels`` equal
    panels on [-1, 1].  The edges are ``np.linspace(-1, 1, n_panels + 1)``
    to the bit, by its own formula: ``i * (2 / n_panels) - 1``, with the
    last edge set to 1."""
    edges = np.arange(panels.start, panels.stop + 1) * (2.0 / n_panels) - 1.0
    if panels.stop == n_panels:
        edges[-1] = 1.0
    return 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])


def _panel_nodes(n_panels: int, points: int, panels: slice) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of ``points`` points on each of the
    ``panels`` slice of ``n_panels`` equal panels, one row per panel."""
    base_x, base_w = _gauss_legendre(points)
    centres, half_width = (column[:, None] for column in _panels(n_panels, panels))
    return centres + half_width * base_x, half_width * base_w


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


def _leaf_rows(width: int) -> int:
    """Rows per leaf of a grid ``width`` values wide: as many whole rows as
    hold ``LEAF_VALUES`` values, and at least one."""
    return max(1, LEAF_VALUES // width)


def _level_sums(
    shapes: list[tuple[int, int]],
    fill: Callable[[int, slice, list[np.ndarray]], np.ndarray],
    dtypes: tuple[type, ...],
) -> list[float]:
    """Sum of each array of ``shapes``, whose rows ``fill(level, rows,
    workspace)`` computes for the array at ``level``, never built whole.

    Each array's rows are cut into fixed leaves of :func:`_leaf_rows` rows.
    The calling thread and helper threads, one worker for each leaf of the
    array with the most leaves and no more than :func:`_worker_count`, run
    in one session: worker ``k`` of ``W`` takes leaves ``k, k + W, ...`` of
    each array in turn, has ``fill`` compute their rows in its own
    workspace (one flat buffer of each of ``dtypes``, long enough for the
    largest leaf) and appends their ``np.sum`` to the array's list of leaf
    sums.  ``math.fsum`` then adds each list, rounding its exact total once,
    so no result depends on the worker count or on the order in which
    leaves finish.  The first exception from any worker, in its workspace
    or in a leaf, stops every worker before its next leaf and reaches the
    caller once every helper has been joined.
    """
    steps = [_leaf_rows(width) for _, width in shapes]
    size = max(min(step, rows) * width for (rows, width), step in zip(shapes, steps))
    workers = min(_worker_count(), max(-(-rows // step) for (rows, _), step in zip(shapes, steps)))
    sums: list[list[float]] = [[] for _ in shapes]
    errors: list[BaseException] = []

    def work(k: int) -> None:
        try:
            workspace = [np.empty(size, dtype) for dtype in dtypes]
            for level, ((n_rows, _), step) in enumerate(zip(shapes, steps)):
                for start in range(k * step, n_rows, workers * step):
                    if errors:  # another worker raised
                        return
                    rows = slice(start, min(start + step, n_rows))
                    sums[level].append(float(np.sum(fill(level, rows, workspace))))
        except BaseException as error:  # the caller re-raises it after the joins
            errors.append(error)

    helpers = [
        threading.Thread(target=work, args=(k,), name="mirrorfield-oracle") for k in range(1, workers)
    ]
    for helper in helpers:
        helper.start()
    work(0)
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return [math.fsum(level_sums) for level_sums in sums]


def _distance_integrand(
    terms: SideRateTerms,
    alignment: float,
    u: float,
    nodes: np.ndarray,
    weights: np.ndarray,
    workspace: list[np.ndarray],
) -> np.ndarray:
    """The kernel in the normal direction cosine ``v`` after the azimuthal
    integral, times ``weights``, at ``nodes``; ``workspace`` is empty:
    ``constant * (1 + a + (1 - 3a) v v) + 2 r / eta**2 * (1 - 3a + (1 + a) v v) * cos(u v - phase)``.
    ``constant``, ``(1 + r**2) / eta**2 + t_opp**2 / eta_opp**2``, is 1 by
    the normalisation; the oracle computes it to check that too."""
    constant = (1.0 + terms.r**2) / terms.eta_sq + terms.t_opposite**2 / terms.eta_opposite_sq
    isotropic = constant * (1.0 + alignment + (1.0 - 3.0 * alignment) * nodes * nodes)
    oscillatory = 2.0 * terms.r / terms.eta_sq * (1.0 - 3.0 * alignment + (1.0 + alignment) * nodes * nodes)
    return weights * (isotropic + oscillatory * np.cos(u * nodes - terms.reflection_phase))


def _unit_scale(value: float) -> float:
    """``max(1, |value|)``: a rate ratio's scale, floored at one for checks near its zeros."""
    return max(1.0, abs(value))


def _refined(
    label: str,
    spec: QuadratureSpec,
    n_panels: int,
    kernel: Callable[[np.ndarray, np.ndarray, list[np.ndarray]], np.ndarray],
    phi_count: int,
    dtypes: tuple[type, ...],
    scale: float,
) -> float:
    """``scale`` times the quadrature sum over ``n_panels`` panels at the
    configured and the doubled point count, in one :func:`_level_sums`
    session started only once the fine level is within ``MAX_ORACLE_NODES``.

    ``kernel(nodes, weights, workspace)`` returns the weighted values at a
    leaf's flat cos-theta nodes, ``phi_count`` per node, in a workspace of
    one buffer of each of ``dtypes``; their sum is the leaf's.  The two
    levels must agree to ``rel_tolerance`` relative to :func:`_unit_scale`
    of the fine level.
    """
    levels = (spec.points_per_panel, 2 * spec.points_per_panel)
    # One row per panel of all its values, at each level.
    shapes = [(n_panels, points * phi_count) for points in levels]
    fine_nodes = shapes[1][0] * shapes[1][1]
    if fine_nodes > MAX_ORACLE_NODES:
        raise QuadratureBudgetExceeded(
            f"{label}: {fine_nodes} fine-level nodes exceed MAX_ORACLE_NODES={MAX_ORACLE_NODES}"
        )

    def fill(level: int, panels: slice, workspace: list[np.ndarray]) -> np.ndarray:
        cos_x, cos_w = _panel_nodes(n_panels, levels[level], panels)
        return kernel(cos_x.ravel(), cos_w.ravel(), workspace)

    coarse, fine = (scale * total for total in _level_sums(shapes, fill, dtypes))
    if abs(fine - coarse) > spec.rel_tolerance * _unit_scale(fine):
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
    u, (phi_x, phi_w) = check_u(u, scalar=True), _phi_nodes()
    integrand = _angular_integrand(side_rate_terms(_check_one_cell(interface), side), dipole, u, phi_x, phi_w)
    scale = 3.0 / (8.0 * math.pi)
    return _refined("2d oracle", spec, panel_count(u, spec), integrand, phi_x.size, _ANGULAR_BUFFERS, scale)


def decay_rate_1d_oracle(
    interface: MirrorInterface,
    side: str,
    alignment: float,
    u: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Rate ratio from the single-axis distance-kernel quadrature."""
    alignment, u = _check_alignment(alignment), check_u(u, scalar=True)
    kernel = functools.partial(_distance_integrand, side_rate_terms(_check_one_cell(interface), side), alignment, u)
    return _refined("1d oracle", spec, panel_count(u, spec), kernel, 1, (), 0.375)


def oracle_compare(
    interface: MirrorInterface,
    side: str,
    dipole: DipoleOrientation,
    u: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> OracleReport:
    """Evaluate the closed form and both oracles for one configuration.

    ``max_rel_error`` is the larger oracle deviation relative to
    :func:`_unit_scale` of the closed form, as in the refinement check.
    """
    u, alignment = check_u(u, scalar=True), dipole.alignment
    closed = relative_decay_rate(interface, side, alignment, u)
    from_2d = decay_rate_2d_oracle(interface, side, dipole, u, spec)
    from_1d = decay_rate_1d_oracle(interface, side, alignment, u, spec)
    max_rel = max(abs(from_2d - closed), abs(from_1d - closed)) / _unit_scale(closed)
    return OracleReport(
        u=u,
        alignment=alignment,
        side=side,
        closed_form=closed,
        oracle_2d=from_2d,
        oracle_1d=from_1d,
        max_rel_error=max_rel,
    )
