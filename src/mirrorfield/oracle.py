"""Independent quadrature checks of the closed-form decay-rate ratio.

Two oracles are provided.  The 2D oracle integrates the squared
dipole-mode couplings of :mod:`mirrorfield.modes` over the full solid
angle; the 1D oracle integrates the distance kernel that remains after
the azimuthal integral is done analytically.  Both use composite
Gauss-Legendre panels along the normal direction cosine, with the panel
count scaled to the number of phase oscillations, so accuracy is uniform
in ``u``.

Both oracles run through one function, :func:`_refined`, which checks
the node budget, evaluates both refinement levels and compares them.  At
each level it sums the weighted kernel values in fixed leaves of whole
panels, never building the whole grid: a leaf is the whole panels that
hold at most ``LEAF_VALUES`` (16384) values, or one panel where a panel
holds more (only in the 2D oracle above 256 points per panel), and each
leaf builds the nodes and weights of its own panels.  Each call runs both
levels in one session of the calling thread plus helper threads it starts
and joins itself, up to ``MAX_WORKERS`` in all and one per usable CPU
(numpy releases the interpreter lock inside its loops).  The leaves are
dealt out in fixed strides: worker ``k`` of ``W`` takes leaves ``k, k + W,
...`` of the coarse level, then of the fine level.  Each leaf is summed
with ``np.sum`` and the leaf sums of a level with ``math.fsum``, which
rounds their exact total once, so a result does not depend on the worker
count or on the order in which leaves finish.  Each worker allocates one
workspace, sized for the largest leaf of either level, fills all its
leaves of both levels in it, and writes every grid-sized intermediate
into it.  A workspace is 48 bytes per node of a leaf for the 2D
oracle and 16 for the 1D oracle, at most about 0.8 and 0.26 MB (1.6 MB
for the 2D oracle at 512 points per panel), whatever ``u`` is.  Each leaf
also computes the edges of its own panels, so no array of an oracle call
grows with ``u``.  Both oracles count their fine-level nodes before
building any and raise :class:`QuadratureBudgetExceeded` above
``MAX_ORACLE_NODES``, which bounds their time.

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
    _check_side,
    check_finite,
    side_rate_terms,
)
from .modes import _ANGULAR_BUFFERS, _angular_integrand, _grid
from .rates import DipoleOrientation, check_u, relative_decay_rate

#: Fixed Gauss-Legendre order of the azimuthal rule.  The integrand is a
#: trigonometric polynomial of degree two in the azimuth, for which this
#: order is converged far below the tolerances used anywhere here.
PHI_ORDER = 32

#: Largest fine-level node count either oracle builds: panels times
#: ``2 * points_per_panel``, times ``PHI_ORDER`` for the 2D oracle.
MAX_ORACLE_NODES = 2**24

#: Both oracles sum their weighted values in fixed leaves of whole panels
#: that hold at most ``LEAF_VALUES`` values, or of one panel where a panel
#: holds more (see :func:`_leaf_rows`).  It sets the memory use and the
#: work per leaf; the result may move in its last bits with it.
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


#: One 1D workspace: two kernel grids, 16 bytes per node.
_DISTANCE_BUFFERS = (np.float64, np.float64)


def _distance_integrand(
    terms: SideRateTerms,
    alignment: float,
    u: float,
    nodes: np.ndarray,
    workspace: list[np.ndarray],
) -> np.ndarray:
    """Kernel in the normal direction cosine after the azimuthal integral.

    Evaluated in place: returns the second buffer of a workspace of
    ``_DISTANCE_BUFFERS`` holding the kernel at ``nodes`` as one column,
    with the first buffer as scratch; it overwrites ``nodes``.  Each
    operation keeps the operands and their order of the plain expression
    ``isotropic + oscillatory`` below, which keeps the bits:
    ``constant * (1 + a + (1 - 3a) v v) + k * (1 - 3a + (1 + a) v v) * cos(u v - phase)``.
    """
    oscillatory, isotropic = (_grid(buffer, (nodes.size, 1)) for buffer in workspace)
    v = nodes[:, None]
    constant = (1.0 + terms.r**2) / terms.eta_sq + (
        terms.t_opposite**2 / terms.eta_opposite_sq
    )
    np.multiply(1.0 - 3.0 * alignment, v, out=isotropic)
    np.multiply(isotropic, v, out=isotropic)
    np.add(1.0 + alignment, isotropic, out=isotropic)
    np.multiply(constant, isotropic, out=isotropic)
    np.multiply(1.0 + alignment, v, out=oscillatory)
    np.multiply(oscillatory, v, out=oscillatory)
    np.add(1.0 - 3.0 * alignment, oscillatory, out=oscillatory)
    np.multiply(2.0 * terms.r / terms.eta_sq, oscillatory, out=oscillatory)
    phase = np.multiply(u, v, out=v)
    np.subtract(phase, terms.reflection_phase, out=phase)
    np.multiply(oscillatory, np.cos(phase, out=phase), out=oscillatory)
    return np.add(isotropic, oscillatory, out=isotropic)


def _unit_scale(value: float) -> float:
    """``max(1, |value|)``: a rate ratio's scale, floored at one for checks near its zeros."""
    return max(1.0, abs(value))


def _refined(
    label: str,
    spec: QuadratureSpec,
    n_panels: int,
    kernel: Callable[[np.ndarray, list[np.ndarray]], np.ndarray],
    phi_weights: np.ndarray,
    dtypes: tuple[type, ...],
    scale: float,
) -> float:
    """``scale`` times the quadrature sum over ``n_panels`` panels at the
    configured and the doubled point count, in one :func:`_level_sums`
    session started only once the fine level is within ``MAX_ORACLE_NODES``.

    ``kernel(nodes, workspace)`` evaluates the integrand at a leaf's flat
    cos-theta nodes, one row per node and one column per azimuth weight in
    ``phi_weights``, and must leave the workspace's first buffer free: the
    leaf's weights go there, and their product with the kernel is summed.
    The two levels must agree to ``rel_tolerance`` relative to
    :func:`_unit_scale` of the fine level.
    """
    levels = (spec.points_per_panel, 2 * spec.points_per_panel)
    # One row per panel of all its values, at each level.
    shapes = [(n_panels, points * phi_weights.size) for points in levels]
    fine_nodes = shapes[1][0] * shapes[1][1]
    if fine_nodes > MAX_ORACLE_NODES:
        raise QuadratureBudgetExceeded(
            f"{label}: {fine_nodes} fine-level nodes exceed MAX_ORACLE_NODES={MAX_ORACLE_NODES}"
        )

    def fill(level: int, panels: slice, workspace: list[np.ndarray]) -> np.ndarray:
        cos_x, cos_w = _panel_nodes(n_panels, levels[level], panels)
        value = kernel(cos_x.ravel(), workspace)
        weights = _grid(workspace[0], value.shape, np.float64)
        np.multiply(cos_w.ravel()[:, None], phi_weights[None, :], out=weights)
        return np.multiply(weights, value, out=weights)

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
    u = check_u(u, scalar=True)
    n_panels = panel_count(u, spec)
    phi_x, phi_w = _phi_nodes()
    integrand = _angular_integrand(side_rate_terms(interface, side), dipole, u, phi_x)
    return _refined("2d oracle", spec, n_panels, integrand, phi_w, _ANGULAR_BUFFERS, 3.0 / (8.0 * math.pi))


def decay_rate_1d_oracle(
    interface: MirrorInterface,
    side: str,
    alignment: float,
    u: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Rate ratio from the single-axis distance-kernel quadrature."""
    alignment, u = _check_alignment(alignment), check_u(u, scalar=True)
    kernel = functools.partial(_distance_integrand, side_rate_terms(interface, side), alignment, u)
    return _refined("1d oracle", spec, panel_count(u, spec), kernel, np.ones(1), _DISTANCE_BUFFERS, 0.375)


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
