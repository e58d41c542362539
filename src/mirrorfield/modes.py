"""The dipole-mode coupling near the coating: the kernel of the 2D oracle.

Directions are parametrised so that the first Cartesian axis is normal to
the coating: ``k_hat = (cos th, cos ph sin th, sin ph sin th)``.  The two
transverse polarisation vectors are

    e1 = (0, sin ph, -cos ph)
    e2 = (sin th, -cos ph cos th, -sin ph cos th)

Each dressed mode is its direct wave plus the phase-shifted mirror image,
divided by ``eta`` (the image-detector construction).  The image negates
the normal component of position and field, so a dipole coupling to the
image field sees its normal component flipped, ``d_image = (-d1, d2, d3)``.
For the photon species on the emitter's side the coupling is

    g = (d* . e exp(i u c / 2) + r e^{i phase} d_image* . e exp(-i u c / 2)) / eta

with ``c = cos th``; the far-side species contributes only its transmitted
wave, of squared magnitude ``(t_opp / eta_opp)**2 |d* . e|**2``.  In
:func:`_angular_integrand`, ``p1 = d* . e1`` (which ``d_image* . e1``
equals, since ``e1`` has no normal component), ``p2 = d* . e2`` and
``q2 = r e^{i phase} d_image* . e2``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

# The kernel needs numpy alone; these imports serve annotations only.
if TYPE_CHECKING:
    from .interface import SideRateTerms
    from .rates import DipoleOrientation


def _grid(buffer: np.ndarray, shape: tuple[int, int], dtype: type | None = None) -> np.ndarray:
    """The start of a flat workspace buffer as a C-contiguous array of
    ``shape``, read as ``dtype`` (by default the buffer's own)."""
    flat = buffer if dtype is None else buffer.view(dtype)
    return flat[: shape[0] * shape[1]].reshape(shape)


#: One 2D workspace: flat buffers of one value per node of a worker's
#: largest leaf, two complex and two real, 48 bytes per node.
_ANGULAR_BUFFERS = (np.complex128, np.complex128, np.float64, np.float64)


def _angular_integrand(
    terms: SideRateTerms,
    dipole: DipoleOrientation,
    u: float,
    phi_nodes: np.ndarray,
    phi_weights: np.ndarray,
) -> Callable[[np.ndarray, np.ndarray, list[np.ndarray]], np.ndarray]:
    """Squared couplings summed over polarisations and photon species.

    Returns a function of a block of cos theta nodes, their weights and a
    workspace of ``_ANGULAR_BUFFERS`` that returns the weighted values at
    the nodes: the integrand on the (block, phi) product grid times
    ``cos_weights ⊗ phi_weights``.  The couplings are those of the module
    docstring: ``|g1|**2 + |g2|**2`` on the emitter's side, one per
    polarisation, plus the far side's transmitted share.

    The factors that depend on the azimuth alone are computed once here,
    and every intermediate of the size of the grid is written into the
    workspace.  Each operation keeps the operands and their order of the
    plain expression ``(p2 * travel + q2 * back) / eta`` and so on, which
    keeps the bits.
    """
    cos_phi = np.cos(phi_nodes)[None, :]
    sin_phi = np.sin(phi_nodes)[None, :]

    d1c, d2c, d3c = (d.conjugate() for d in (dipole.d1, dipole.d2, dipole.d3))

    # d* . e for both transverse vectors, and the image-dipole variants:
    # the first is p1 itself, the second is q2 below.
    p1 = d2c * sin_phi - d3c * cos_phi
    transverse = d2c * cos_phi + d3c * sin_phi

    reflect = terms.r * np.exp(1j * terms.reflection_phase)
    reflected_p1 = reflect * p1
    # Dividing by the real eta is multiplying by its inverse, bit for bit
    # in every value that reaches the squared magnitudes.
    inverse_eta = 1.0 / math.sqrt(terms.eta_sq)
    p1_sq = np.abs(p1) ** 2
    transmitted_weight = terms.t_opposite**2 / terms.eta_opposite_sq

    def block(cos_nodes: np.ndarray, cos_weights: np.ndarray, workspace: list[np.ndarray]) -> np.ndarray:
        shape = (len(cos_nodes), phi_nodes.size)
        first, second, same_side, far_side = (_grid(buffer, shape) for buffer in workspace)
        c = cos_nodes[:, None]
        s = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
        travel = np.exp(1j * 0.5 * u * c)
        back = np.conj(travel)
        # same_side = |g1|**2 with g1 = (p1 * travel + reflected_p1 * back) / eta,
        # first, so that both complex buffers are free for p2 and q2.
        g1 = np.multiply(p1, travel, out=first)
        np.add(g1, np.multiply(reflected_p1, back, out=second), out=g1)
        np.multiply(g1, inverse_eta, out=g1)
        np.square(np.abs(g1, out=same_side), out=same_side)

        transverse_c = np.multiply(transverse, c, out=second)
        p2 = np.subtract(d1c * s, transverse_c, out=first)
        q2 = np.subtract(-d1c * s, transverse_c, out=second)
        # reflect * q2 in place; ``q2 *= reflect`` would change the bits.
        np.multiply(reflect, q2, out=q2)
        # far_side = transmitted_weight * (p1_sq + |p2|**2)
        np.square(np.abs(p2, out=far_side), out=far_side)
        np.multiply(transmitted_weight, np.add(p1_sq, far_side, out=far_side), out=far_side)

        # g2 = (p2 * travel + q2 * back) / eta, in p2's buffer, and |g2|**2
        # in the real view of q2's, which g2 has consumed.
        g2 = np.multiply(p2, travel, out=first)
        np.add(g2, np.multiply(q2, back, out=q2), out=g2)
        np.multiply(g2, inverse_eta, out=g2)
        g2_sq = np.abs(g2, out=_grid(workspace[1], shape, np.float64))
        np.square(g2_sq, out=g2_sq)
        # |g1|**2 + |g2|**2 + far_side, times the weights in the real view of
        # the first buffer, whose g2 is spent.
        np.add(same_side, g2_sq, out=same_side)
        np.add(same_side, far_side, out=same_side)
        weights = np.multiply.outer(cos_weights, phi_weights, out=_grid(workspace[0], shape, np.float64))
        return np.multiply(weights, same_side, out=weights)

    return block
