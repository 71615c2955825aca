"""Choi and dual-Choi states of qubit channels.

The Choi state is the two-qubit state obtained by sending half of |Phi+>
through the channel; it encodes the channel completely and its spectral
structure carries the optimal singlet fraction and optimal input state.
The dual Choi state (built analogously from the daggered Kraus operators)
is entrywise the swap-conjugate of the Choi state, so the two share a
spectrum and paired eigenvectors share Schmidt coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import KrausChannel, apply_to_half, dual
from .linalg import (
    PHI_PLUS,
    SWAP,
    EigenDecomposition,
    eigenvalue_clusters,
    has_maximally_mixed_marginal,
    hermitian_eig,
    swap_conjugate,
)

__all__ = [
    "ChoiState",
    "choi",
    "dual_choi",
    "eigenvector_correspondence_check",
    "DEGENERACY_GAP",
    "ENTANGLEMENT_BREAKING_THRESHOLD",
]

# Below this eigenvalue gap, neighboring eigenvectors are treated as a
# degenerate subspace: individually they are not well defined, since a
# perturbation of rounding size rotates them by up to rounding / gap.  This
# is physical degeneracy, far coarser than the rounding-level tie-break
# ``linalg.hermitian_eig`` uses to order eigenvectors.
DEGENERACY_GAP = 1e-8

# A channel whose Choi top eigenvalue does not exceed 1/2 leaves no usable
# entanglement after a single use; the classical value 1/2 is then reported.
ENTANGLEMENT_BREAKING_THRESHOLD = 0.5 + 1e-12

# How far from I/2 the first marginal of a Choi state may be.  Built from
# Kraus operators it is exact up to rounding, so a larger deviation means
# the channel is not trace preserving.
_MARGINAL_TOL = 1e-10


@dataclass(frozen=True)
class ChoiState:
    """A 4x4 Choi-type state with its eigendecomposition cached."""

    matrix: np.ndarray
    eig: EigenDecomposition
    source: str = ""


def _build(matrix: np.ndarray, source: str, check_marginal: bool) -> ChoiState:
    trace = np.trace(matrix).real
    if abs(trace - 1.0) > 1e-12:
        raise ValueError(f"Choi matrix has trace {trace}, expected 1")
    eig = hermitian_eig(matrix, tol=1e-9)
    if eig.eigenvalues.min() < -1e-9:
        raise ValueError("Choi matrix is not positive semidefinite")
    if check_marginal and not has_maximally_mixed_marginal(matrix, _MARGINAL_TOL):
        raise ValueError("Choi matrix first marginal is not maximally mixed")
    frozen = np.array(matrix)
    frozen.setflags(write=False)
    return ChoiState(matrix=frozen, eig=eig, source=source)


def choi(channel: KrausChannel) -> ChoiState:
    """Choi state of a channel: send half of |Phi+> through it.

    Built and checked on the first call for a channel object; later calls
    return the same read-only state.  Only a state that passed its checks is
    stored, so a channel that fails them raises again on every call.
    """
    state = channel._states.get("choi")
    if state is None:
        matrix = apply_to_half(channel, PHI_PLUS)
        state = _build(matrix, channel.describe(), check_marginal=True)
        channel._states["choi"] = state
    return state


def dual_choi(channel: KrausChannel) -> ChoiState:
    """Choi-type state of the dual map.

    Constructed from the daggered Kraus list and cross-checked against the
    independent identity dual = (V^dag choi V)^*, so both construction paths
    are exercised once per channel object; later calls return the same
    read-only state, as for :func:`choi`.  Unit trace and positivity always
    hold, but the maximally mixed marginal moves to the other side unless
    the channel is unital, so no marginal condition is imposed here.
    """
    state = channel._states.get("dual_choi")
    if state is None:
        matrix = apply_to_half(dual(channel), PHI_PLUS)
        mirrored = swap_conjugate(apply_to_half(channel, PHI_PLUS))
        mismatch = np.abs(matrix - mirrored).max()
        if mismatch > 1e-12:
            raise AssertionError(
                f"dual Choi construction mismatch ({mismatch:.3e}): "
                "Kraus route and swap-conjugate route disagree"
            )
        state = _build(matrix, f"dual({channel.describe()})", check_marginal=False)
        channel._states["dual_choi"] = state
    return state


def _phase_aligned_distance(candidate: np.ndarray, target: np.ndarray) -> float:
    """Distance between unit vectors minimized over a global phase.

    Computed as an explicit difference after rotating the candidate's phase
    onto the target (the closed form sqrt(2 - 2|overlap|) bottoms out at
    sqrt(machine epsilon) and would mask genuinely tiny residuals).
    """
    overlap = np.vdot(target, candidate)
    if abs(overlap) == 0.0:
        return float(np.sqrt(2.0))
    aligned = candidate * (overlap.conjugate() / abs(overlap))
    return float(np.linalg.norm(aligned - target))


def eigenvector_correspondence_check(channel: KrausChannel) -> float:
    """Largest residual of the swap-conjugate eigenvector pairing.

    Mapping each Choi eigenvector v through (V^dag v)^* must reproduce the
    dual-Choi eigenvector of the same eigenvalue (up to phase).  Where the
    spectrum is degenerate (gap below ``DEGENERACY_GAP``) individual vectors
    are not defined, so whole eigenspaces are compared through their
    projectors instead.
    """
    forward = choi(channel).eig
    backward = dual_choi(channel).eig
    worst = 0.0
    for start, stop in eigenvalue_clusters(forward.eigenvalues, DEGENERACY_GAP):
        if stop - start == 1:
            mapped = (SWAP @ forward.eigenvectors[:, start]).conj()
            residual = _phase_aligned_distance(mapped, backward.eigenvectors[:, start])
        else:
            block = forward.eigenvectors[:, start:stop]
            mapped = (SWAP @ block).conj()
            proj_mapped = mapped @ mapped.conj().T
            dual_block = backward.eigenvectors[:, start:stop]
            proj_dual = dual_block @ dual_block.conj().T
            residual = float(np.linalg.norm(proj_mapped - proj_dual))
        worst = max(worst, residual)
    return worst
