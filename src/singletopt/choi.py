"""Choi and dual-Choi states of qubit channels.

The Choi state is the two-qubit state obtained by sending half of |Phi+>
through the channel; it encodes the channel completely and its spectral
structure carries the optimal singlet fraction and optimal input state.
The dual Choi state (built analogously from the daggered Kraus operators)
is entrywise the swap-conjugate of the Choi state, so the two share a
spectrum and paired eigenvectors share Schmidt coefficients; that identity
is checked by the ``dual_choi_entrywise`` row of ``oneshot.IDENTITIES``,
not here.

Both states are built only for channels that pass
:func:`singletopt.channel.validate`, the package's one CPTP gate; a channel
that fails it raises ``ValueError``.  They are built from the matrices its
measurement took, those of the exact TP projection of an accepted channel
that misses TP by more than rounding.  :func:`build_states` is the one
build path: a channel's two states are built together, many channels' from
one stacked measurement and one batched eigendecomposition, and
:func:`choi` and :func:`dual_choi` are its one-channel case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import KrausChannel, _measure
from .linalg import SWAP, EigenDecomposition, eigenvalue_clusters, hermitian_eig

__all__ = [
    "ChoiState",
    "build_states",
    "choi",
    "choi_states",
    "dual_choi",
    "dual_choi_states",
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


@dataclass(frozen=True, eq=False)
class ChoiState:
    """A 4x4 Choi-type state with its eigendecomposition cached."""

    matrix: np.ndarray
    eig: EigenDecomposition
    source: str = ""


# Each kind of state's source label; its matrix is the one the stacked
# measurement took of the analyzed Kraus list, or of its daggers.
_SOURCES = {"choi": "{}", "dual_choi": "dual({})"}


def build_states(channels) -> None:
    """Build the Choi and dual-Choi states of ``channels`` in one pass.

    The distinct channels that lack either state are measured together by
    :func:`~singletopt.channel.validate`'s stacked pass, gated by the report
    it stored and, if accepted, labelled once.  Both kinds of matrix are
    eigendecomposed in one batched :func:`~singletopt.linalg.hermitian_eig`
    call, and each state is kept on its channel object, read-only.  Then
    raises ``ValueError`` for the first rejected channel, which stores no
    state.
    """
    todo = [c for c in dict.fromkeys(channels) if any(kind not in c._states for kind in _SOURCES)]
    if not todo:
        return
    _measure(todo)
    accepted = {c: c.describe() for c in todo if c._states["validation"].ok}
    owners = [(kind, c) for kind in _SOURCES for c in accepted if kind not in c._states]
    if owners:
        matrices = np.array([c._states[f"{kind}_matrix"] for kind, c in owners])
        matrices.setflags(write=False)
        eig = hermitian_eig(matrices, tol=1e-9)
        for k, (kind, c) in enumerate(owners):
            spectrum = EigenDecomposition(eig.eigenvalues[k], eig.eigenvectors[k])
            source = _SOURCES[kind].format(accepted[c])
            c._states[kind] = ChoiState(matrix=matrices[k], eig=spectrum, source=source)
    for channel in todo:
        if channel not in accepted:
            raise ValueError(f"channel is not CPTP: {channel._states['validation'].numbers()}")


def choi_states(channels) -> list:
    """The Choi state of each channel, the missing ones built together by
    :func:`build_states`; raises for the first channel ``validate`` rejects."""
    build_states(channels)
    return [c._states["choi"] for c in channels]


def dual_choi_states(channels) -> list:
    """The dual-Choi state of each channel; see :func:`choi_states`."""
    build_states(channels)
    return [c._states["dual_choi"] for c in channels]


def choi(channel: KrausChannel) -> ChoiState:
    """Choi state of a channel: send half of |Phi+> through it.

    The one-channel case of :func:`choi_states`: built with the dual-Choi
    state on the first call for a channel object, later calls return the
    same read-only state.  A channel that fails ``validate`` raises
    ``ValueError`` on every call, and no state is built for it.
    """
    state = channel._states.get("choi")
    return state if state is not None else choi_states([channel])[0]


def dual_choi(channel: KrausChannel) -> ChoiState:
    """Choi-type state of the dual map, built from the daggered Kraus list.

    The one-channel case of :func:`dual_choi_states`, gated, memoized and
    read-only as :func:`choi`.  Its maximally mixed marginal moves to the
    other side unless the channel is unital.  That it equals the
    swap-conjugate of :func:`choi` entrywise is the ``dual_choi_entrywise``
    row of ``oneshot.IDENTITIES``.
    """
    state = channel._states.get("dual_choi")
    return state if state is not None else dual_choi_states([channel])[0]


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
