"""Dense complex linear algebra for 2x2 and 4x4 matrices.

Everything works on plain numpy arrays in the computational basis, which for
two-qubit objects is ordered |00>, |01>, |10>, |11> throughout the package.
Eigendecompositions are returned in a deterministic, phase-fixed form so that
downstream eigenvector selection is reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "I2",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "PAULIS",
    "PHI_PLUS",
    "PHI_MINUS",
    "PSI_PLUS",
    "PSI_MINUS",
    "SWAP",
    "MAGIC_BASIS",
    "EigenDecomposition",
    "tensor_product",
    "is_hermitian",
    "is_psd",
    "is_unitary",
    "hermitian_eig",
    "partial_transpose",
    "swap_conjugate",
    "to_magic_basis",
    "has_maximally_mixed_marginal",
]

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (I2, PAULI_X, PAULI_Y, PAULI_Z)

_SQRT2 = np.sqrt(2.0)
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / _SQRT2
PHI_MINUS = np.array([1, 0, 0, -1], dtype=complex) / _SQRT2
PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / _SQRT2
PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / _SQRT2

# |ij> -> |ji|
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

# Columns are the maximally entangled basis in which every maximally
# entangled state has real coordinates (up to a global phase).
MAGIC_BASIS = np.column_stack(
    [PHI_PLUS, 1j * PHI_MINUS, 1j * PSI_PLUS, PSI_MINUS]
)

# Eigenvalues closer than this are treated as tied when fixing the
# deterministic ordering.  This is a tie-break at rounding level, not a
# statement about physical degeneracy (see ``choi.DEGENERACY_GAP``):
# reordering eigenvectors whose eigenvalues differ by more than rounding
# would pair them with the wrong eigenvalues.
_TIE_TOL = 1e-12


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product in computational-basis ordering.

    Restricted to results of dimension at most 4 (this package never builds
    anything larger).  Leading axes of a stack of matrices ``a`` are batch
    axes: each matrix of the stack is multiplied by the matrix ``b``, bit for
    bit as alone.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[-1] * b.shape[-1] > 4:
        raise ValueError(
            f"tensor product dimension {a.shape[-1] * b.shape[-1]} exceeds 4"
        )
    return np.kron(a, b)


def is_hermitian(m: np.ndarray, tol: float = 1e-9) -> bool:
    m = np.asarray(m)
    return bool(np.linalg.norm(m - m.conj().T) <= tol)


def is_psd(m: np.ndarray, tol: float = 1e-9) -> bool:
    """Hermitian with all eigenvalues >= -tol."""
    if not is_hermitian(m, tol):
        return False
    return bool(np.linalg.eigvalsh(m).min() >= -tol)


def is_unitary(m: np.ndarray, tol: float = 1e-9) -> bool:
    m = np.asarray(m)
    return bool(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])) <= tol)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase of each vector along the last axis so its
    first largest-magnitude entry is real >= 0; zero vectors stay zero."""
    flat = v.reshape(-1, v.shape[-1])
    pivot = flat[np.arange(len(flat)), np.abs(flat).argmax(axis=1)]
    pivot = pivot.reshape(v.shape[:-1] + (1,))
    size = np.abs(pivot)
    return v * (pivot.conj() / np.where(size == 0.0, 1.0, size))


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectral decomposition of a Hermitian matrix, or of a stack of them.

    ``eigenvalues`` is real and sorted descending along its last axis;
    column ``k`` of ``eigenvectors`` is the unit eigenvector paired with
    ``eigenvalues[..., k]``, phase-fixed so its largest-magnitude component
    is real and nonnegative.  Leading axes, if any, are the stack's.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Return sum_k lambda_k |v_k><v_k|."""
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ v.conj().swapaxes(-1, -2)


def eigenvalue_clusters(eigenvalues: np.ndarray, gap: float):
    """Yield ``(start, stop)`` index ranges of clustered eigenvalues.

    ``eigenvalues`` is sorted descending; neighbors closer than ``gap``
    share a cluster, and a cluster grows for as long as that chain holds.
    """
    start, n = 0, len(eigenvalues)
    while start < n:
        stop = start + 1
        while stop < n and eigenvalues[stop - 1] - eigenvalues[stop] < gap:
            stop += 1
        yield start, stop
        start = stop


def hermitian_eig(m: np.ndarray, tol: float = 1e-9) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix with deterministic output.

    Eigenvalues are sorted descending.  Inside clusters of (numerically)
    equal eigenvalues the eigenvectors are ordered by a lexicographic key on
    their rounded, phase-fixed components, so repeated calls and degenerate
    spectra still produce a reproducible decomposition.  Leading axes of
    ``m`` are batch axes, as for :func:`partial_transpose`: a (..., n, n)
    stack is decomposed in one ``eigh`` call, matrix by matrix, and its
    tie-break is one stable ``np.lexsort`` over the whole stack, keyed by
    cluster and then by the rounded components, so each matrix comes out
    bit for bit as it would alone.

    Raises ``ValueError`` if any matrix is farther than ``tol`` from
    Hermitian (Frobenius norm).
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[-1]
    flat = m.reshape(-1, n, n)
    adjoint = flat.conj().swapaxes(1, 2)
    skew = np.abs(flat - adjoint)
    if not (np.sqrt((skew * skew).sum(axis=(1, 2))) <= tol).all():
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((flat + adjoint) / 2)
    rows = np.arange(len(w))[:, None]
    order = np.argsort(-w, axis=1, kind="stable")
    w = w[rows, order]
    vectors = v.swapaxes(1, 2)[rows, order]  # vectors[b, k] is eigenvector k

    # Canonical ordering inside clusters of tied eigenvalues (as in
    # :func:`eigenvalue_clusters`): by the rounded real, then imaginary,
    # parts of each phase-fixed vector.  Keyed first by cluster, one stable
    # sort moves vectors only inside their cluster; eigenvalues stay put.
    vectors = _fix_phase(vectors)
    parts = np.round(vectors.view(float).reshape(vectors.shape + (2,)), 10)
    keys = parts.transpose(3, 2, 0, 1).reshape(2 * n, len(w), n)  # real parts, then imaginary
    cluster = np.zeros(w.shape, dtype=int)
    np.cumsum(w[:, :-1] - w[:, 1:] >= _TIE_TOL, axis=1, out=cluster[:, 1:])
    order = np.lexsort(np.concatenate([keys[::-1], cluster[None]]))  # last key sorts first
    vectors = vectors[rows, order]

    w = w.reshape(m.shape[:-1])
    v = vectors.swapaxes(1, 2).reshape(m.shape)
    w.setflags(write=False)
    v.setflags(write=False)
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def partial_transpose(m: np.ndarray, subsystem: str = "first") -> np.ndarray:
    """Partial transpose of a two-qubit operator on the chosen factor.

    Leading axes of ``m`` are batch axes: a (..., 4, 4) stack is transposed
    matrix by matrix.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    t = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    if subsystem == "first":
        t = t.swapaxes(-4, -2)
    elif subsystem == "second":
        t = t.swapaxes(-3, -1)
    else:
        raise ValueError("subsystem must be 'first' or 'second'")
    return t.reshape(m.shape)


def swap_conjugate(m: np.ndarray) -> np.ndarray:
    """Return (V^dag m V)^* with V the two-qubit swap, conjugation in the
    computational basis.  Preserves the spectrum of Hermitian inputs."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    return (SWAP @ m @ SWAP).conj()


def to_magic_basis(m: np.ndarray) -> np.ndarray:
    """Conjugate a 4x4 operator into the magic basis.

    Maximally entangled pure states have real coordinate vectors there, so
    the real part of the transformed matrix governs overlaps with the
    maximally entangled manifold.  Leading axes of ``m`` are batch axes, as
    for :func:`partial_transpose`.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    return MAGIC_BASIS.conj().T @ m @ MAGIC_BASIS


def has_maximally_mixed_marginal(m: np.ndarray, tol: float) -> bool:
    """Whether the first-qubit marginal of a 4x4 operator is within ``tol``
    of I/2 (Frobenius norm)."""
    marginal = np.asarray(m).reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    return bool(np.linalg.norm(marginal - I2 / 2) <= tol)
