"""Vectorized building blocks for the derivative-free searches.

All functions operate on stacks of small matrices (leading batch axis) so
the optimizers can evaluate hundreds of candidates per objective call.
"""

from __future__ import annotations

import numpy as np

from .linalg import I2, MAGIC_BASIS


def su2_euler_batch(alpha, beta, gamma) -> np.ndarray:
    """Stack of SU(2) matrices Rz(alpha) Ry(beta) Rz(gamma)."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    c = np.cos(beta / 2)
    s = np.sin(beta / 2)
    plus = np.exp(-0.5j * (alpha + gamma))
    minus = np.exp(-0.5j * (alpha - gamma))
    out = np.empty(np.broadcast(alpha, beta, gamma).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = plus * c
    out[..., 0, 1] = -minus * s
    out[..., 1, 0] = minus.conj() * s
    out[..., 1, 1] = plus.conj() * c
    return out


def kron_left_identity(a: np.ndarray) -> np.ndarray:
    """Batched I (x) A for a stack of 2x2 matrices."""
    return np.einsum("ac,...bd->...abcd", I2, a).reshape(a.shape[:-2] + (4, 4))


def magic_top_eig_batch(m: np.ndarray) -> np.ndarray:
    """lambda_max of Re(Q^dag M Q) for a stack of Hermitian 4x4 matrices.

    This is the (unnormalized) maximal overlap with the maximally entangled
    manifold: the magic basis makes that manifold the real unit sphere.
    """
    transformed = MAGIC_BASIS.conj().T @ m @ MAGIC_BASIS
    sym = transformed.real
    sym = (sym + np.swapaxes(sym, -1, -2)) / 2
    return np.linalg.eigvalsh(sym)[..., -1]


def filter_basis(rho: np.ndarray) -> np.ndarray:
    """The 16 matrices B with (A (x) I) rho (A (x) I)^dag = sum c_kilj B_kilj.

    The filtered state is quadratic in the filter's entries, with
    coefficients c_kilj = A_ki conj(A_lj) from :func:`filter_coefficients`;
    B_kilj = |k><l| (x) rho_ij, where rho_ij is the (i, j) block of ``rho``
    on the second qubit.  Returned as a (16, 4, 4) stack indexed by
    (k, i, l, j) in row-major order.
    """
    blocks = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)  # (i, y, j, z)
    basis = np.einsum("kK,lL,iyjz->kiljKyLz", I2, I2, blocks)
    return basis.reshape(16, 4, 4)


def filter_coefficients(a: np.ndarray) -> np.ndarray:
    """(n, 16) products A_ki conj(A_lj) for a stack of 2x2 filters.

    ``filter_coefficients(a) @ filter_basis(rho).reshape(16, 16)`` gives the
    flattened filtered states (A (x) I) rho (A (x) I)^dag.
    """
    flat = np.asarray(a, dtype=complex).reshape(-1, 4)
    return (flat[:, :, None] * flat.conj()[:, None, :]).reshape(-1, 16)
