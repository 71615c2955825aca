"""Filter picture shared by the two derivative-free oracle searches.

Each search scores a stack of one-sided filters A on a fixed two-qubit
state rho through the filtered states (A (x) I) rho (A (x) I)^dag.  Those
are quadratic in the filter's entries, so :func:`filter_basis` turns rho
into 16 matrices once, :func:`magic_filter_table` folds in the magic basis
plus the trace, and :func:`apply_filter_table` scores a whole stack with
one matrix product.  Both searches depend on their filter only through
A^dag A, so a left unitary factor cancels and :func:`filter_batch` needs two
Euler angles, not three.
"""

from __future__ import annotations

import numpy as np

from .linalg import I2, to_magic_basis
from .optimize import SearchSpec

# Search parameters (weight, alpha, beta): the weight is clipped to [0, 1],
# the two angles wrap at 2 pi.
FILTER_SPEC = SearchSpec.build(3, clip={0: (0.0, 1.0)}, wrap={1: 2 * np.pi, 2: 2 * np.pi})


def random_filter_params(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 3) random starts: weight from U[0, 1), then alpha from
    U[0, 2 pi), then beta from U[0, pi), drawn in that order."""
    weight = rng.uniform(0.0, 1.0, n)
    alpha = rng.uniform(0.0, 2 * np.pi, n)
    beta = rng.uniform(0.0, np.pi, n)
    return np.stack([weight, alpha, beta], axis=-1)


def filter_batch(diagonal, alpha, beta) -> np.ndarray:
    """Stack of filters diag(d) (Rz(alpha) Ry(beta))^T.

    ``diagonal`` is an (n, 2) array of row scales d; ``alpha`` and ``beta``
    are length-n angle arrays.  A left Rz factor on the rotation would
    commute with diag(d) and leave A^dag A unchanged, so it is not a
    parameter.
    """
    half = np.exp(-0.5j * np.asarray(alpha, dtype=float))
    beta = np.asarray(beta, dtype=float) / 2
    c, s = np.cos(beta), np.sin(beta)
    out = np.empty(half.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = half * c
    out[..., 0, 1] = half.conj() * s
    out[..., 1, 0] = -half * s
    out[..., 1, 1] = half.conj() * c
    return out * np.asarray(diagonal, dtype=float)[..., :, None]


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


def magic_filter_table(rho: np.ndarray) -> np.ndarray:
    """Real table giving Re(Q^dag m Q) and Tr m of filtered states of rho.

    Q is the magic basis and m = (A (x) I) rho (A (x) I)^dag.  The real part
    is symmetric up to rounding; symmetrizing each basis matrix symmetrizes
    it exactly.  The table is real, so :func:`apply_filter_table` feeds it
    the coefficients as interleaved (Re, Im) pairs.
    """
    basis = filter_basis(rho)
    magic = to_magic_basis(basis)
    trace = np.trace(basis, axis1=1, axis2=2)[:, None]
    symmetric = (magic + np.swapaxes(magic, 1, 2)) / 2
    table = np.concatenate([symmetric.reshape(16, 16), trace], 1)
    # Re(c z) = Re(c) Re(z) - Im(c) Im(z), rows in the order of c.view(float64).
    return np.stack([table.real, -table.imag], axis=1).reshape(32, 17)


def apply_filter_table(table: np.ndarray, filters: np.ndarray):
    """Score a stack of filters with :func:`magic_filter_table`.

    Returns the (n, 4, 4) transformed filtered states and their (n,) traces.
    """
    out = filter_coefficients(filters).view(np.float64) @ table
    return out[:, :16].reshape(-1, 4, 4), out[:, 16]
