"""Shared helpers for the test suite."""

import numpy as np

from singletopt.channel import KrausChannel, random_channel
from singletopt.choi import choi
from singletopt.linalg import (
    _TIE_TOL,
    I2,
    PAULIS,
    PHI_PLUS,
    _fix_phase,
    eigenvalue_clusters,
    partial_transpose,
)
from singletopt.locc import _frame_minimum


def random_density(rng, rank=4, dim=4):
    """Random mixed state of the given rank (Ginibre construction)."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure(rng, dim=4):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_product_state(rng):
    """Pure product state on qubit x qubit."""
    return np.kron(random_pure(rng, 2), random_pure(rng, 2))


def random_unitary(rng, dim=2):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def random_pauli_mixture(rng, min_gap=1e-6):
    """Random unital channel built as a Pauli mixture.

    Resamples until the largest weight is separated from the second by
    ``min_gap`` so the top Choi eigenvalue is simple.
    """
    while True:
        q = rng.dirichlet(np.ones(4))
        top = np.sort(q)
        if top[-1] - top[-2] > min_gap:
            break
    ops = tuple(np.sqrt(qi) * sigma for qi, sigma in zip(q, PAULIS) if qi > 1e-14)
    return KrausChannel(kraus=ops, label="pauli_mixture")


def near_tp_channels():
    """Three channels that pass validation with sum A^dag A off I by
    8.5e-10, 8.9e-10 and 7.1e-10 (Frobenius): the scaled identity, a scaled
    amplitude-damping pair and a scaled real rotation."""
    half = np.sqrt(0.5)
    a0 = (1 + 4e-10) * np.diag([1.0, half])
    a1 = np.array([[0.0, half], [0.0, 0.0]])
    c, s = np.cos(0.3), np.sin(0.3)
    rotation = (1 + 2.5e-10) * np.array([[c, -s], [s, c]])
    return [KrausChannel(kraus=(1.0000000003 * I2,), label="scaled_identity"),
            KrausChannel(kraus=(a0, a1), label="scaled_damping"),
            KrausChannel(kraus=(rotation,), label="scaled_rotation")]


def random_channels(seed, count, ranks=(1, 2, 3, 4)):
    """Deterministic stream of random channels with cycling Kraus rank."""
    return [
        random_channel((seed * 1_000_003 + k) % 2**63, ranks[k % len(ranks)])
        for k in range(count)
    ]


def reference_channel_negativity(channel, seed, restarts=16, max_steps=2000):
    """Best output negativity over pure inputs by alternating exact eigen-steps.

    With G the partial transpose of the Choi state, the input ``A.reshape(4)``
    has output negativity -4 lambda_min(M^dag G M), M = A^T (x) I.  The w-step
    takes w, the bottom eigenvector of that form; the A-step then takes
    vec(A) as the bottom eigenvector of L^dag G L, where L vec(A) = M w.
    Neither step lowers the negativity.  Runs from the maximally entangled
    input and ``restarts`` random ones drawn from ``seed``; a start stops once
    a step gains at most 1e-15.  Returns the best value and its input.
    """
    g = choi(channel).matrix.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    rng = np.random.default_rng(seed)
    starts = [np.eye(2) / np.sqrt(2.0)] + [random_pure(rng).reshape(2, 2) for _ in range(restarts)]
    best, best_input = -np.inf, None
    for a in starts:
        value = np.inf
        for _ in range(max_steps):
            m = np.kron(a.T, np.eye(2))
            lam, vecs = np.linalg.eigh(m.conj().T @ g @ m)
            moved, value = value - lam[0] > 1e-15, lam[0]
            if not moved:
                break
            lift = np.einsum("ad,cb->abcd", np.eye(2), vecs[:, 0].reshape(2, 2)).reshape(4, 4)
            a = np.linalg.eigh(lift.conj().T @ g @ lift)[1][:, 0].reshape(2, 2)
        if -4.0 * value > best:
            best, best_input = -4.0 * value, a.reshape(4)
    return best, best_input


def assert_bitwise_equal(actual, expected):
    """Equal real and imaginary parts, NaNs and signs of zero included."""
    for part in (np.real, np.imag):
        a, e = part(np.asarray(actual)), part(np.asarray(expected))
        np.testing.assert_array_equal(a, e)
        np.testing.assert_array_equal(np.signbit(a), np.signbit(e))


def einsum_bell_products(ops):
    """sum_k (I (x) A_k) |Phi+><Phi+| (I (x) A_k)^dag for stacked (..., k, 2, 2)
    operators, by numpy's three-operand einsum over every entry of the
    projector: the reference ``channel._bell_products`` must match bit for bit."""
    bell = np.outer(PHI_PLUS, PHI_PLUS.conj()).reshape(2, 2, 2, 2)
    out = np.einsum("...kyb,ibjd,...kzd->...iyjz", ops, bell, ops.conj())
    return out.reshape(ops.shape[:-3] + (4, 4))


def loop_hermitian_eig(m):
    """``linalg.hermitian_eig`` of one matrix, its tie-break written as a
    Python ``sorted`` per cluster of tied eigenvalues: the reference for the
    one stacked sort.  Returns (eigenvalues, eigenvectors as columns)."""
    m = np.asarray(m, dtype=complex)
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    order = np.argsort(-w, kind="stable")
    w, vectors = w[order], v.T[order]  # vectors[k] is eigenvector k
    fixed = _fix_phase(vectors)
    key = np.round(np.concatenate([fixed.real, fixed.imag], axis=1), 10)
    for start, stop in eigenvalue_clusters(w, _TIE_TOL):
        if stop - start > 1:
            order = sorted(range(start, stop), key=lambda k: key[k].tolist())
            vectors[start:stop] = vectors[order]
    return w, _fix_phase(vectors).T


# Y = sum_k z_k sigma_k, so Y (x) I = sum_k z_k _DUAL_BASIS[k] and
# log det Y = log(z_0^2 - |z_1..3|^2), the Minkowski form _SIGNATURE.
_DUAL_BASIS = np.array([np.kron(sigma, I2) for sigma in PAULIS])
_SIGNATURE = np.array([1.0, -1.0, -1.0, -1.0])
# Widest bracket the barrier reference closes.
_BARRIER_GAP = 1e-10


def reference_fstar_barrier(stack):
    """F*'s bracket on each state of a (n, 4, 4) stack by a log-barrier
    Newton solve of the dual: the reference for ``locc.fstar_certificate``'s
    closed forms.  Returns ``(lower, upper)``; a PPT state gives (1/2, 1/2).

    Minimizes t Tr Y / 2 - log det(rho^Gamma + Y (x) I) - log det Y over
    Y = sum_k z_k sigma_k by damped Newton steps, from the strictly feasible
    start Y = (1 - lambda_min(rho^Gamma)) I, raising t by 50 after each
    centering (squared decrement at most 1e-3).  With M = rho^Gamma + Y (x) I
    and E_k = sigma_k (x) I, the log det M terms of gradient and Hessian are
    -Tr(M^-1 E_k) and Tr(M^-1 E_k M^-1 E_l).  At a centered iterate whose
    barrier bound 6 / t is within ``_BARRIER_GAP`` the frame of M's bottom
    eigenvector gives a primal value; a state stops once its iterate is
    strictly feasible and its bracket within ``_BARRIER_GAP``, and the
    solve raises if one has not after 200 steps.
    """
    gamma = partial_transpose(stack, "first")
    lower, upper = np.full(len(gamma), 0.5), np.full(len(gamma), 0.5)
    lam_min = np.linalg.eigvalsh(gamma)[:, 0]
    live = np.flatnonzero(lam_min < 0.0)
    gamma = gamma[live]
    z = np.zeros((len(live), 4))
    z[:, 0] = 1.0 - lam_min[live]
    t = np.full(len(live), 10.0)
    centered = np.zeros(len(live), dtype=bool)
    best_value = np.zeros(len(live))
    for _ in range(201):
        vals, vecs = np.linalg.eigh(gamma + (z @ _DUAL_BASIS.reshape(4, 16)).reshape(-1, 4, 4))
        done = np.zeros(len(live), dtype=bool)
        check = np.flatnonzero(centered & (6.0 / t <= _BARRIER_GAP))
        if len(check):
            value = _frame_minimum(gamma[check], vecs[check, :, 0])[0]
            best_value[check] = np.minimum(best_value[check], value)
            feasible = (vals[check, 0] > 0.0) & (
                z[check, 0] > np.linalg.norm(z[check, 1:], axis=1)
            )
            closed = (0.5 + z[check, 0]) - (0.5 - best_value[check]) <= _BARRIER_GAP
            done[check[feasible & closed]] = True
        lower[live[done]] = 0.5 - best_value[done]
        upper[live[done]] = 0.5 + z[done, 0]
        live, gamma, z, t, centered, best_value, vals, vecs = (
            x[~done] for x in (live, gamma, z, t, centered, best_value, vals, vecs)
        )
        if not len(live):
            return lower, upper
        t[centered] *= 50.0
        a = ((vecs / vals[:, None, :]) @ vecs.conj().swapaxes(1, 2))[:, None] @ _DUAL_BASIS
        grad = -np.trace(a, axis1=2, axis2=3).real
        hess = (a.reshape(-1, 4, 16) @ a.swapaxes(2, 3).reshape(-1, 4, 16).swapaxes(1, 2)).real
        w = _SIGNATURE * z
        q = (z * w).sum(axis=1)  # det Y
        grad += (-2.0 / q)[:, None] * w
        grad[:, 0] += t
        hess += (-2.0 / q)[:, None, None] * np.diag(_SIGNATURE)
        hess += (4.0 / q**2)[:, None, None] * (w[:, :, None] * w[:, None, :])
        # An explicit trailing axis: numpy 1.x reads a 2-D b as a stack of
        # vectors, numpy 2 as one matrix.
        delta = np.linalg.solve(hess, -grad[:, :, None])[:, :, 0]
        decrement2 = -(grad * delta).sum(axis=1)
        z = z + delta / (1.0 + np.sqrt(decrement2))[:, None]
        centered = decrement2 <= 1e-3
    raise RuntimeError(f"reference barrier: {len(live)} brackets open after 200 steps")
