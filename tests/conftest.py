"""Shared helpers for the test suite."""

import numpy as np

from singletopt.channel import KrausChannel, random_channel
from singletopt.choi import choi
from singletopt.entmetrics import as_density_matrix
from singletopt.linalg import (
    _TIE_TOL,
    I2,
    PAULIS,
    PHI_PLUS,
    _fix_phase,
    eigenvalue_clusters,
    partial_transpose,
    to_magic_basis,
)
from singletopt.locc import _PRODUCT_COORDS, FilterProtocol, _filter_protocol, _frame_minimum
from singletopt.optimize import SearchSpec, compass_search


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


# ---------------------------------------------------------------------------
# The alternating product minimum: reference for F*'s rank-one certificate
# ---------------------------------------------------------------------------

# Starts of the alternating steps: the six axis points.
_AXIS_POINTS = np.concatenate([np.eye(3), -np.eye(3)])
# A start stops once a round lowers its value by at most this fraction of
# it, or after _PRODUCT_ROUNDS rounds; Newton steps then polish the best
# start, and the bracket check decides.
_PRODUCT_TOL = 1e-9
_PRODUCT_ROUNDS = 100
# Newton steps on the sphere after the alternating steps, each kept only
# if it does not raise the value.
_PRODUCT_NEWTON = 4


def _descent(v: np.ndarray):
    """Minimum of v . s over unit 3-vectors s, and its minimizer, per row of
    ``v``: -|v| at s = -v / |v| (s = z where v = 0)."""
    norm = np.linalg.norm(v, axis=1)
    s = np.zeros_like(v)
    s[:, 2] = 1.0
    np.divide(-v, norm[:, None], out=s, where=norm[:, None] > 0.0)
    return -norm, s


def _sphere_value(k: np.ndarray, r: np.ndarray):
    """min over unit s of (1, r) K (1, s)^T, per K and Bloch vector r:
    a_0 - |a_1..3| with a = (1, r) K.  Returns the values and a_1..3."""
    a = (r[:, None, :] @ k[:, 1:])[:, 0] + k[:, 0]
    return a[:, 0] - np.linalg.norm(a[:, 1:], axis=1), a[:, 1:]


def reference_product_minimum(h: np.ndarray):
    """Minimum of <u (x) w|h|u (x) w> over unit u, w, per Hermitian 4x4 h,
    by alternating exact steps: the reference for ``locc._product_minimum``.

    With u u^dag = (I + r.sigma)/2 and w w^dag = (I + s.sigma)/2 the value is
    (1, r) K (1, s)^T, K[nu, mu] = Tr[h (sigma_nu (x) sigma_mu)] / 4 real, so
    each half-step is exact: s = -unit(K[0, 1:] + r K[1:, 1:]) for fixed r,
    and r likewise for fixed s.  The steps run from the six axis points r.
    A start stops once a round lowers its value by at most ``_PRODUCT_TOL``
    of it, or once it is no lower than a stopped start of its own state; on
    X-shaped h (Z (x) Z symmetric) a pole is optimal and stops the rest in
    the second round.  Each state's best start then takes Newton steps on
    the sphere for f(r) = min over s of the value, kept while they move r
    without raising f: the alternating steps converge only linearly, and f
    is flat to rounding well before r settles.  Returns f, which is
    lambda_min of (<u| (x) I) h (|u> (x) I), and r.
    """
    k = (h.reshape(-1, 1, 16) @ _PRODUCT_COORDS)[:, 0].real.reshape(-1, 1, 4, 4)
    k = np.broadcast_to(k, (len(h), 6, 4, 4)).reshape(-1, 4, 4)
    r = np.tile(_AXIS_POINTS, (len(h), 1))
    value = np.full(len(r), np.inf)
    moving = np.arange(len(r))
    for _ in range(_PRODUCT_ROUNDS):
        km = k[moving]
        _, s = _descent((r[moving, None, :] @ km[:, 1:, 1:])[:, 0] + km[:, 0, 1:])
        b = (km[:, :, 1:] @ s[:, :, None])[:, :, 0] + km[:, :, 0]
        lowered, r[moving] = _descent(b[:, 1:])
        lowered += b[:, 0]
        still = value[moving] - lowered > _PRODUCT_TOL * np.abs(lowered)
        value[moving] = lowered
        stopped = np.ones(len(r), dtype=bool)
        stopped[moving[still]] = False
        bar = np.where(stopped, value, np.inf).reshape(-1, 6).min(axis=1)
        moving = moving[still & (lowered < bar[moving // 6])]
        if not len(moving):
            break
    value = _sphere_value(k, r)[0].reshape(-1, 6)
    best = value.argmin(axis=1) + 6 * np.arange(len(h))
    k, r, value = k[best], r[best], value.ravel()[best]
    moving = np.arange(len(h))
    for _ in range(_PRODUCT_NEWTON):
        _, a = _sphere_value(k[moving], r[moving])
        norm = np.linalg.norm(a, axis=1)
        # f is not smooth where a = 0; such a state takes no step.
        moving, a, norm = moving[norm > 0.0], a[norm > 0.0], norm[norm > 0.0]
        km, rm = k[moving], r[moving]
        m = km[:, 1:, 1:]
        ma = (m @ (a / norm[:, None])[:, :, None])[:, :, 0]
        # Euclidean gradient and Hessian of f = K00 + K[1:, 0].r - |a|, then
        # the Riemannian Newton system in the tangent plane, made regular by
        # r r^T: (P (hess - (r.grad) I) P + r r^T) step = -(grad - (r.grad) r).
        # The 3x3 products are einsums: a batched 3x3 matmul reaches BLAS
        # kernels nothing else here runs, about 0.1 MB of resident code each.
        grad = km[:, 1:, 0] - ma
        hess = ma[:, :, None] * ma[:, None, :] - np.einsum("nik,njk->nij", m, m)
        radial = (rm * grad).sum(axis=1)
        proj = np.eye(3) - rm[:, :, None] * rm[:, None, :]
        shifted = hess / norm[:, None, None] - radial[:, None, None] * np.eye(3)
        system = np.einsum("nij,njk,nkl->nil", proj, shifted, proj)
        system += rm[:, :, None] * rm[:, None, :]
        rhs = radial[:, None] * rm - grad
        # The symmetric 3x3 system by its adjugate: rows' cross products.
        adjugate = np.cross(system[:, [1, 2, 0]], system[:, [2, 0, 1]])
        det = (system[:, 0] * adjugate[:, 0]).sum(axis=1)
        step = (adjugate @ rhs[:, :, None])[:, :, 0]
        step = np.divide(step, det[:, None], out=np.zeros_like(step), where=det[:, None] != 0.0)
        trial = (rm + step) / np.linalg.norm(rm + step, axis=1)[:, None]
        lowered = _sphere_value(km, trial)[0]
        better = (lowered <= value[moving]) & (trial != rm).any(axis=1)
        r[moving[better]], value[moving[better]] = trial[better], lowered[better]
        moving = moving[better]
        if not len(moving):
            break
    return value, r


# ---------------------------------------------------------------------------
# The two filter searches: references for F* and for the optimal input
# ---------------------------------------------------------------------------
#
# Each search scores a stack of one-sided filters A on a fixed two-qubit
# state rho through the filtered states (A (x) I) rho (A (x) I)^dag.  Those
# are quadratic in the filter's entries, so :func:`magic_filter_table` turns
# rho into one real table, 16 basis matrices in the magic basis plus the
# trace, and :func:`apply_filter_table` scores a whole stack with one matrix
# product.  Both searches depend on their filter only through A^dag A, so a
# left unitary factor cancels and :func:`filter_batch` needs two Euler
# angles, not three.

# Search parameters (weight, alpha, beta): the weight is clipped to [0, 1],
# the two angles wrap at 2 pi.
FILTER_SPEC = SearchSpec.build(3, clip={0: (0.0, 1.0)}, wrap={1: 2 * np.pi, 2: 2 * np.pi})


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


def magic_filter_table(rho: np.ndarray) -> np.ndarray:
    """Real table giving Re(Q^dag m Q) and Tr m of filtered states of rho.

    Q is the magic basis and m = (A (x) I) rho (A (x) I)^dag = sum c_kilj
    B_kilj, with coefficients c_kilj = A_ki conj(A_lj) and basis matrices
    B_kilj = |k><l| (x) rho_ij, where rho_ij is the (i, j) block of ``rho``
    on the second qubit.  The real part is symmetric up to rounding;
    symmetrizing each basis matrix symmetrizes it exactly.  The table is
    real, so :func:`apply_filter_table` feeds it the coefficients as
    interleaved (Re, Im) pairs.
    """
    blocks = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)  # (i, y, j, z)
    # The 16 B_kilj as a stack indexed by (k, i, l, j) in row-major order.
    basis = np.einsum("kK,lL,iyjz->kiljKyLz", I2, I2, blocks).reshape(16, 4, 4)
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
    flat = np.asarray(filters, dtype=complex).reshape(-1, 4)
    coefficients = (flat[:, :, None] * flat.conj()[:, None, :]).reshape(-1, 16)
    out = coefficients.view(np.float64) @ table
    return out[:, :16].reshape(-1, 4, 4), out[:, 16]


def fstar_filter_oracle(
    rho: np.ndarray, restarts: int = 32, seed: int = 0
) -> FilterProtocol:
    """Maximize the filter-protocol value directly (primal oracle for fstar).

    Filters are parameterized as A = diag(1, s) V^dag with s in [0, 1] and
    V = Rz(alpha) Ry(beta).  This is fully general: a left unitary factor
    only conjugates the success state locally, leaving both the success
    probability and its singlet fraction unchanged (so a third Euler angle
    would cancel), and pinning the top singular value to 1 loses nothing
    whenever filtering helps at all (the trivial separable preparation,
    worth exactly 1/2, covers the remaining states).  The search includes
    the identity filter, so the result never falls below the plain singlet
    fraction of ``rho``.
    """
    rho = as_density_matrix(rho)
    table = magic_filter_table(rho)

    def objective(x: np.ndarray) -> np.ndarray:
        scale = np.stack([np.ones(len(x)), x[:, 0]], axis=-1)
        filters = filter_batch(scale, x[:, 1], x[:, 2]).conj()
        states, trace = apply_filter_table(table, filters)
        # p F(m/p) folds into the unnormalized top overlap of m itself.
        return np.linalg.eigvalsh(states)[:, -1] + (1.0 - trace) / 2.0

    # Coarse deterministic grid to locate the right basin.  The landscape
    # has a flat plateau of unitary filters at s = 1 worth exactly the
    # plain singlet fraction; genuine optima typically hug that plateau
    # from below, so the s axis is sampled densely near 1.
    s_axis = np.array([0.15, 0.35, 0.55, 0.7, 0.8, 0.87, 0.92, 0.96, 0.99])
    axes = (s_axis, np.arange(10) * (np.pi / 5), np.linspace(0.0, np.pi, 6))
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    top = grid[np.argsort(objective(grid))[-24:]]

    # Random starts: weight from U[0, 1), then alpha from U[0, 2 pi), then
    # beta from U[0, pi), drawn in that order.
    rng = np.random.default_rng(seed)
    random_starts = np.stack([rng.uniform(0.0, 1.0, restarts),
                              rng.uniform(0.0, 2 * np.pi, restarts),
                              rng.uniform(0.0, np.pi, restarts)], axis=-1)
    starts = np.vstack([[(1.0, 0, 0)], top, random_starts])
    x, f = compass_search(objective, starts, FILTER_SPEC, step0=0.4, step_tol=1e-7)
    x = x[f.argmax()]
    return _filter_protocol(filter_batch([(1.0, x[0])], [x[1]], [x[2]])[0].conj(), rho)


# Grid of the pure-input oracle: Schmidt weights and alpha values.
_SCHMIDT_POINTS = 17
_ANGLE_POINTS = 12


def preprocessed_fidelity_oracle(channel: KrausChannel, refine: bool = True) -> float:
    """Grid maximization of the output singlet fraction over pure inputs.

    Inputs are swept in Schmidt form: weight lam and a local unitary
    V = Rz(alpha) Ry(beta) on the transmitted qubit.  A local unitary on the
    kept qubit cannot change the singlet fraction, and a third Euler angle
    on V would act as one (its Rz factor commutes with the Schmidt
    weights), so two angles reach every input that matters.  The input
    with amplitude matrix A = diag(sqrt(lam), sqrt(1 - lam)) V^T, the vector
    ``A.reshape(4)``, is sent to 2 (A (x) I) J (A (x) I)^dag with J the
    Choi state, so each probe is scored on the Choi state's magic filter
    table.  The best grid cells are polished by coordinate search unless
    ``refine`` is False.  A lower bound on ``oneshot.preprocessed_fidelity``
    up to rounding.
    """
    lam = np.linspace(0.0, 1.0, _SCHMIDT_POINTS)
    alpha = np.arange(_ANGLE_POINTS) * (2 * np.pi / _ANGLE_POINTS)
    beta = np.linspace(0.0, np.pi, _ANGLE_POINTS // 2 + 1)
    grids = np.meshgrid(lam, alpha, beta, indexing="ij")
    params = np.stack([g.ravel() for g in grids], axis=-1)
    table = magic_filter_table(choi(channel).matrix)

    def objective(x: np.ndarray) -> np.ndarray:
        scale = np.sqrt(np.stack([x[:, 0], 1.0 - x[:, 0]], axis=-1))
        states, _ = apply_filter_table(table, filter_batch(scale, x[:, 1], x[:, 2]))
        return 2.0 * np.linalg.eigvalsh(states)[:, -1]

    values = objective(params)
    if not refine:
        return float(values.max())
    top = np.argsort(values)[-6:]
    _, best = compass_search(objective, params[top], FILTER_SPEC, step0=0.3, step_tol=1e-7)
    return float(max(best.max(), values.max()))
