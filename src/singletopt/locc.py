"""Singlet fraction reachable by trace-preserving local protocols.

The best trace-preserving local strategy on a fixed two-qubit state is a
one-sided filter: with probability p the filter succeeds and leaves a
transformed state, otherwise the parties prepare a separable state whose
overlap with any maximally entangled target is 1/2, giving

    F* = max(1/2, sup over filters of [p F(rho_1) + (1 - p) / 2]).

Writing the filter's action as an operator X, F* = 1/2 - m with m the value
of the semidefinite program min Tr(rho^Gamma X) over X >= 0 with
Tr_B X <= I/2 (Gamma the partial transpose on the first qubit; X = 0, the
separable preparation, keeps m <= 0).  Its optimum is rank one,
X = |x><x|, for which the constraint caps the largest Schmidt singular
value of x at 1/sqrt(2):

    F*(rho) = max(1/2, 1/2 - min_x <x| rho^Gamma |x>).

The program's dual has four real variables (Verstraete & Verschelde,
PRL 90, 097901):

    F*(rho) = 1/2 + min{Tr Y / 2 : Y >= 0, rho^Gamma + Y (x) I >= 0}

with Y a 2x2 Hermitian matrix.  :func:`fstar_certificate` brackets F* from
both sides: a dual feasible Y gives the upper end 1/2 + Tr Y / 2, and the
bottom eigenvector of rho^Gamma + Y (x) I fixes a Schmidt frame on which the
primal minimization over the second singular value and the relative phase
is exact, giving a feasible x and hence an achievable protocol value as the
lower end.  The bracket is closed in closed form, by the two KKT
certificates that complementary slackness allows: an optimal Y of rank 2,
whose primal is the maximally entangled vector minimizing
<phi|rho^Gamma|phi>, and an optimal Y = y u u^dag of rank 1, read off the
minimum of <u (x) w|(rho^Gamma)^-1|u (x) w> over product vectors.  On every
unital Choi state the bottom eigenvector of rho^Gamma is maximally
entangled, so the rank-2 certificate is Y = -lambda_min(rho^Gamma) I and
closes on lambda_max(rho), the paper's optimum without post-processing.
Either certificate closes a state whose bracket it brings within
``GAP_TOLERANCE`` = 2e-12.  On the named channels' Choi states and on every
random channel tried, one of them does.  The solve is these closed forms
only, with no iteration over Y: a state neither closes raises rather than
return its open bracket, so a reported F* is never an unconverged estimate.
The lower end is a rank-one value and the upper end bounds the full
program, so a closed bracket also certifies rank-one optimality for that
state.  The solve takes leading batch axes: one pass closes a whole
stack of states, each on its own rule, each bit for bit its state's own:
``oneshot.IdentityContext`` solves many channels' Choi states in one such
call, for the sweep's values and for the audit's certificates.
:meth:`FstarCertificate.protocol` is the primal's explicit
filter.  The filter-protocol search that maximizes the primal protocol
value directly, by an independent route, is a reference in the test suite
(``tests/conftest.py``), not part of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import KrausChannel
from .choi import ENTANGLEMENT_BREAKING_THRESHOLD, choi
from .entmetrics import _as_density_stack, _singlet_fraction
from .linalg import I2, MAGIC_BASIS, PAULIS, partial_transpose, tensor_product, to_magic_basis

__all__ = [
    "GAP_TOLERANCE",
    "FilterProtocol",
    "FstarCertificate",
    "channel_fstar",
    "fstar",
    "fstar_bracket",
    "fstar_certificate",
    "postprocessing_gap",
]

# Margin delta by which each dual point Y + delta I clears
# lambda_min(rho^Gamma + Y (x) I) = 0: far above the eigensolver's rounding.
_DUAL_MARGIN = 1e-12
# The most any reported bracket spans: the dual clears the optimum by delta,
# which leaves delta for the error of the primal.  A wider closure lets a
# primal 1.7e-11 short through, which the audit's fstar_protocol row (1e-12)
# rejects.
GAP_TOLERANCE = 2.0 * _DUAL_MARGIN

_S1 = 1.0 / np.sqrt(2.0)
# J^-1 for J = [[0, 1], [-1, 0]], which turns a primal into its filter.
_J_INVERSE = np.array([[0.0, -1.0], [1.0, 0.0]])

# Y = sum_k z_k sigma_k with sigma_0 = I, so Y (x) I = sum_k z_k _DUAL_BASIS_FLAT[k].
_PAULIS = np.array(PAULIS)
_DUAL_BASIS_FLAT = np.array([np.kron(sigma, I2) for sigma in _PAULIS]).reshape(4, 16)
# z_k = Tr(Y sigma_k) / 2 of a flattened 2x2 Y, as Y.reshape(1, 4) @ _PAULI_COORDS.
_PAULI_COORDS = _PAULIS.transpose(0, 2, 1).reshape(4, 4).T / 2.0
# K[nu, mu] = Tr[H (sigma_nu (x) sigma_mu)] / 4 of a flattened 4x4 H, as
# H.reshape(1, 16) @ _PRODUCT_COORDS, with nu, mu flattened to 4 nu + mu.
_PRODUCT_COORDS = np.array(
    [np.kron(a, b).T.ravel() for a in _PAULIS for b in _PAULIS]
).T / 4.0
# The starts of the product minimum: the rows (1, r) for the Bloch vectors
# r of a 256-point Fibonacci sphere, so that one product with each column
# of K values them all.
_SPHERE_Z = (np.arange(256) + 0.5) / 128.0 - 1.0
_SPHERE_PHI = np.pi * (3.0 - np.sqrt(5.0)) * np.arange(256)
_SPHERE = np.stack([np.ones(256), np.sqrt(1.0 - _SPHERE_Z**2) * np.cos(_SPHERE_PHI),
                    np.sqrt(1.0 - _SPHERE_Z**2) * np.sin(_SPHERE_PHI), _SPHERE_Z], axis=1)
# Newton steps from each of a state's _PRODUCT_STARTS best sphere points,
# each step kept only if it does not raise the value; the lowest end wins,
# and the bracket check decides.
_PRODUCT_STARTS = 4
_PRODUCT_NEWTON = 4


def _frame_minimum(gamma: np.ndarray, v: np.ndarray):
    """Minimum of <x|gamma|x> over x = s1 u1(x)v1 + t e^{i th} u2(x)v2, per state.

    (u_k, v_k) is the Schmidt frame of the 4-vector ``v``, read from the SVD
    of its 2x2 amplitude matrix; gamma and v carry one leading batch axis.
    The top singular value is pinned at s1 = 1/sqrt(2) (the feasibility
    cap; any minimizer with negative value saturates it) and the phase
    aligns the cross term to be maximally negative, leaving a scalar
    quadratic in t on [0, s1].  Returns the minima and their vectors.
    """
    u, _, vh = np.linalg.svd(v.reshape(-1, 2, 2))
    # w[:, k] = u_k (x) v_k; the phases SVD leaves free cancel in each product.
    w = np.einsum("nik,nkj->nkij", u, vh).reshape(-1, 2, 4)
    h = w.conj() @ gamma @ w.swapaxes(1, 2)
    h11, h22, cross = h[:, 0, 0].real, h[:, 1, 1].real, h[:, 0, 1]
    h12 = np.abs(cross)
    nonzero = h12 > 0
    phase = np.ones_like(cross)
    phase[nonzero] = -cross[nonzero].conj() / h12[nonzero]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_mid = _S1 * h12 / h22
    # Candidates t = 0, s1 and the interior stationary point (t = 0 again
    # where there is none); argmin keeps the first of equal values.
    interior = (h22 > 0) & (t_mid > 0.0) & (t_mid < _S1)
    t = np.stack(
        [np.zeros_like(h12), np.full_like(h12, _S1), np.where(interior, t_mid, 0.0)], axis=1
    )
    q = _S1 * _S1 * h11[:, None] - 2.0 * _S1 * h12[:, None] * t + h22[:, None] * t * t
    pick = q.argmin(axis=1)[:, None]
    best_t = np.take_along_axis(t, pick, axis=1)[:, 0]
    value = np.take_along_axis(q, pick, axis=1)[:, 0]
    return value, _S1 * w[:, 0] + (best_t * phase)[:, None] * w[:, 1]


def _product_minimum(h: np.ndarray):
    """Minimum of <u (x) w|h|u (x) w> over unit u, w, per Hermitian 4x4 h.

    With u u^dag = (I + r.sigma)/2 and w w^dag = (I + s.sigma)/2 the value is
    (1, r) K (1, s)^T, K[nu, mu] = Tr[h (sigma_nu (x) sigma_mu)] / 4 real,
    whose minimum over s is f(r) = K00 + k.r - |p| with p = c + M^T r
    (k = K[1:, 0], c = K[0, 1:], M = K[1:, 1:]): lambda_min of
    (<u| (x) I) h (|u> (x) I).  One product values f on the 256 points of
    ``_SPHERE``, and each state starts from its ``_PRODUCT_STARTS`` best:
    f can have two local minima whose basins the sample resolves at a few
    points only (one start alone ends 1.1e-3 high on
    ``random_channel(2802, 3)``).  Each start takes up to ``_PRODUCT_NEWTON``
    Newton steps on the KKT system of min f on |r| = 1, the bordered
    [[H - mu I, -r], [r^T, 0]] with H the Hessian of f and mu = r.grad f,
    solved on the tangent plane of r.  A step is kept only if it does not
    raise f, and a start takes none where p = 0 or the system is singular.
    For a fixed r, -1/f is the smallest feasible rank-one dual along u, so
    an error e in r widens the bracket by O(e^2) only.  Returns each state's
    lowest f and its r.
    """
    n = len(h)
    k = (h.reshape(-1, 1, 16) @ _PRODUCT_COORDS)[:, 0].real.reshape(-1, 4, 4)
    # a[:, :, j] = (1, r_j) K.  This and the products below are
    # matrix-vector products or elementwise: a real matrix-matrix product,
    # a batched 3x3 one among them, reaches BLAS kernels nothing else here
    # runs, about 0.1 MB of resident code each.
    a = (_SPHERE @ k.swapaxes(1, 2)[:, :, :, None])[:, :, :, 0]
    values = a[:, 0] - np.linalg.norm(a[:, 1:], axis=1)
    # Each state's _PRODUCT_STARTS best points, start-major.
    rows, best = np.arange(n), []
    for _ in range(_PRODUCT_STARTS):
        best.append(values.argmin(axis=1))
        values[rows, best[-1]] = np.inf
    best = np.concatenate(best)
    states = np.tile(rows, _PRODUCT_STARTS)
    k, r, p = k[states], _SPHERE[best, 1:], a[states, 1:, best]
    value = a[states, 0, best] - np.linalg.norm(p, axis=1)
    m, frame = k[:, 1:, 1:], np.empty((len(r), 3, 3))
    for _ in range(_PRODUCT_NEWTON):
        # f is not smooth where p = 0: there the norm reads infinite, and
        # the determinant too, as where the system is singular, so that the
        # step is zero.
        norm = np.linalg.norm(p, axis=1)
        smooth = norm > 0.0
        norm[~smooth] = np.inf
        # The bordered system on the tangent plane of r, in the orthonormal
        # frame r, t1, t2 (t1, t2 as in Duff et al., JCGT 6, 1 (2017), up to
        # sign): the 2x2 (t (H - mu I) t^T) x = -t grad f, solved by its
        # adjugate, with H = (M p^ p^T M^T - M M^T) / |p| (p^ = p / |p|);
        # the step is t^T x.
        sign = np.copysign(1.0, r[:, 2])
        v = r.copy()
        v[:, 2] += sign
        frame[:, 0] = r
        frame[:, 1:] = (r[:, :2] / -v[:, 2:])[:, :, None] * v[:, None, :]
        frame[:, 1, 0] += sign
        frame[:, 2, 1] += sign
        # Rows M^T r, M^T t1, M^T t2, and the frame's components of M p^
        # and of grad f = k - M p^, whose first is mu.
        mf = (m.swapaxes(1, 2)[:, None] @ frame[:, :, :, None])[:, :, :, 0]
        mp = (mf @ p[:, :, None])[:, :, 0] / norm[:, None]
        grad = (frame @ k[:, 1:, :1])[:, :, 0] - mp
        block = mp[:, 1:, None] * mp[:, None, 1:] - (mf[:, 1:, None] * mf[:, None, 1:]).sum(axis=3)
        block = block / norm[:, None, None] - grad[:, :1, None] * np.eye(2)
        # x = -adj(block) g / det, for the symmetric block and g = grad[:, 1:].
        diagonal = block.diagonal(axis1=1, axis2=2)
        det = diagonal[:, 0] * diagonal[:, 1] - block[:, 0, 1] ** 2
        det[~smooth | (det == 0.0)] = np.inf
        x = (block[:, 0, 1, None] * grad[:, :0:-1] - diagonal[:, ::-1] * grad[:, 1:]) / det[:, None]
        trial = r + (x[:, None, :] @ frame[:, 1:])[:, 0]
        trial /= np.linalg.norm(trial, axis=1)[:, None]
        a = (trial[:, None, :] @ k[:, 1:])[:, 0] + k[:, 0]
        lowered = a[:, 0] - np.linalg.norm(a[:, 1:], axis=1)
        # A step that raises f, or does not move r, ends its start's
        # descent: from the same r the same step follows.
        better = (lowered <= value) & (trial != r).any(axis=1)
        if not better.any():
            break
        np.copyto(r, trial, where=better[:, None])
        np.copyto(value, lowered, where=better)
        np.copyto(p, a[:, 1:], where=better[:, None])
    best = value.reshape(_PRODUCT_STARTS, n).argmin(axis=0) * n + rows
    return value[best], r[best]


def _scored(gamma: np.ndarray, z: np.ndarray):
    """The KKT check at the dual points z (Pauli coefficients of Y): each
    dual strictly feasible, and the primal on the bottom eigenvector of
    gamma + Y (x) I.  Returns each state's primal value (floored at 0, the
    zero vector's) and vector, and its upper end, infinite if infeasible."""
    m = gamma + (z[:, None, :] @ _DUAL_BASIS_FLAT)[:, 0].reshape(-1, 4, 4)
    margin, vecs = np.linalg.eigh(m)
    feasible = (margin[:, 0] > 0.0) & (z[:, 0] > np.linalg.norm(z[:, 1:], axis=1))
    value, x = _frame_minimum(gamma, vecs[:, :, 0])
    x[value >= 0.0] = 0.0
    return np.minimum(value, 0.0), x, np.where(feasible, 0.5 + z[:, 0], np.inf)


def _kkt_certificates(gamma: np.ndarray):
    """Closed-form primal and dual points of F*'s program, per rho^Gamma.

    Complementary slackness leaves two cases for an optimal Y.
    (a) Y has rank 2, so the optimal x is the maximally entangled phi
    minimizing <phi|gamma|phi> (the bottom eigenvector of Re gamma in the
    magic basis), and (gamma + Y (x) I) phi = 0 gives
    Y = -reshape(gamma phi) U^-1 with U = phi.reshape(2, 2), U^-1 = 2 U^dag.
    (b) Y = y u u^dag has rank 1: with H = gamma^-1 and q the minimum of
    <u (x) w|H|u (x) w> over product vectors, y = -1/q first makes
    gamma + Y (x) I singular, on the kernel vector H (u (x) w).  An optimal
    Y has Tr Y = 2 F* - 1 <= 1, so only q <= -1 gives one.  Any other q
    gives y = 0, the dual delta I, which closes every state with
    lambda_min(gamma) > -delta: there gamma is singular up to rounding, and
    -1/q can be anything (q = -2e-16, y = 4.5e15 on amplitude_damping at
    p = 1 - 1e-16).  Each dual gets delta I (delta = ``_DUAL_MARGIN``) and is scored by
    :func:`_scored`; (b) runs only where (a) leaves the bracket open, and
    there the better primal and the better feasible dual of the two are
    kept.  Returns each state's primal value and vector, its dual's Pauli
    coefficients z, and its bracket's width (infinite without a feasible
    dual); the bracket closes where that is at most ``GAP_TOLERANCE``.
    """
    phi = np.linalg.eigh(to_magic_basis(gamma).real)[1][:, :, 0] @ MAGIC_BASIS.T
    u_dag = phi.reshape(-1, 2, 2).conj().swapaxes(1, 2)
    y = -2.0 * (gamma @ phi[:, :, None]).reshape(-1, 2, 2) @ u_dag
    z = (y.reshape(-1, 1, 4) @ _PAULI_COORDS)[:, 0].real
    z[:, 0] += _DUAL_MARGIN
    value, x, upper = _scored(gamma, z)
    rest = np.flatnonzero(upper - (0.5 - value) > GAP_TOLERANCE)
    if len(rest):
        q, r = _product_minimum(np.linalg.pinv(gamma[rest], hermitian=True))
        y = np.divide(-1.0, q, out=np.zeros_like(q), where=q <= -1.0)
        z_b = 0.5 * y[:, None] * np.concatenate([np.ones((len(rest), 1)), r], axis=1)
        z_b[:, 0] += _DUAL_MARGIN
        value_b, x_b, upper_b = _scored(gamma[rest], z_b)
        better = value_b < value[rest]
        value[rest[better]], x[rest[better]] = value_b[better], x_b[better]
        better = upper_b < upper[rest]
        upper[rest[better]], z[rest[better]] = upper_b[better], z_b[better]
    return value, x, z, upper - (0.5 - value)


@dataclass(frozen=True, eq=False)
class FstarCertificate:
    """Certified bracket ``lower <= F* <= upper`` and the points proving it.

    ``primal`` is a 4-vector whose largest Schmidt singular value is at
    most 1/sqrt(2); it attains ``lower = 1/2 - min(0, <x|rho^Gamma|x>)``
    (the zero vector stands for preparing a separable state).  ``dual`` is
    a 2x2 matrix Y with Y >= 0 and rho^Gamma + Y (x) I >= 0, giving
    ``upper = 1/2 + Tr Y / 2``.  The bracket is at most ``GAP_TOLERANCE``
    = 2e-12 wide, and a PPT state's is exactly (1/2, 1/2).  For a stack of
    states every field carries the stack's leading axes.
    """

    lower: float | np.ndarray
    upper: float | np.ndarray
    primal: np.ndarray
    dual: np.ndarray

    def protocol(self, rho: np.ndarray) -> FilterProtocol:
        """The filter protocol on ``rho`` that ``primal`` is.

        With X = ``primal.reshape(2, 2)`` and J = [[0, 1], [-1, 0]], the filter
        A = (sqrt(2) X J^-1)^T has ||A||_op = sqrt(2) sigma_max(X) <= 1, and
        its value is at least <Phi^+|(A (x) I) rho (A (x) I)^dag|Phi^+> +
        (1 - p)/2 = 1/2 - <x|rho^Gamma|x> = ``lower``.  It is scored as the
        test suite's filter-search reference scores its filter, apart from
        the solve.
        A certificate of a stack of states gives the protocols of the same
        stack ``rho`` in one :class:`FilterProtocol` with its leading axes,
        each field bit for bit its state's own.
        """
        return self._protocol(_as_density_stack(rho))

    def _protocol(self, rho: np.ndarray) -> FilterProtocol:
        """:meth:`protocol` on a state or stack the package built or checked."""
        x = np.reshape(self.primal, np.shape(self.primal)[:-1] + (2, 2))
        return _filter_protocol(np.sqrt(2.0) * (x @ _J_INVERSE).swapaxes(-1, -2), rho)


def fstar_certificate(rho: np.ndarray) -> FstarCertificate:
    """Close the bracket on F*(rho) in closed form, or raise.

    A PPT state returns ``(1/2, 1/2)`` exactly.  Every other state gets the
    KKT certificates of :func:`_kkt_certificates` in one batched pass: each
    dual gets delta I (delta = 1e-12) and must pass a strict feasibility
    check (Y > 0 and rho^Gamma + Y (x) I > 0 by their eigenvalues), each
    primal is scored on the bottom eigenvector of its rho^Gamma + Y (x) I,
    and the state closes if its bracket is at most ``GAP_TOLERANCE`` = 2 delta
    wide.  On a unital Choi state the rank-2 certificate closes on
    F* = lambda_max(rho).  If any state's bracket is still wider, the solve
    raises ``RuntimeError`` with the number of open states and the widest
    bracket; no known state does.

    Leading axes of ``rho`` are batch axes: one pass closes every state of
    a (..., 4, 4) stack, each on its own rule, and the fields come back
    with the stack's leading axes.  A single state gives scalar ``lower``
    and ``upper``.
    """
    return _fstar_certificate(_as_density_stack(rho))


def _fstar_certificate(rho: np.ndarray) -> FstarCertificate:
    """:func:`fstar_certificate` of a state or stack the package built or checked."""
    batch = rho.shape[:-2]
    gamma = partial_transpose(rho, "first").reshape(-1, 4, 4)
    n = len(gamma)
    lower, upper = np.full(n, 0.5), np.full(n, 0.5)
    primal = np.zeros((n, 4), dtype=complex)
    dual = np.zeros((n, 2, 2), dtype=complex)

    live = np.flatnonzero(np.linalg.eigvalsh(gamma)[:, 0] < 0.0)
    value, x, z, width = _kkt_certificates(gamma[live])
    still_open = ~(width <= GAP_TOLERANCE)
    if still_open.any():
        raise RuntimeError(
            f"fstar: {still_open.sum()} of {n} brackets still open after the "
            f"closed-form certificates, the widest {width[still_open].max():.3g} wide"
        )
    lower[live] = 0.5 - value
    upper[live] = 0.5 + z[:, 0]
    primal[live] = x
    dual[live] = np.tensordot(z, _PAULIS, 1)

    if not batch:
        return FstarCertificate(float(lower[0]), float(upper[0]), primal[0], dual[0])
    return FstarCertificate(lower.reshape(batch), upper.reshape(batch),
                            primal.reshape(batch + (4,)), dual.reshape(batch + (2, 2)))


def fstar_bracket(rho: np.ndarray) -> tuple:
    """Certified ``(lower, upper)`` bracket on F*(rho), at most
    ``GAP_TOLERANCE`` wide, per state of a stack; see
    :func:`fstar_certificate`."""
    cert = fstar_certificate(rho)
    return cert.lower, cert.upper


def fstar(rho: np.ndarray) -> float | np.ndarray:
    """Best singlet fraction reachable from ``rho`` by TP local protocols.

    Returns the lower end of the certified bracket from
    :func:`fstar_certificate`: the value of an explicit feasible protocol,
    within ``GAP_TOLERANCE`` of the dual upper bound.  A (..., 4, 4) stack
    gives an array with its leading axes.  Deterministic, and raises rather
    than return an unconverged value.
    """
    return fstar_certificate(rho).lower


def channel_fstar(channel: KrausChannel) -> float:
    """:func:`fstar` of the channel's Choi state."""
    return float(fstar(choi(channel).matrix))


@dataclass(frozen=True, eq=False)
class FilterProtocol:
    """A concrete one-sided filter strategy and the value it achieves.

    ``success_state`` is the normalized state after the filter fires with
    probability ``success_probability`` (the zero matrix, worth 1/2, for a
    filter that never fires).  ``fstar_value`` is the value of
    the better of this filter and the trivial always-prepare-separable
    strategy: max(1/2, p F(success_state) + (1 - p)/2).
    """

    filter: np.ndarray
    success_probability: float
    success_state: np.ndarray
    fstar_value: float


def _filter_protocol(filt: np.ndarray, rho: np.ndarray) -> FilterProtocol:
    """Score ``filt`` (x) I on ``rho`` as a :class:`FilterProtocol`.

    Leading axes of ``filt`` and ``rho`` are batch axes: a stack of filters
    on a stack of states is scored in one pass, the filtered states that
    fire (p > 0) in one unchecked singlet-fraction call (the audit's
    ``fstar_protocol`` row checks the value), and every field carries the
    stack's leading axes.  One filter gives scalar fields.
    """
    big = tensor_product(filt, I2)
    unnormalized = big @ rho @ big.conj().swapaxes(-1, -2)
    batch = unnormalized.shape[:-2]
    unnormalized = unnormalized.reshape(-1, 4, 4)
    p = np.trace(unnormalized, axis1=1, axis2=2).real
    fired = p > 0.0
    # A filter that never fires leaves the zero state, worth 1/2.
    p = np.where(fired, p, 0.0)
    success = np.divide(unnormalized, p[:, None, None], out=unnormalized.copy(),
                        where=fired[:, None, None])
    value = np.full(len(p), 0.5)
    if fired.any():
        fraction, _ = _singlet_fraction(success[fired])
        value[fired] = np.maximum(0.5, p[fired] * fraction + (1.0 - p[fired]) / 2.0)
    if not batch:
        return FilterProtocol(filt, float(p[0]), success[0], float(value[0]))
    return FilterProtocol(filt, p.reshape(batch), success.reshape(batch + (4, 4)),
                          value.reshape(batch))


def postprocessing_gap(channel: KrausChannel) -> tuple[float, bool]:
    """Optimal singlet fraction minus what post-processing a maximally
    entangled transmission can reach.

    Returns ``(gap, strict)`` where ``gap`` is lambda_max(choi) minus
    :func:`channel_fstar` and ``strict`` flags a gap above 1e-6.  The gap
    vanishes for unital channels and is strictly positive for nonunital ones.
    Raises for entanglement-breaking channels, where neither side is
    meaningful.
    """
    lam = float(choi(channel).eig.eigenvalues[0])
    if lam <= ENTANGLEMENT_BREAKING_THRESHOLD:
        raise ValueError(
            "entanglement-breaking channel: post-processing gap undefined"
        )
    gap = lam - channel_fstar(channel)
    return gap, gap > 1e-6
