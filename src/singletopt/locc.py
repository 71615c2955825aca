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

with Y a 2x2 Hermitian matrix.  :func:`fstar_certificate` solves the dual
with a log-barrier Newton method and brackets F* from both sides: every
iterate Y is dual feasible, so 1/2 + Tr Y / 2 is an upper bound, and the
smallest eigenvector of rho^Gamma + Y (x) I fixes a Schmidt frame on which
the primal minimization over the second singular value and the relative
phase is exact, giving a feasible x and hence an achievable protocol value
as the lower bound.  The solve stops once the bracket is narrower than
``GAP_TOLERANCE`` and raises if that takes more than ``MAX_NEWTON_STEPS``
steps, so a reported F* is never an unconverged estimate.  The lower end
is a rank-one value and the upper end bounds the full program, so a closed
bracket also certifies rank-one optimality for that state.  The filter
protocol oracle maximizes the primal protocol value directly, by an
independent route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._batched import kron_right_identity, magic_top_eig_batch, su2_euler_batch
from .channel import KrausChannel
from .choi import choi
from .entmetrics import as_density_matrix, schmidt, singlet_fraction
from .linalg import I2, PAULIS, partial_transpose, tensor_product
from .oneshot import ENTANGLEMENT_BREAKING_THRESHOLD
from .optimize import SearchSpec, compass_search

__all__ = [
    "GAP_TOLERANCE",
    "MAX_NEWTON_STEPS",
    "FilterProtocol",
    "FstarCertificate",
    "fstar",
    "fstar_bracket",
    "fstar_certificate",
    "fstar_filter_oracle",
    "postprocessing_gap",
]

# Width of the certified bracket at which the dual solve stops.
GAP_TOLERANCE = 1e-10
# Newton steps after which an unclosed bracket raises.  Random states of
# rank 1-4, the named channels' Choi states and pure product states (PPT up
# to rounding) close within 64.
MAX_NEWTON_STEPS = 200

_S1 = 1.0 / np.sqrt(2.0)

# Y = sum_k z_k sigma_k with sigma_0 = I, so Y (x) I = sum_k z_k _DUAL_BASIS[k]
# and log det Y = log(z_0^2 - |z_1..3|^2), the Minkowski form _SIGNATURE.
_PAULIS = np.array(PAULIS)
_DUAL_BASIS = np.array([np.kron(sigma, I2) for sigma in _PAULIS])
_DUAL_BASIS_FLAT = _DUAL_BASIS.reshape(4, 16)
_SIGNATURE = np.array([1.0, -1.0, -1.0, -1.0])
_SIGNATURE_DIAG = np.diag(_SIGNATURE)
# Barrier weight on Tr Y / 2 at the first centering, and its growth per round.
_T_START = 10.0
_T_GROWTH = 50.0
# Squared Newton decrement below which an iterate counts as centered.
_CENTERED = 1e-3


def _frame_minimum(gamma: np.ndarray, ua: np.ndarray, ub: np.ndarray):
    """Minimum of <x|gamma|x> over x = s1 u1(x)v1 + t e^{i th} u2(x)v2.

    The top singular value is pinned at s1 = 1/sqrt(2) (the feasibility
    cap; any minimizer with negative value saturates it) and the phase
    aligns the cross term to be maximally negative, leaving a scalar
    quadratic in t on [0, s1].  Returns the minimum and its vector.
    """
    w1 = np.kron(ua[:, 0], ub[:, 0])
    w2 = np.kron(ua[:, 1], ub[:, 1])
    h11 = np.vdot(w1, gamma @ w1).real
    h22 = np.vdot(w2, gamma @ w2).real
    cross = np.vdot(w1, gamma @ w2)
    h12 = abs(cross)
    phase = -cross.conjugate() / h12 if h12 > 0 else 1.0
    candidates = [0.0, _S1]
    if h22 > 0:
        t = _S1 * h12 / h22
        if 0.0 < t < _S1:
            candidates.append(t)
    best_t = min(
        candidates, key=lambda t: _S1 * _S1 * h11 - 2.0 * _S1 * h12 * t + h22 * t * t
    )
    value = _S1 * _S1 * h11 - 2.0 * _S1 * h12 * best_t + h22 * best_t * best_t
    return value, _S1 * w1 + best_t * phase * w2


@dataclass(frozen=True)
class FstarCertificate:
    """Certified bracket ``lower <= F* <= upper`` and the points proving it.

    ``primal`` is a 4-vector whose largest Schmidt singular value is at
    most 1/sqrt(2); it attains ``lower = 1/2 - min(0, <x|rho^Gamma|x>)``
    (the zero vector stands for preparing a separable state).  ``dual`` is
    a 2x2 matrix Y with Y >= 0 and rho^Gamma + Y (x) I >= 0, giving
    ``upper = 1/2 + Tr Y / 2``.  ``newton_steps`` counts the barrier steps.
    """

    lower: float
    upper: float
    primal: np.ndarray
    dual: np.ndarray
    newton_steps: int


def fstar_certificate(rho: np.ndarray) -> FstarCertificate:
    """Solve the dual program for F*(rho) until the bracket closes.

    Minimizes t Tr Y / 2 - log det(rho^Gamma + Y (x) I) - log det Y over
    Y = sum_k z_k sigma_k by damped Newton steps, raising t by a fixed
    factor after each centering, from the strictly feasible start
    Y = (1 - lambda_min(rho^Gamma)) I.  With M = rho^Gamma + Y (x) I and
    E_k = sigma_k (x) I, the log det M terms of gradient and Hessian are
    d_k = -Tr(M^-1 E_k) and H_kl = Tr(M^-1 E_k M^-1 E_l), with M^-1 from one
    Hermitian eigendecomposition per step.  After each centering the primal
    frame candidate is evaluated; the solve returns once the iterate is
    checked strictly dual feasible and ``upper - lower <= GAP_TOLERANCE``,
    and raises ``RuntimeError`` if that has not happened within
    ``MAX_NEWTON_STEPS``.
    A PPT state returns ``(1/2, 1/2)`` exactly, without iterating.
    """
    rho = as_density_matrix(rho)
    gamma = partial_transpose(rho, "first")
    best_value, best_x = 0.0, np.zeros(4, dtype=complex)
    lam_min = float(np.linalg.eigvalsh(gamma)[0])
    if lam_min >= 0.0:
        return FstarCertificate(0.5, 0.5, best_x, np.zeros((2, 2), dtype=complex), 0)

    z = np.array([1.0 - lam_min, 0.0, 0.0, 0.0])
    t = _T_START
    steps, centered = 0, False
    while True:
        # One Hermitian eigensolve gives M^-1, the feasibility margin and,
        # at a centered iterate, the primal frame.
        vals, vecs = np.linalg.eigh(gamma + (z @ _DUAL_BASIS_FLAT).reshape(4, 4))
        if centered:
            value, x = _frame_minimum(gamma, *schmidt(vecs[:, 0]).local_bases)
            if value < best_value:
                best_value, best_x = value, x
            lower, upper = 0.5 - best_value, 0.5 + z[0]
            # The barrier keeps iterates interior; the check makes that explicit.
            feasible = vals[0] > 0.0 and z[0] > np.linalg.norm(z[1:])
            if feasible and upper - lower <= GAP_TOLERANCE:
                dual = np.tensordot(z, _PAULIS, 1)
                return FstarCertificate(float(lower), float(upper), best_x, dual, steps)
            t *= _T_GROWTH
        if steps == MAX_NEWTON_STEPS:
            raise RuntimeError(
                f"fstar: bracket still wider than {GAP_TOLERANCE:.0e} "
                f"after {MAX_NEWTON_STEPS} Newton steps"
            )
        a = ((vecs / vals) @ vecs.conj().T) @ _DUAL_BASIS
        grad = -np.trace(a, axis1=1, axis2=2).real
        hess = (a.reshape(4, 16) @ a.transpose(0, 2, 1).reshape(4, 16).T).real
        w = _SIGNATURE * z
        q = z @ w  # det Y
        grad += -2.0 / q * w
        grad[0] += t
        hess += (-2.0 / q) * _SIGNATURE_DIAG + (4.0 / q**2) * np.outer(w, w)
        delta = np.linalg.solve(hess, -grad)
        decrement2 = -grad @ delta
        z = z + delta / (1.0 + np.sqrt(decrement2))
        steps += 1
        centered = decrement2 <= _CENTERED


def fstar_bracket(rho: np.ndarray) -> tuple[float, float]:
    """Certified ``(lower, upper)`` bracket on F*(rho), at most
    ``GAP_TOLERANCE`` wide; see :func:`fstar_certificate`."""
    cert = fstar_certificate(rho)
    return cert.lower, cert.upper


def fstar(rho: np.ndarray) -> float:
    """Best singlet fraction reachable from ``rho`` by TP local protocols.

    Returns the lower end of the certified bracket from
    :func:`fstar_certificate`: the value of an explicit feasible protocol,
    within ``GAP_TOLERANCE`` of the dual upper bound.  Deterministic, and
    raises rather than return an unconverged value.
    """
    return fstar_certificate(rho).lower


@dataclass(frozen=True)
class FilterProtocol:
    """A concrete one-sided filter strategy and the value it achieves.

    ``success_state`` is the normalized state after the filter fires with
    probability ``success_probability``.  ``fstar_value`` is the value of
    the better of this filter and the trivial always-prepare-separable
    strategy: max(1/2, p F(success_state) + (1 - p)/2).
    """

    filter: np.ndarray
    success_probability: float
    success_state: np.ndarray
    fstar_value: float


def fstar_filter_oracle(
    rho: np.ndarray,
    restarts: int = 32,
    seed: int = 0,
    max_iters: int = 250,
) -> FilterProtocol:
    """Maximize the filter-protocol value directly (primal oracle for fstar).

    Filters are parameterized as A = diag(1, s) V^dag with s in [0, 1] and
    V a special unitary.  This is fully general: a left unitary factor only
    conjugates the success state locally, leaving both the success
    probability and its singlet fraction unchanged, and pinning the top
    singular value to 1 loses nothing whenever filtering helps at all (the
    trivial separable preparation, worth exactly 1/2, covers the remaining
    states).  The search includes the identity filter, so the result never
    falls below the plain singlet fraction of ``rho``.
    """
    rho = as_density_matrix(rho)

    def objective(x: np.ndarray) -> np.ndarray:
        filters = _filters_from_params(x)
        big = kron_right_identity(filters)
        m = big @ rho @ big.conj().swapaxes(1, 2)
        p = np.einsum("nii->n", m).real
        # p F(m/p) folds into the unnormalized top overlap of m itself.
        return magic_top_eig_batch(m) + (1.0 - p) / 2.0

    # Coarse deterministic grid to locate the right basin.  The landscape
    # has a flat plateau of unitary filters at s = 1 worth exactly the
    # plain singlet fraction; genuine optima typically hug that plateau
    # from below, so the s axis is sampled densely near 1.
    s_axis = np.array([0.15, 0.35, 0.55, 0.7, 0.8, 0.87, 0.92, 0.96, 0.99])
    grid = np.stack(
        [
            g.ravel()
            for g in np.meshgrid(
                s_axis,
                np.arange(10) * (np.pi / 5),
                np.linspace(0.0, np.pi, 6),
                np.arange(10) * (np.pi / 5),
                indexing="ij",
            )
        ],
        axis=-1,
    )
    top = grid[np.argsort(objective(grid))[-24:]]

    rng = np.random.default_rng(seed)
    random_starts = np.empty((restarts, 4))
    random_starts[:, 0] = rng.uniform(0.0, 1.0, restarts)
    random_starts[:, 1] = rng.uniform(0.0, 2 * np.pi, restarts)
    random_starts[:, 2] = rng.uniform(0.0, np.pi, restarts)
    random_starts[:, 3] = rng.uniform(0.0, 2 * np.pi, restarts)
    starts = np.vstack([[(1.0, 0, 0, 0)], top, random_starts])

    spec = SearchSpec.build(
        4,
        clip={0: (0.0, 1.0)},
        wrap={k: 2 * np.pi for k in range(1, 4)},
    )
    x, _ = compass_search(
        objective,
        starts,
        spec,
        step0=0.4,
        step_tol=1e-7,
        max_iters=max_iters,
        extra_directions=4,
        direction_seed=seed + 1,
    )

    filt = _filters_from_params(x[None, :])[0]
    big = tensor_product(filt, I2)
    unnormalized = big @ rho @ big.conj().T
    p = float(np.trace(unnormalized).real)
    success = unnormalized / p
    value, _ = singlet_fraction(success)
    return FilterProtocol(
        filter=filt,
        success_probability=p,
        success_state=success,
        fstar_value=max(0.5, p * value + (1.0 - p) / 2.0),
    )


def _filters_from_params(x: np.ndarray) -> np.ndarray:
    s = np.clip(x[:, 0], 0.0, 1.0)
    v = su2_euler_batch(x[:, 1], x[:, 2], x[:, 3])
    core = np.zeros_like(v)
    core[:, 0, 0] = 1.0
    core[:, 1, 1] = s
    return core @ v.conj().swapaxes(1, 2)


def postprocessing_gap(channel: KrausChannel) -> tuple[float, bool]:
    """Optimal singlet fraction minus what post-processing a maximally
    entangled transmission can reach.

    Returns ``(gap, strict)`` where ``gap`` is lambda_max(choi) minus
    fstar(choi) and ``strict`` flags a gap above 1e-6.  The gap vanishes for
    unital channels and is strictly positive for nonunital ones.  Raises for
    entanglement-breaking channels, where neither side is meaningful.
    """
    state = choi(channel)
    lam = float(state.eig.eigenvalues[0])
    if lam <= ENTANGLEMENT_BREAKING_THRESHOLD:
        raise ValueError(
            "entanglement-breaking channel: post-processing gap undefined"
        )
    gap = lam - fstar(state.matrix)
    return gap, gap > 1e-6
