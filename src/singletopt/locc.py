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
as the lower bound.  Before any Newton step the bottom eigenvector of
rho^Gamma is tried as that frame, against the dual point
Y = (delta - lambda_min(rho^Gamma)) I: wherever the vector is maximally
entangled the two ends meet at 1/2 - lambda_min(rho^Gamma) in closed form
and no barrier step runs.  On every unital Choi state it is, and that value
is lambda_max(rho), the paper's optimum without post-processing.  The
solve stops once the bracket is narrower than ``GAP_TOLERANCE`` and raises
if that takes more than ``MAX_NEWTON_STEPS`` steps, so a reported F* is
never an unconverged estimate.  The lower end is a rank-one value and the
upper end bounds the full program, so a closed bracket also certifies
rank-one optimality for that state.  The solve takes leading batch axes:
one Newton loop advances a whole stack of states, each retiring on its own
bracket, and :func:`channel_fstars` solves many channels' Choi states in
one such call.  The filter protocol oracle maximizes the primal protocol
value directly, by an independent route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._batched import (
    FILTER_SPEC,
    apply_filter_table,
    filter_batch,
    magic_filter_table,
    random_filter_params,
)
from .channel import KrausChannel
from .choi import ENTANGLEMENT_BREAKING_THRESHOLD, choi
from .entmetrics import _as_density_stack, as_density_matrix, singlet_fraction
from .linalg import I2, PAULIS, partial_transpose, tensor_product
from .optimize import compass_search

__all__ = [
    "GAP_TOLERANCE",
    "MAX_NEWTON_STEPS",
    "FilterProtocol",
    "FstarCertificate",
    "channel_fstar",
    "channel_fstars",
    "fstar",
    "fstar_bracket",
    "fstar_certificate",
    "fstar_filter_oracle",
    "postprocessing_gap",
]

# Width of the certified bracket at which the dual solve stops.
GAP_TOLERANCE = 1e-10
# Newton steps after which an unclosed bracket raises.  Random states of
# rank 2-4 and the named channels' Choi states close within 64; pure states
# and states PPT up to rounding close at step 0.
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
# Barrier parameter: log det of the 4x4 M plus log det of the 2x2 Y.
_BARRIER_NU = 6.0
# Margin by which the step-0 dual point Y = (delta - lambda_min) I clears
# lambda_min(rho^Gamma + Y (x) I) = 0; far below GAP_TOLERANCE and far above
# the eigensolver's rounding.
_STEP0_MARGIN = 1e-12


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


@dataclass(frozen=True)
class FstarCertificate:
    """Certified bracket ``lower <= F* <= upper`` and the points proving it.

    ``primal`` is a 4-vector whose largest Schmidt singular value is at
    most 1/sqrt(2); it attains ``lower = 1/2 - min(0, <x|rho^Gamma|x>)``
    (the zero vector stands for preparing a separable state).  ``dual`` is
    a 2x2 matrix Y with Y >= 0 and rho^Gamma + Y (x) I >= 0, giving
    ``upper = 1/2 + Tr Y / 2``.  ``newton_steps`` counts the barrier steps;
    0 means the state is PPT or its bracket closed in closed form at step 0.
    For a stack of states every field carries the stack's leading axes.
    """

    lower: float | np.ndarray
    upper: float | np.ndarray
    primal: np.ndarray
    dual: np.ndarray
    newton_steps: int | np.ndarray


def fstar_certificate(rho: np.ndarray) -> FstarCertificate:
    """Solve the dual program for F*(rho) until the bracket closes.

    Minimizes t Tr Y / 2 - log det(rho^Gamma + Y (x) I) - log det Y over
    Y = sum_k z_k sigma_k by damped Newton steps, raising t by a fixed
    factor after each centering, from the strictly feasible start
    Y = (1 - lambda_min(rho^Gamma)) I.  With M = rho^Gamma + Y (x) I and
    E_k = sigma_k (x) I, the log det M terms of gradient and Hessian are
    d_k = -Tr(M^-1 E_k) and H_kl = Tr(M^-1 E_k M^-1 E_l), with M^-1 from one
    Hermitian eigendecomposition per step.  The primal frame candidate is
    evaluated only at centered iterates whose barrier bound nu / t (nu = 6)
    is within ``GAP_TOLERANCE``: only then is the upper end certified that
    close to the optimum, and on random and Choi states no earlier frame
    closed the bracket.  The solve returns once the iterate is checked
    strictly dual feasible and ``upper - lower <= GAP_TOLERANCE``, and
    raises ``RuntimeError`` if that has not happened within
    ``MAX_NEWTON_STEPS``.  A PPT state returns ``(1/2, 1/2)`` exactly,
    without iterating.

    Step 0 closes the bracket in closed form where it can: the start M
    shares rho^Gamma's eigenvectors, the frame of the bottom one gives the
    lower end, and Y = (delta - lambda_min) I with delta = 1e-12 the upper
    end, checked strictly feasible as on the Newton path.  The bracket is
    then delta wide wherever that eigenvector is maximally entangled (every
    unital Choi state, where F* = lambda_max(rho)) and on states PPT up to
    rounding; such a state returns with ``newton_steps == 0``.  Every other
    state runs the barrier loop unchanged.

    Leading axes of ``rho`` are batch axes: one loop advances every state of
    a (..., 4, 4) stack, each retiring on its own bracket, and the fields
    come back with the stack's leading axes.  A single state gives scalar
    ``lower``, ``upper`` and ``newton_steps``.
    """
    rho = _as_density_stack(rho)
    batch = rho.shape[:-2]
    gamma = partial_transpose(rho, "first").reshape(-1, 4, 4)
    n = len(gamma)
    lower, upper = np.full(n, 0.5), np.full(n, 0.5)
    primal = np.zeros((n, 4), dtype=complex)
    dual = np.zeros((n, 2, 2), dtype=complex)
    steps = np.zeros(n, dtype=int)

    lam_min = np.linalg.eigvalsh(gamma)[:, 0]
    # The states still iterating, and each one's solver state.
    live = np.flatnonzero(lam_min < 0.0)
    gamma = gamma[live]
    z = np.zeros((len(live), 4))
    z[:, 0] = 1.0 - lam_min[live]
    t = np.full(len(live), _T_START)
    count = np.zeros(len(live), dtype=int)
    centered = np.zeros(len(live), dtype=bool)
    best_value = np.zeros(len(live))
    best_x = np.zeros((len(live), 4), dtype=complex)
    while len(live):
        # One Hermitian eigensolve gives M^-1, the feasibility margin and,
        # at a centered iterate, the primal frame.
        vals, vecs = np.linalg.eigh(gamma + (z @ _DUAL_BASIS_FLAT).reshape(-1, 4, 4))
        done = np.zeros(len(live), dtype=bool)
        if not count[0]:
            # Step 0 (all states start together).  The start M shares
            # rho^Gamma's eigenvectors, so its eigh serves; an eigh of
            # rho^Gamma in place of the eigvalsh above would move lambda_min,
            # and with it every later iterate, in the last bits.
            y = _STEP0_MARGIN - lam_min[live]
            value, x = _frame_minimum(gamma, vecs[:, :, 0])
            # As on the Newton path, the zero vector (lower end 1/2) is the floor.
            x[value >= 0.0] = 0.0
            value = np.minimum(value, 0.0)
            close = np.flatnonzero((0.5 + y) - (0.5 - value) <= GAP_TOLERANCE)
            margin = np.linalg.eigvalsh(gamma[close] + y[close, None, None] * np.eye(4))
            close = close[(margin[:, 0] > 0.0) & (y[close] > 0.0)]
            z[close] = 0.0
            z[close, 0] = y[close]
            best_value[close], best_x[close] = value[close], x[close]
            done[close] = True
        check = np.flatnonzero(centered & (_BARRIER_NU / t <= GAP_TOLERANCE))
        if len(check):
            value, x = _frame_minimum(gamma[check], vecs[check, :, 0])
            better = value < best_value[check]
            best_value[check[better]] = value[better]
            best_x[check[better]] = x[better]
            # The barrier keeps iterates interior; the check makes that explicit.
            feasible = (vals[check, 0] > 0.0) & (
                z[check, 0] > np.linalg.norm(z[check, 1:], axis=1)
            )
            closed = (0.5 + z[check, 0]) - (0.5 - best_value[check]) <= GAP_TOLERANCE
            done[check[feasible & closed]] = True
        if done.any():
            out = live[done]
            lower[out] = 0.5 - best_value[done]
            upper[out] = 0.5 + z[done, 0]
            primal[out] = best_x[done]
            dual[out] = np.tensordot(z[done], _PAULIS, 1)
            steps[out] = count[done]
            live, gamma, z, t, count, centered, best_value, best_x, vals, vecs = (
                x[~done]
                for x in (live, gamma, z, t, count, centered, best_value, best_x, vals, vecs)
            )
            if not len(live):
                break
        t[centered] *= _T_GROWTH
        if (count == MAX_NEWTON_STEPS).any():
            raise RuntimeError(
                f"fstar: bracket still wider than {GAP_TOLERANCE:.0e} "
                f"after {MAX_NEWTON_STEPS} Newton steps"
            )
        a = ((vecs / vals[:, None, :]) @ vecs.conj().swapaxes(1, 2))[:, None] @ _DUAL_BASIS
        grad = -np.trace(a, axis1=2, axis2=3).real
        hess = (a.reshape(-1, 4, 16) @ a.swapaxes(2, 3).reshape(-1, 4, 16).swapaxes(1, 2)).real
        w = _SIGNATURE * z
        q = (z * w).sum(axis=1)  # det Y
        grad += (-2.0 / q)[:, None] * w
        grad[:, 0] += t
        hess += (-2.0 / q)[:, None, None] * _SIGNATURE_DIAG
        hess += (4.0 / q**2)[:, None, None] * (w[:, :, None] * w[:, None, :])
        # An explicit trailing axis: numpy 1.x reads a 2-D b as a stack of
        # vectors, numpy 2 as one matrix.
        delta = np.linalg.solve(hess, -grad[:, :, None])[:, :, 0]
        decrement2 = -(grad * delta).sum(axis=1)
        z = z + delta / (1.0 + np.sqrt(decrement2))[:, None]
        count += 1
        centered = decrement2 <= _CENTERED

    if not batch:
        return FstarCertificate(
            float(lower[0]), float(upper[0]), primal[0], dual[0], int(steps[0])
        )
    return FstarCertificate(
        lower.reshape(batch),
        upper.reshape(batch),
        primal.reshape(batch + (4,)),
        dual.reshape(batch + (2, 2)),
        steps.reshape(batch),
    )


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


def channel_fstars(channels) -> list:
    """:func:`fstar` of each channel's Choi state, as a list of floats.

    Solved once per channel object and kept next to its Choi state (see
    :func:`choi.choi`), so every caller that needs F* of the same channel
    shares one solve; the channels without a kept value are solved together,
    in one :func:`fstar` call on the stack of their Choi states.
    """
    missing = list({id(c): c for c in channels if "fstar" not in c._states}.values())
    if missing:
        values = fstar(np.array([choi(c).matrix for c in missing]))
        for channel, value in zip(missing, values):
            channel._states["fstar"] = float(value)
    return [c._states["fstar"] for c in channels]


def channel_fstar(channel: KrausChannel) -> float:
    """:func:`fstar` of the channel's Choi state; see :func:`channel_fstars`."""
    return channel_fstars([channel])[0]


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

    random_starts = random_filter_params(np.random.default_rng(seed), restarts)
    starts = np.vstack([[(1.0, 0, 0)], top, random_starts])
    x, _ = compass_search(objective, starts, FILTER_SPEC, step0=0.4, step_tol=1e-7)

    filt = filter_batch([(1.0, x[0])], [x[1]], [x[2]])[0].conj()
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
