"""Headline quantities of a qubit channel under a single use.

The optimal singlet fraction of a channel equals the top eigenvalue of its
Choi state; the pure input achieving it is the top eigenvector of the dual
Choi state, maximally entangled exactly when the channel is unital.  This
module computes those, the related teleportation fidelity, the negativity
identity lambda_max = (1 + N)/2, the output negativity maximized over all
pure inputs with closed-form certificates that close on every entangling
channel tried, and an aggregated report.

``IDENTITIES`` lists every identity the package rests on, each as a
residual with its tolerance, read off one :class:`IdentityContext` over a
list of channels with one value per channel; :func:`report` shows the
closed-form ones and ``singletopt audit`` checks them all, through
:func:`channel_residuals`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .channel import (
    CPTP_TOLERANCE,
    KRAUS_CUT,
    KrausChannel,
    _apply_to_halves,
    _bell_products,
    _kraus_operators,
    is_unital,
    unitality_deviations,
)
from .choi import (
    DEGENERACY_GAP,
    ENTANGLEMENT_BREAKING_THRESHOLD,
    build_states,
    choi,
    choi_states,
    dual_choi,
    eigenvector_correspondence_check,
)
from .entmetrics import (
    SchmidtData,
    _negativity,
    _pt_spectrum_identity_residual,
    _singlet_fraction,
    schmidt,
    singlet_fraction_oracle,
    teleportation_fidelity,
)
from .linalg import I2, MAGIC_BASIS, partial_transpose, swap_conjugate, to_magic_basis
from .locc import GAP_TOLERANCE, FstarCertificate, _fstar_certificate, fstar

__all__ = [
    "ENTANGLEMENT_BREAKING_THRESHOLD",
    "IDENTITIES",
    "Identity",
    "IdentityContext",
    "OptimalFraction",
    "OptimalInput",
    "Classification",
    "NegativitySearch",
    "ChannelReport",
    "optimal_singlet_fraction",
    "optimal_input_state",
    "optimal_input_states",
    "preprocessed_fidelity",
    "classify",
    "choi_negativities",
    "negativity_relation_residual",
    "channel_negativity",
    "channel_negativities",
    "residuals",
    "channel_residuals",
    "report",
]


@dataclass(frozen=True)
class OptimalFraction:
    """Optimal singlet fraction with the raw Choi eigenvalue alongside."""

    value: float
    lambda_max: float
    entanglement_breaking: bool


def optimal_singlet_fraction(channel: KrausChannel) -> OptimalFraction:
    """Best singlet fraction over all pure inputs and local post-processing.

    Equals the top Choi eigenvalue whenever that exceeds 1/2; below that the
    channel is flagged entanglement breaking and the reported value floors
    at the separably achievable 1/2.
    """
    lam = float(choi(channel).eig.eigenvalues[0])
    breaking = lam <= ENTANGLEMENT_BREAKING_THRESHOLD
    return OptimalFraction(
        value=max(0.5, lam), lambda_max=lam, entanglement_breaking=breaking
    )


@dataclass(frozen=True, eq=False)
class OptimalInput:
    """Optimal pure input: top eigenvector of the dual Choi state."""

    state: np.ndarray
    schmidt: SchmidtData
    degenerate: bool


def optimal_input_state(channel: KrausChannel) -> OptimalInput:
    """Pure input whose channel output attains the optimal singlet fraction:
    where the dual Choi top eigenvalue is degenerate it is not unique, and
    the deterministic tie-broken eigenvector comes with ``degenerate`` set."""
    return optimal_input_states([channel])[0]


def optimal_input_states(channels) -> list:
    """Each channel's :func:`optimal_input_state`, bit for bit, from one stacked :func:`schmidt`."""
    eigs = [dual_choi(c).eig for c in channels]
    forms = schmidt(np.array([eig.eigenvectors[:, 0] for eig in eigs]).reshape(-1, 4))
    return [OptimalInput(eig.eigenvectors[:, 0], SchmidtData(weights, (ua, ub)),
                         float(eig.eigenvalues[0] - eig.eigenvalues[1]) < DEGENERACY_GAP)
            for eig, weights, ua, ub in zip(eigs, forms.coefficients, *forms.local_bases)]


def preprocessed_fidelity(channel: KrausChannel) -> float:
    """Best singlet fraction over pure inputs without any post-processing.

    Equals the top eigenvalue of the dual Choi state, which by the swap
    conjugation identity coincides with the top Choi eigenvalue.
    """
    return float(dual_choi(channel).eig.eigenvalues[0])


@dataclass(frozen=True)
class Classification:
    """Unitality against entanglement of the optimal input."""

    unital: bool
    unitality_deviation: float
    psi0_maximally_entangled: bool | None
    verdict: str


# How close to 1/2 the larger squared Schmidt coefficient of a maximally
# entangled optimal input is.
_MES_TOL = 1e-7


def classify(channel: KrausChannel) -> Classification:
    """Check that the optimal input is maximally entangled iff unital.

    A degenerate dual-Choi top eigenvalue leaves the optimal input
    ambiguous, so the verdict is then "indeterminate".
    """
    return _classification(*is_unital(channel), optimal_input_state(channel))


def _classification(unital: bool, deviation: float, inp: OptimalInput) -> Classification:
    """:func:`classify`'s verdict on a channel's unitality and optimal input."""
    if inp.degenerate:
        return Classification(unital, deviation, None, "indeterminate")
    mes = abs(float(inp.schmidt.coefficients[0]) - 0.5) < _MES_TOL
    verdict = "consistent" if mes == unital else "inconsistent"
    return Classification(unital, deviation, mes, verdict)


def choi_negativities(channels) -> np.ndarray:
    """:func:`negativity` of each channel's Choi state, in one call on their
    stacked matrices; no channels give an empty array."""
    matrices = np.array([state.matrix for state in choi_states(channels)])
    return _negativity(matrices.reshape(-1, 4, 4))


def negativity_relation_residual(channel: KrausChannel) -> float:
    """|lambda_max(choi) - (1 + N(choi))/2| of the channel.

    Zero (to numerical precision) for every channel that is not
    entanglement breaking; in the breaking regime N vanishes while
    lambda_max drops below 1/2, so the relation intentionally fails there
    and the residual is reported without being asserted.
    """
    state = choi(channel)
    return float(_relation_residual(state.eig.eigenvalues[0], _negativity(state.matrix)))


def _relation_residual(lam, n):
    return abs(lam - 0.5 * (1.0 + n))


@dataclass(frozen=True, eq=False)
class NegativitySearch:
    """Best output negativity of an explicit pure input, with an upper bound.

    ``value`` is the exact output negativity of ``input_state``, whose larger
    Schmidt coefficient is ``schmidt_weight``.  ``dual`` is a 4x4 W with
    (J + W)^Gamma >= 0, J the Choi state, and ``upper`` = 4 ||W||_inf bounds
    the output negativity of every pure input: equal to ``value`` to 1e-12
    where a certificate closes, 0.0 (and W = 0) on entanglement-breaking
    channels.  Where none closes, [``value``, ``upper``] is the bracket.
    """

    value: float
    input_state: np.ndarray
    schmidt_weight: float
    upper: float
    dual: np.ndarray


def _transpose_kron_identity(a: np.ndarray) -> np.ndarray:
    """A^T (x) I per input: the negativity form is K G K^dag, K = conj(A) (x) I."""
    m = np.zeros((len(a), 2, 2, 2, 2), dtype=complex)
    m[:, :, 0, :, 0] = m[:, :, 1, :, 1] = a.swapaxes(1, 2)
    return m.reshape(-1, 4, 4)


# Widest gap between a certificate's bound and its input's negativity at
# which the bracket counts as closed.
_CERTIFIED_GAP = 1e-12


def _mes_certificates(states) -> tuple:
    """G = J^Gamma, the maximally entangled input's output negativity, an
    upper bound on every pure input's and its dual point, for each Choi state J.

    With (lambda, e) the top eigenpair of J, t = (2 lambda - 1)/4 and
    W = t (I - 2 ee^dag), eps = max(0, -lambda_min((J + W)^Gamma)) makes
    (J + W + eps I)^Gamma >= 0.  Since ||(vv^dag)^Gamma||_1 = ||V||_1^2 for a
    pure input v, V its 2x2 amplitude matrix, every output negativity is at
    most 4 ||W + eps I||_inf = 4 (t + eps) (Vidal and Werner, PRA 65,
    032314).  The maximally entangled input reaches -2 lambda_min(G) =
    2 lambda - 1, so the bound closes where eps vanishes.  It does on every
    unital channel: J is then Bell-diagonal up to local unitaries and
    (J + W)^Gamma has lambda_min = 1/2 + 2t - lambda = 0.
    """
    lam = np.array([state.eig.eigenvalues[0] for state in states])
    e = np.array([state.eig.eigenvectors[:, 0] for state in states])
    t = (2.0 * lam - 1.0) / 4.0
    w = t[:, None, None] * (np.eye(4) - 2.0 * e[:, :, None] * e[:, None, :].conj())
    g = partial_transpose(np.array([state.matrix for state in states]))
    bottom = np.linalg.eigvalsh(np.concatenate([g, g + partial_transpose(w)]))[:, 0]
    reached, shifted = np.split(bottom, 2)
    eps = np.maximum(0.0, -shifted)
    return g, -2.0 * reached, 4.0 * (t + eps), w + eps[:, None, None] * np.eye(4)


def _kernel_certificates(g: np.ndarray) -> tuple:
    """An input, its exact output negativity and Schmidt weight, an upper
    bound on every pure input's and its dual point, for each G = J^Gamma.

    phi, the maximally entangled vector minimizing q = <phi|G^-1|phi>, is the
    bottom eigenvector of the real part of G^-1 in the magic basis.  For
    q < 0 and t = -1/(2q), W = 2t (phi phi^dag)^Gamma has eigenvalues +-t and
    makes (J + W)^Gamma = G + 2t phi phi^dag singular; with the shift eps of
    :func:`_mes_certificates` the bound is 4 (t + eps).  In exact arithmetic
    that is -2/q, reached by the input with A^T proportional to
    P Sigma^(1/2), P Sigma Q the kernel vector G^-1 phi as a 2x2 matrix.
    """
    inverse = np.linalg.pinv(g, hermitian=True)
    q, x = np.linalg.eigh(to_magic_basis(inverse).real)
    q, phi = q[:, 0], x[:, :, 0] @ MAGIC_BASIS.T
    t = np.divide(-0.5, q, out=np.zeros_like(q), where=q < 0.0)
    update = 2.0 * t[:, None, None] * phi[:, :, None] * phi[:, None, :].conj()
    eps = np.maximum(0.0, -np.linalg.eigvalsh(g + update)[:, 0])
    p, s, _ = np.linalg.svd((inverse @ phi[:, :, None]).reshape(-1, 2, 2))
    weights = s / s.sum(axis=1, keepdims=True)
    a = (p * np.sqrt(weights)[:, None, :]).swapaxes(1, 2)
    # The input's exact score: the bottom eigenvalue of its negativity form.
    m = _transpose_kron_identity(a)
    lam = np.linalg.eigh(m.conj().swapaxes(1, 2) @ g @ m)[0][:, 0]
    dual = partial_transpose(update) + eps[:, None, None] * np.eye(4)
    return a, -4.0 * lam, weights[:, 0], 4.0 * (t + eps), dual


def channel_negativities(channels) -> list:
    """Maximize output negativity over all pure inputs, for each channel.

    With J the Choi state and G = J^Gamma (kept qubit), the input
    ``A.reshape(4)``, ||A||_F = 1, has output negativity
    -4 min over unit w of <w|(conj(A) (x) I) G (A^T (x) I)|w>.
    lambda_min(G) = 1/2 - lambda_max(J), so G >= 0 (up to 1e-12) on a
    channel flagged entanglement breaking: every output is separable, and
    the result is 0.0 at the maximally entangled input.  Every other channel
    gets the upper bound of :func:`_mes_certificates`; where it is within
    1e-12 of the maximally entangled input's negativity (on every unital
    channel), that input is returned.  The rest get the closed form of
    :func:`_kernel_certificates`, returned whole where it is within 1e-12 of
    its bound; it closed on every entangling channel tried.  A row neither
    closes keeps the larger of the two inputs' negativities, never below the
    Choi negativity, and the smaller of the two bounds: the bracket
    [``value``, ``upper``].  No search runs.
    """
    mes = np.eye(2, dtype=complex) / np.sqrt(2.0)
    states = choi_states(channels)
    lam = np.array([state.eig.eigenvalues[0] for state in states])
    results = [NegativitySearch(0.0, mes.flatten(), 0.5, 0.0, np.zeros((4, 4)))
               if top <= ENTANGLEMENT_BREAKING_THRESHOLD else None for top in lam]
    live = np.flatnonzero(lam > ENTANGLEMENT_BREAKING_THRESHOLD)
    if not len(live):
        return results
    g, value, upper, dual = _mes_certificates([states[i] for i in live])
    a, weights = np.repeat(mes[None], len(live), axis=0), np.full(len(live), 0.5)
    rows = np.flatnonzero(upper - value > _CERTIFIED_GAP)
    if len(rows):
        k_a, k_value, k_weights, k_upper, k_dual = _kernel_certificates(g[rows])
        closed = k_upper - k_value <= _CERTIFIED_GAP
        # A closed row takes the kernel certificate whole; an open one keeps
        # the better input and the better bound of the two.
        take = closed | (k_value > value[rows])
        a[rows[take]], value[rows[take]] = k_a[take], k_value[take]
        weights[rows[take]] = k_weights[take]
        take = closed | (k_upper < upper[rows])
        upper[rows[take]], dual[rows[take]] = k_upper[take], k_dual[take]
    for j, i in enumerate(live):
        results[i] = NegativitySearch(float(value[j]), a[j].reshape(4), float(weights[j]),
                                      float(upper[j]), dual[j])
    return results


def channel_negativity(channel: KrausChannel) -> NegativitySearch:
    """Best output negativity over pure inputs; see :func:`channel_negativities`."""
    return channel_negativities([channel])[0]


class IdentityContext:
    """What the identity rows and the sweep's columns read for a list of channels.

    Each channel's own states are fetched once: its validation, Choi and
    dual-Choi states, optimal input, lambda_max, unitality and its
    entanglement-breaking and degeneracy flags.  The fields more than one
    row or column reads, among them the Choi negativities and F*, are
    computed on first use in one call on the (n, 4, 4) stack of the
    channels' Choi matrices, each channel's entry bit for bit its own: this
    is the one place a command keeps its stacked solves.
    """

    def __init__(self, channels):
        self.channels = list(channels)
        build_states(self.channels)
        self.validations = [c._states["validation"] for c in self.channels]
        self.choi_states = [choi(c) for c in self.channels]
        self.dual_states = [dual_choi(c) for c in self.channels]
        self.optimal_inputs = optimal_input_states(self.channels)
        self.lambda_max = np.array([state.eig.eigenvalues[0] for state in self.choi_states])
        self.entanglement_breaking = self.lambda_max <= ENTANGLEMENT_BREAKING_THRESHOLD
        self.unitality_deviation = np.array(unitality_deviations(self.channels))
        self.unital = self.unitality_deviation < CPTP_TOLERANCE  # as is_unital decides
        self.degenerate = np.array([inp.degenerate for inp in self.optimal_inputs])

    @cached_property
    def matrices(self) -> np.ndarray:
        return np.array([state.matrix for state in self.choi_states])

    @cached_property
    def negativities(self) -> np.ndarray:
        """Each Choi state's :func:`~singletopt.entmetrics.negativity`."""
        return _negativity(self.matrices)

    @cached_property
    def fstars(self) -> np.ndarray:
        """Each Choi state's :func:`~singletopt.locc.fstar`."""
        return fstar(self.matrices)

    @cached_property
    def certificate(self) -> FstarCertificate:
        """F*'s certificates: the one solve every F* row reads."""
        return _fstar_certificate(self.matrices)

    @cached_property
    def kraus(self) -> tuple:
        """The Kraus sets :func:`~singletopt.channel.kraus_from_choi` reads
        from the kept Choi spectra, zero-padded to four operators, and the
        target Gram matrices diag(2 p_k) of their kept eigenvalues p_k."""
        values = np.array([state.eig.eigenvalues for state in self.choi_states])
        ops = _kraus_operators(values, np.array([state.eig.eigenvectors for state in self.choi_states]))
        return ops, np.where(values >= KRAUS_CUT, 2.0 * values, 0.0)[:, :, None] * np.eye(4)


@dataclass(frozen=True)
class Identity:
    """One identity, checked as a residual against its tolerance.

    ``residual`` returns one value per channel of its context, None where
    the identity does not apply to the channel.  ``reported`` rows are
    closed forms that :func:`report` shows; the others need F* or an oracle
    and run only in the audit.
    """

    name: str
    tolerance: float
    reported: bool
    residual: Callable[[IdentityContext], list | np.ndarray]


def _where(applies, values) -> list:
    """Each channel's value where its row ``applies``, None elsewhere."""
    return [value if ok else None for ok, value in zip(applies, values)]


def _negativity_relation(ctx: IdentityContext) -> list:
    # lambda_max = (1 + N)/2 fails by design on entanglement-breaking channels.
    return [None if breaking else negativity_relation_residual(c)
            for c, breaking in zip(ctx.channels, ctx.entanglement_breaking)]


def _classification_consistent(ctx: IdentityContext) -> list:
    verdicts = [_classification(*args).verdict for args in zip(
        ctx.unital, ctx.unitality_deviation, ctx.optimal_inputs)]
    return _where(~ctx.degenerate, [float(v != "consistent") for v in verdicts])


def _kraus_trace_orthogonality(ctx: IdentityContext) -> np.ndarray:
    ops, target = ctx.kraus
    gram = np.trace(ops.conj().swapaxes(-1, -2)[:, :, None] @ ops[:, None], axis1=-2, axis2=-1)
    return np.abs(gram - target).max(axis=(1, 2))


def _fstar_protocol(ctx: IdentityContext) -> np.ndarray:
    """The primal's filter is a contraction that reaches ``lower``."""
    cert = ctx.certificate
    protocol = cert._protocol(ctx.matrices)
    # ||A||_op, the top singular value, as np.linalg.norm(A, 2) takes it.
    norm = np.linalg.svd(protocol.filter, compute_uv=False)[:, 0]
    return np.maximum.reduce([np.zeros(len(ctx.channels)), norm - 1.0,
                              np.abs(protocol.fstar_value - cert.lower)])


def _fstar_dual_feasible(ctx: IdentityContext) -> np.ndarray:
    """Y >= 0 and rho^Gamma + Y (x) I >= 0 make ``upper`` = 1/2 + Tr Y / 2
    an upper bound (weak duality), within ``GAP_TOLERANCE`` of ``lower``."""
    cert = ctx.certificate
    m = partial_transpose(ctx.matrices, "first") + np.kron(cert.dual, I2)
    trace = np.trace(cert.dual, axis1=1, axis2=2).real
    return np.maximum.reduce([np.zeros(len(ctx.channels)),
                              -np.linalg.eigvalsh(cert.dual)[:, 0],
                              -np.linalg.eigvalsh(m)[:, 0],
                              np.abs(cert.upper - (0.5 + trace / 2.0)),
                              cert.upper - cert.lower - GAP_TOLERANCE])


# Rows and the context reach library functions through module globals, so a
# patched function is what every caller of the table sees.
IDENTITIES = (
    Identity("tp", CPTP_TOLERANCE, True, lambda ctx: [v.tp_residual for v in ctx.validations]),
    Identity("cp", CPTP_TOLERANCE, True,
             lambda ctx: [max(0.0, -v.cp_min_eigenvalue) for v in ctx.validations]),
    Identity("dual_choi_entrywise", 1e-12, True, lambda ctx: [
        np.abs(dual.matrix - swap_conjugate(state.matrix)).max()
        for state, dual in zip(ctx.choi_states, ctx.dual_states)]),
    Identity("dual_choi_spectrum", 1e-10, True, lambda ctx: [
        np.abs(dual.eig.eigenvalues - state.eig.eigenvalues).max()
        for state, dual in zip(ctx.choi_states, ctx.dual_states)]),
    Identity("pt_spectrum_identity", 1e-10, True,
             lambda ctx: np.abs(_pt_spectrum_identity_residual(ctx.matrices))),
    Identity("negativity_relation", 1e-10, True, _negativity_relation),
    # A degenerate top eigenvalue leaves the optimal input undefined.
    Identity("optimal_input_achievement", 1e-9, True, lambda ctx: _where(
        ~ctx.degenerate, np.abs(_singlet_fraction(_apply_to_halves(ctx.channels, np.array(
            [inp.state for inp in ctx.optimal_inputs])))[0] - ctx.lambda_max))),
    Identity("classification_consistent", 0.5, False, _classification_consistent),
    Identity("eigenvector_correspondence", 1e-9, True,
             lambda ctx: [eigenvector_correspondence_check(c) for c in ctx.channels]),
    Identity("kraus_trace_orthogonality", 1e-9, False, _kraus_trace_orthogonality),
    Identity("choi_roundtrip", 1e-9, False, lambda ctx: np.abs(
        _bell_products(ctx.kraus[0]) - ctx.matrices).max(axis=(1, 2))),
    # F*, and so the gap, is undefined on entanglement-breaking channels.
    Identity("gap_nonnegative", 1e-9, False, lambda ctx: _where(
        ~ctx.entanglement_breaking, np.maximum(0.0, ctx.certificate.lower - ctx.lambda_max))),
    Identity("gap_unital", 1e-6, False, lambda ctx: _where(
        ~ctx.entanglement_breaking & ctx.unital,
        np.abs(ctx.lambda_max - ctx.certificate.lower))),
    # The paper's gap > 0, proven from F*'s certified upper end; the 1e-12 is
    # the slack to which fstar_dual_feasible proves that end.
    Identity("gap_nonunital_strict", 0.5, False, lambda ctx: _where(
        ~ctx.entanglement_breaking & ~ctx.unital & ~(ctx.unitality_deviation <= 1e-2),
        ~(ctx.lambda_max - ctx.certificate.upper > 1e-12))),
    Identity("singlet_fraction_oracle", 1e-4, False, lambda ctx: np.abs(
        _singlet_fraction(ctx.matrices)[0]
        - singlet_fraction_oracle(ctx.matrices, resolution_deg=4.0))),
    # F*'s bracket, proven from both ends (see the two functions above), the
    # upper end within GAP_TOLERANCE = 2e-12 of the lower.
    Identity("fstar_protocol", 1e-12, False, _fstar_protocol),
    Identity("fstar_dual_feasible", 1e-12, False, _fstar_dual_feasible),
)


def _evaluate(ctx: IdentityContext, reported_only: bool) -> list:
    """Each channel's residuals of the rows that apply to it."""
    columns = [(r.name, r.residual(ctx)) for r in IDENTITIES if r.reported or not reported_only]
    return [{name: float(values[k]) for name, values in columns if values[k] is not None}
            for k in range(len(ctx.channels))]


def residuals(channel: KrausChannel) -> dict:
    """Residual of every identity in ``IDENTITIES`` that applies to ``channel``.

    Rows that do not apply are left out.
    """
    return channel_residuals([channel])[0]


def channel_residuals(channels) -> list:
    """:func:`residuals` of each channel, each bit for bit its own but the
    oracle row's, with every row computed once over all channels.

    One :class:`IdentityContext` holds every channel: one F* solve, one
    oracle search (each value at least its own), and one call on the stack
    for each of the singlet fractions, the protocol scoring, the dual
    checks, the partial-transpose spectra, the optimal inputs' outputs and
    the Kraus read-backs.  No channels give an empty list.
    """
    return _evaluate(IdentityContext(channels), reported_only=False) if len(channels) else []


@dataclass(frozen=True, eq=False)
class ChannelReport:
    """Everything derived from one channel, with self-check residuals."""

    label: str
    F_lambda: float
    lambda_max: float
    entanglement_breaking: bool
    psi0: np.ndarray
    psi0_schmidt: np.ndarray
    psi0_degenerate: bool
    unital: bool
    unitality_deviation: float
    f_tel: float
    N_choi: float
    F1: float
    residuals: dict

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "F_lambda": self.F_lambda,
            "lambda_max": self.lambda_max,
            "entanglement_breaking": self.entanglement_breaking,
            "psi0": [[float(z.real), float(z.imag)] for z in self.psi0],
            "psi0_schmidt": [float(x) for x in self.psi0_schmidt],
            "psi0_degenerate": self.psi0_degenerate,
            "unital": self.unital,
            "unitality_deviation": self.unitality_deviation,
            "f_tel": self.f_tel,
            "N_choi": self.N_choi,
            "F1": self.F1,
            "residuals": {k: float(v) for k, v in sorted(self.residuals.items())},
        }


def report(channel: KrausChannel) -> ChannelReport:
    """Compute all derived quantities and identity residuals for a channel.

    ``residuals`` holds every applicable reported row of ``IDENTITIES``,
    among them ``dual_choi_entrywise``, the one check that the dual Choi
    state is the swap-conjugate of the Choi state.  A channel that fails
    :func:`~singletopt.channel.validate` raises the ``ValueError`` of
    :func:`~singletopt.choi.choi`.
    """
    ctx = IdentityContext([channel])
    frac = optimal_singlet_fraction(channel)
    return ChannelReport(
        label=channel.describe(),
        F_lambda=frac.value,
        lambda_max=frac.lambda_max,
        entanglement_breaking=frac.entanglement_breaking,
        psi0=ctx.optimal_inputs[0].state,
        psi0_schmidt=ctx.optimal_inputs[0].schmidt.coefficients,
        psi0_degenerate=ctx.optimal_inputs[0].degenerate,
        unital=bool(ctx.unital[0]),
        unitality_deviation=float(ctx.unitality_deviation[0]),
        f_tel=teleportation_fidelity(frac.value),
        N_choi=float(ctx.negativities[0]),
        F1=preprocessed_fidelity(channel),
        residuals=_evaluate(ctx, reported_only=True)[0],
    )
