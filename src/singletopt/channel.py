"""Qubit channels in Kraus form.

Construction, CPTP validation, duals, unitality and extraction of a
trace-orthogonal Kraus set from a Choi matrix.  Channels are immutable and
all operations are pure functions.

:func:`validate` is the one CPTP gate, decided once per channel.  An
accepted channel off TP by more than rounding is analyzed as its exact TP
projection A_k S^(-1/2), S = sum A^dag A; ``kraus``, :func:`apply`,
:func:`apply_to_half`, :func:`channel_to_dict` and the report's two numbers
keep the operators as given.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .linalg import (
    I2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PHI_PLUS,
    has_maximally_mixed_marginal,
    hermitian_eig,
    is_unitary,
)

__all__ = [
    "KrausChannel",
    "ValidationReport",
    "CPTP_TOLERANCE",
    "validate",
    "dual",
    "is_unital",
    "unitality_deviations",
    "apply",
    "apply_to_half",
    "choi_matrix",
    "kraus_from_choi",
    "KRAUS_CUT",
    "identity",
    "unitary",
    "depolarizing",
    "amplitude_damping",
    "phase_damping",
    "bit_flip",
    "random_channel",
    "channel_to_dict",
    "channel_from_dict",
]


def _clean_operator(op: np.ndarray) -> np.ndarray:
    arr = np.array(op, dtype=complex)
    if arr.shape != (2, 2):
        raise ValueError(f"Kraus operators must be 2x2, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class KrausChannel:
    """A qubit map given by 1-4 Kraus operators.

    The constructor only checks shapes; completeness (trace preservation and
    complete positivity) is checked by :func:`validate` so that intentionally
    non-trace-preserving objects such as duals of nonunital channels can be
    represented too.
    """

    kraus: tuple
    label: str = ""
    params: Mapping[str, float] = field(default_factory=dict)
    # What :func:`validate`'s pass measures (see :func:`_measure`), and the
    # states that :mod:`singletopt.choi` builds once from there and shares.
    _states: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        ops = tuple(_clean_operator(op) for op in self.kraus)
        if not 1 <= len(ops) <= 4:
            raise ValueError(f"expected 1-4 Kraus operators, got {len(ops)}")
        object.__setattr__(self, "kraus", ops)

    def describe(self) -> str:
        if self.params:
            inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
            return f"{self.label or 'channel'}({inner})"
        return self.label or "channel"


@dataclass(frozen=True)
class ValidationReport:
    tp_residual: float
    cp_min_eigenvalue: float
    ok: bool

    def numbers(self) -> str:
        """The two measurements, as every rejection message quotes them."""
        return f"tp_residual={self.tp_residual!r}, cp_min_eigenvalue={self.cp_min_eigenvalue!r}"


# The one CPTP rule: sum A^dag A within this of I (Frobenius norm), Choi
# eigenvalues at least its negative.  A channel is unital where its dual
# map is TP to the same width.
CPTP_TOLERANCE = 1e-9

# The tp_residual above which an accepted channel is analyzed as its
# exact TP projection; below it the input is TP to rounding.
_TP_ROUNDING = 1e-14

# |Phi+><Phi+|: a Choi matrix sends its second half through the channel.
_BELL = np.outer(PHI_PLUS, PHI_PLUS.conj())


def validate(channel: KrausChannel) -> ValidationReport:
    """Check trace preservation and complete positivity.

    ``tp_residual`` is the Frobenius distance of sum A_i^dag A_i from the
    identity; ``cp_min_eigenvalue`` is the smallest eigenvalue of the Choi
    matrix, NaN if that overflows, both of the operators as given.  ``ok``
    requires both within ``CPTP_TOLERANCE``.  Decided once per channel
    object, by :func:`_measure`.
    """
    _measure([channel])
    return channel._states["validation"]


def _measure(channels) -> None:
    """Decide :func:`validate`'s report, and take the unitality deviation,
    Choi and dual-Choi matrices, of the (distinct) channels that lack them.

    One stacked pass over their Kraus lists, zero-padded to the longest,
    gives every sum A^dag A, sum A A^dag, Choi and dual-Choi matrix (that of
    the daggered list) and Choi lambda_min; the zero operators add exact
    zeros, so each value is bit for bit the channel's own.  Frobenius norms
    are taken matrix by matrix: ``np.linalg.norm`` of a stack sums in an
    order one matrix alone does not reproduce.  An accepted channel with
    tp_residual above ``_TP_ROUNDING`` takes its three values from its exact
    TP projection A_k S^(-1/2), S = sum A^dag A, kept under ``"kraus"``.
    """
    todo = [c for c in channels if "validation" not in c._states]
    if not todo:
        return
    ops = _kraus_stack([c.kraus for c in todo])
    daggers = ops.conj().swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = (daggers @ ops).sum(axis=1)
        tp_residuals = [float(np.linalg.norm(d)) for d in gram - I2]
        unital = [float(np.linalg.norm(d)) for d in (ops @ daggers).sum(axis=1) - I2]
        matrices, duals = np.split(_bell_products(np.concatenate([ops, daggers])), 2)
    finite = np.isfinite(matrices).all(axis=(1, 2))
    cp_min = np.full(len(todo), np.nan)
    if finite.any():
        cp_min[finite] = np.linalg.eigvalsh(matrices[finite])[:, 0]
    for k, channel in enumerate(todo):
        tp, cp = tp_residuals[k], float(cp_min[k])
        report = ValidationReport(tp, cp, tp <= CPTP_TOLERANCE and cp >= -CPTP_TOLERANCE)
        channel._states.update(validation=report, unitality_deviation=unital[k],
                               choi_matrix=matrices[k], dual_choi_matrix=duals[k])
        if report.ok and tp > _TP_ROUNDING:
            w, v = np.linalg.eigh(gram[k])  # S^(-1/2) = v diag(w^(-1/2)) v^dag
            root = (v / np.sqrt(w)) @ v.conj().T
            projected = KrausChannel(kraus=tuple(ops[k, : len(channel.kraus)] @ root))
            _measure([projected])  # TP to rounding, so measured as given
            channel._states.update(projected._states, validation=report, kraus=projected.kraus)


def _kraus_stack(kraus_lists) -> np.ndarray:
    """The Kraus lists as one (n, k, 2, 2) stack, zero-padded to the
    longest list, k."""
    ops = np.zeros((len(kraus_lists), max(map(len, kraus_lists)), 2, 2), dtype=complex)
    for row, kraus in zip(ops, kraus_lists):
        row[: len(kraus)] = kraus
    return ops


def dual(channel: KrausChannel) -> KrausChannel:
    """Adjoint map under the Hilbert-Schmidt inner product.

    Kraus operators are replaced by their daggers.  The result is trace
    preserving exactly when ``channel`` is unital, so it may fail
    :func:`validate` while still being a perfectly good completely positive
    map.
    """
    return KrausChannel(
        kraus=tuple(op.conj().T for op in channel.kraus),
        label=f"dual({channel.describe()})",
    )


def unitality_deviations(channels) -> list:
    """||L(I) - I||_F of each channel, taken in :func:`validate`'s stacked pass."""
    _measure(channels)
    return [c._states["unitality_deviation"] for c in channels]


def is_unital(channel: KrausChannel) -> tuple[bool, float]:
    """Whether the channel preserves the identity, plus ||L(I) - I||_F."""
    deviation = unitality_deviations([channel])[0]
    return deviation < CPTP_TOLERANCE, deviation


def apply(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Kraus action sum_i A_i rho A_i^dag on a single-qubit operator."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {rho.shape}")
    out = np.zeros((2, 2), dtype=complex)
    for op in channel.kraus:
        out += op @ rho @ op.conj().T
    return out


def _as_two_qubit_density(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if state.shape == (4,):
        return np.outer(state, state.conj())
    if state.shape == (4, 4):
        return state
    raise ValueError(f"expected a 4-vector or 4x4 matrix, got shape {state.shape}")


def apply_to_half(channel: KrausChannel, state: np.ndarray) -> np.ndarray:
    """Send the second qubit of a two-qubit state through the channel.

    ``state`` may be a 4-vector (pure state) or a 4x4 density matrix; the
    result is always a 4x4 matrix.
    """
    return _act_on_second(np.array(channel.kraus), _as_two_qubit_density(state))


def _act_on_second(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_k (I (x) A_k) rho (I (x) A_k)^dag for stacked (k, 2, 2) operators.

    Leading axes of ``ops`` before k are batch axes: a (n, k, 2, 2) stack
    gives the n results as one (n, 4, 4) stack, of one 4x4 ``rho`` or of
    each matrix of an (n, 4, 4) stack of them.
    """
    rho = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    out = np.einsum("...kyb,...ibjd,...kzd->...iyjz", ops, rho, ops.conj())
    return out.reshape(ops.shape[:-3] + (4, 4))


def _apply_to_halves(channels, states: np.ndarray) -> np.ndarray:
    """:func:`apply_to_half` of each channel's analyzed Kraus list (see
    :func:`_measure`) on its own pure state, the (n, 4) ``states``, as one
    (n, 4, 4) stack in one pass over the zero-padded lists."""
    rho = states[:, :, None] * states.conj()[:, None, :]
    return _act_on_second(_kraus_stack([c._states.get("kraus", c.kraus) for c in channels]), rho)


_BELL_ENTRY = _BELL[0, 0].real  # 1/sqrt(2) squared: 0.4999999999999999


def _bell_products(ops: np.ndarray) -> np.ndarray:
    """``_act_on_second(ops, _BELL)``, bit for bit, by one broadcast.

    Entry (iy, jz) is sum_k (A_k[y, i] r) conj(A_k[z, j]), with r
    ``_BELL``'s nonzero entry: 0.4999999999999999, not 0.5.  The einsum
    forms each term in complex arithmetic, (A r) first, and sums over k in
    order; the same products and sums in real parts (conj(A) = cr - i ai)
    agree with it in every bit, signs of zeros and overflows included, and
    skip its zero terms.  Leading axes of ``ops`` before k are batch axes.
    """
    a = ops.swapaxes(-1, -2)  # a[..., k, i, y] = A_k[y, i]
    left, right = a[..., :, :, :, None, None], a[..., :, None, None, :, :]
    tr, ti = left.real * _BELL_ENTRY, left.imag * _BELL_ENTRY
    cr, ai = right.real, right.imag
    out = np.empty(ops.shape[:-3] + (2, 2, 2, 2), dtype=complex)
    out.real = (tr * cr + ti * ai).sum(axis=-5)
    out.imag = (ti * cr - tr * ai).sum(axis=-5)
    return out.reshape(ops.shape[:-3] + (4, 4))


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """4x4 matrix obtained by sending half of |Phi+> through the channel."""
    return apply_to_half(channel, PHI_PLUS)


# How far from I/2 the first marginal of a Choi matrix handed to
# :func:`kraus_from_choi` may be; matrices read from outside the package
# get the same 1e-8 slack as its Hermiticity check.
_MARGINAL_TOL = 1e-8

# A Choi eigenvalue below this gives no Kraus operator; every read-back of
# a Kraus set from a Choi spectrum cuts here.
KRAUS_CUT = 1e-12


def kraus_from_choi(choi) -> KrausChannel:
    """Recover a trace-orthogonal Kraus set from a Choi matrix.

    Each eigenpair (p_k, |v_k>) of the Choi matrix with p_k >= ``KRAUS_CUT``
    yields an operator A_k = sqrt(2 p_k) * [v_k reshaped column-wise], and
    the resulting set satisfies Tr(A_k^dag A_l) = 2 p_k delta_kl and
    reproduces the original Choi matrix.  Requires a maximally mixed first
    marginal (which is what makes the set trace preserving).  A
    :class:`~singletopt.choi.ChoiState`'s kept spectrum is used as is: the
    bits of a fresh :func:`~singletopt.linalg.hermitian_eig` of its matrix.
    """
    matrix = np.asarray(getattr(choi, "matrix", choi), dtype=complex)
    if matrix.shape != (4, 4):
        raise ValueError(f"expected a 4x4 Choi matrix, got shape {matrix.shape}")
    if not has_maximally_mixed_marginal(matrix, _MARGINAL_TOL):
        raise ValueError("Choi matrix does not have a maximally mixed first marginal")
    return _kraus_set(matrix, getattr(choi, "eig", None))


def _kraus_operators(eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> np.ndarray:
    """sqrt(2 p_k) [v_k reshaped column-wise] for each eigenpair (p_k, |v_k>)
    of a stack of 4x4 Choi spectra, as a (..., 4, 2, 2) stack: the zero
    operator where p_k < ``KRAUS_CUT``.  Each operator is bit for bit the
    one :func:`kraus_from_choi` reads off its matrix's spectrum alone."""
    vectors = eigenvectors.swapaxes(-1, -2)
    g = np.sqrt(2.0) * vectors.reshape(vectors.shape[:-1] + (2, 2)).swapaxes(-1, -2)
    kept = eigenvalues >= KRAUS_CUT
    scale = np.sqrt(np.where(kept, eigenvalues, 0.0))[..., None, None]
    return np.ascontiguousarray(np.where(kept[..., None, None], scale * g, 0.0))


def _kraus_set(matrix: np.ndarray, eig=None) -> KrausChannel:
    """The nonzero operators of :func:`_kraus_operators` for the 4x4 Choi
    matrix, or the single zero operator where there is none (a compressed
    list of tiny operators, left for :func:`validate` to reject); ``eig``
    is its eigendecomposition where one is already at hand."""
    if eig is None:
        eig = hermitian_eig(matrix, tol=1e-8)
    ops = _kraus_operators(eig.eigenvalues, eig.eigenvectors)
    kept = ops[eig.eigenvalues >= KRAUS_CUT]
    return KrausChannel(kraus=tuple(kept) or (np.zeros((2, 2), dtype=complex),), label="from_choi")


# ---------------------------------------------------------------------------
# Named constructors
# ---------------------------------------------------------------------------


def _check_probability(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"parameter p must lie in [0, 1], got {p}")
    return p


def identity() -> KrausChannel:
    return KrausChannel(kraus=(I2,), label="identity")


def unitary(u: np.ndarray) -> KrausChannel:
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, 1e-9):
        raise ValueError("unitary() requires a unitary 2x2 matrix")
    return KrausChannel(kraus=(u,), label="unitary")


def depolarizing(p: float) -> KrausChannel:
    """rho -> (1-p) rho + p I/2."""
    p = _check_probability(p)
    ops = [np.sqrt(1 - 3 * p / 4) * I2]
    ops += [np.sqrt(p / 4) * sigma for sigma in (PAULI_X, PAULI_Y, PAULI_Z)]
    return KrausChannel(kraus=tuple(ops), label="depolarizing", params={"p": p})


def amplitude_damping(p: float) -> KrausChannel:
    """Decay toward |0> with probability p."""
    p = _check_probability(p)
    k0 = np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(p)], [0, 0]], dtype=complex)
    return KrausChannel(kraus=(k0, k1), label="amplitude_damping", params={"p": p})


def phase_damping(p: float) -> KrausChannel:
    """Off-diagonal decay by sqrt(1-p) without population transfer."""
    p = _check_probability(p)
    k0 = np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex)
    k1 = np.array([[0, 0], [0, np.sqrt(p)]], dtype=complex)
    return KrausChannel(kraus=(k0, k1), label="phase_damping", params={"p": p})


def bit_flip(p: float) -> KrausChannel:
    p = _check_probability(p)
    return KrausChannel(
        kraus=(np.sqrt(1 - p) * I2, np.sqrt(p) * PAULI_X),
        label="bit_flip",
        params={"p": p},
    )


def random_channel(seed: int, kraus_rank: int = 4) -> KrausChannel:
    """Haar-flavored random channel of the given Kraus rank.

    A Gaussian complex (2*rank, 2) matrix is orthonormalized into an isometry
    from the qubit into qubit x environment; the Kraus operators are its
    environment slices.  Deterministic for a fixed seed.
    """
    if kraus_rank not in (1, 2, 3, 4):
        raise ValueError(f"kraus_rank must be 1-4, got {kraus_rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2 * kraus_rank, 2)) + 1j * rng.standard_normal(
        (2 * kraus_rank, 2)
    )
    q, r = np.linalg.qr(g)
    # Pin the QR sign/phase convention so output is backend independent.
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    q = q * phases.conj()
    ops = tuple(q[2 * k : 2 * k + 2, :] for k in range(kraus_rank))
    return KrausChannel(
        kraus=ops, label=f"random(seed={seed},rank={kraus_rank})"
    )


_CONSTRUCTORS = {
    "identity": identity,
    "depolarizing": depolarizing,
    "amplitude_damping": amplitude_damping,
    "phase_damping": phase_damping,
    "bit_flip": bit_flip,
}


def named_channel(name: str, params: Mapping[str, float] | None = None) -> KrausChannel:
    """Build one of the named constructors from a name and parameter map."""
    if name not in _CONSTRUCTORS:
        known = ", ".join(sorted(_CONSTRUCTORS))
        raise ValueError(f"unknown channel '{name}' (known: {known})")
    ctor = _CONSTRUCTORS[name]
    params = dict(params or {})
    if name == "identity":
        if params:
            raise ValueError("identity channel takes no parameters")
        return ctor()
    if set(params) != {"p"}:
        raise ValueError(f"channel '{name}' expects exactly the parameter p")
    return ctor(params["p"])


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def _matrix_to_pairs(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]


def _json_real(value, what: str) -> float:
    """A finite JSON number (not a boolean) as a float, else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {reprlib.repr(value)}")
    try:
        number = float(value)
    except OverflowError:
        number = float("inf")
    if not np.isfinite(number):
        raise ValueError(f"{what} must be a finite double, got {number!r}")
    return number


def _is_pair_list(value) -> bool:
    return isinstance(value, list) and len(value) == 2


def _matrix_from_pairs(rows) -> np.ndarray:
    """A 2x2 list of [re, im] pairs of finite numbers as a complex matrix."""
    if not (_is_pair_list(rows) and all(_is_pair_list(row) for row in rows)):
        raise ValueError(
            "each Kraus operator must be a 2x2 list of [re, im] pairs, "
            f"got {reprlib.repr(rows)}"
        )
    out = np.empty((2, 2), dtype=complex)
    for i, row in enumerate(rows):
        for k, entry in enumerate(row):
            if not _is_pair_list(entry):
                raise ValueError(
                    f"Kraus entries must be [re, im] pairs, got {reprlib.repr(entry)}"
                )
            re, im = (_json_real(x, "Kraus entry part") for x in entry)
            out[i, k] = complex(re, im)
    return out


def channel_to_dict(channel: KrausChannel) -> dict:
    """Serialize as {"kraus": [...]} with [re, im] entry pairs."""
    return {"kraus": [_matrix_to_pairs(op) for op in channel.kraus]}


def _compressed(ops: np.ndarray) -> KrausChannel:
    """The Kraus set of the Choi matrix of stacked (k, 2, 2) operators.

    The Choi matrix is quadratic in the operators, so where it overflows the
    list is compressed at the power-of-two scale that brings every real and
    imaginary part below 1, and the result is scaled back: the same set in
    exact arithmetic, left for :func:`validate` to reject.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = _bell_products(ops)
    if np.isfinite(matrix).all():
        return _kraus_set(matrix)
    exponent = np.frexp(np.abs(ops.view(float)).max())[1]
    small = _kraus_set(_bell_products(np.ldexp(ops.view(float), -exponent).view(complex)))
    with np.errstate(over="ignore"):
        kraus = tuple(np.ldexp(op.view(float), exponent).view(complex) for op in small.kraus)
    return KrausChannel(kraus=kraus, label="from_choi")


def channel_from_dict(data: Mapping) -> KrausChannel:
    """Parse either {"name": ..., "params": {...}} or {"kraus": [...]}, no other key.

    Kraus lists longer than four operators are compressed through the Choi
    matrix back to a trace-orthogonal set of at most four.  The Choi matrix
    of a Kraus list is positive, so any list compresses (at a smaller scale
    where that matrix overflows); the result keeps the list's sum A^dag A,
    and :func:`validate` judges it as it judges a short list.
    """
    if not isinstance(data, Mapping):
        raise ValueError("channel spec must be a JSON object")
    if "name" in data and "kraus" in data:
        raise ValueError("give either 'name' or 'kraus', not both")
    if "name" not in data and "kraus" not in data:
        raise ValueError("channel spec needs a 'name' or 'kraus' field")
    unknown = set(data) - ({"name", "params"} if "name" in data else {"kraus"})
    if unknown:
        raise ValueError(f"unknown channel spec key(s) {reprlib.repr(sorted(unknown, key=repr))}")
    if "name" in data:
        name, params = data["name"], data.get("params")
        if not isinstance(name, str):
            raise ValueError(f"channel name must be a string, got {reprlib.repr(name)}")
        if params is not None and not isinstance(params, Mapping):
            raise ValueError(
                f"channel params must be a JSON object, got {reprlib.repr(params)}"
            )
        params = {k: _json_real(v, f"parameter {k}") for k, v in (params or {}).items()}
        return named_channel(name, params)
    if not isinstance(data["kraus"], list):
        raise ValueError("'kraus' must be a list of 2x2 matrices")
    ops = [_matrix_from_pairs(rows) for rows in data["kraus"]]
    if not ops:
        raise ValueError("empty Kraus list")
    if len(ops) > 4:
        return _compressed(np.array(ops))
    return KrausChannel(kraus=tuple(ops), label="custom")
