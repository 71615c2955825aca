"""Qubit channels in Kraus form.

Construction, CPTP validation, duals, unitality and extraction of a
trace-orthogonal Kraus set from a Choi matrix.  Channels are immutable and
all operations are pure functions.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping

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
    "validate",
    "dual",
    "is_unital",
    "apply",
    "apply_to_half",
    "choi_matrix",
    "kraus_from_choi",
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
    # What :func:`validate` measures (its two numbers and the Choi matrix it
    # takes them from), and the Choi and dual-Choi states that
    # :mod:`singletopt.choi` builds once from there and shares read-only.
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


def validate(channel: KrausChannel, tol: float = 1e-9) -> ValidationReport:
    """Check trace preservation and complete positivity.

    ``tp_residual`` is the Frobenius distance of sum A_i^dag A_i from the
    identity; ``cp_min_eigenvalue`` is the smallest eigenvalue of the Choi
    matrix, NaN if that overflows.  ``ok`` requires both within ``tol``.  The
    two measurements are taken once per channel object and kept on it, with
    the Choi matrix, which :func:`singletopt.choi.choi` builds from; ``ok``
    is decided per call.  At the default ``tol`` this is the package's one
    CPTP acceptance rule: :mod:`singletopt.choi` builds states only for
    channels it accepts.
    """
    measured = channel._states.get("validation")
    if measured is None:
        with np.errstate(over="ignore", invalid="ignore"):
            total = sum(op.conj().T @ op for op in channel.kraus)
            tp_residual = float(np.linalg.norm(total - I2))
            matrix = choi_matrix(channel)
        finite = np.isfinite(matrix).all()
        measured = (
            tp_residual,
            float(np.linalg.eigvalsh(matrix).min()) if finite else float("nan"),
        )
        channel._states["validation"] = measured
        channel._states["choi_matrix"] = matrix
    tp_residual, cp_min = measured
    ok = tp_residual <= tol and cp_min >= -tol
    return ValidationReport(tp_residual=tp_residual, cp_min_eigenvalue=cp_min, ok=ok)


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


def is_unital(channel: KrausChannel, tol: float = 1e-9) -> tuple[bool, float]:
    """Whether the channel preserves the identity, plus ||L(I) - I||_F."""
    deviation = float(np.linalg.norm(apply(channel, I2) - I2))
    return deviation < tol, deviation


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
    """sum_k (I (x) A_k) rho (I (x) A_k)^dag for stacked (k, 2, 2) operators."""
    out = np.einsum("kyb,ibjd,kzd->iyjz", ops, rho.reshape(2, 2, 2, 2), ops.conj())
    return out.reshape(4, 4)


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """4x4 matrix obtained by sending half of |Phi+> through the channel."""
    return apply_to_half(channel, PHI_PLUS)


# How far from I/2 the first marginal of a Choi matrix handed to
# :func:`kraus_from_choi` may be; matrices read from outside the package
# get the same 1e-8 slack as its Hermiticity check.
_MARGINAL_TOL = 1e-8


def kraus_from_choi(choi) -> KrausChannel:
    """Recover a trace-orthogonal Kraus set from a Choi matrix.

    Each eigenpair (p_k, |v_k>) of the Choi matrix yields an operator
    A_k = sqrt(2 p_k) * [v_k reshaped column-wise], and the resulting set
    satisfies Tr(A_k^dag A_l) = 2 sqrt(p_k p_l) delta_kl and reproduces the
    original Choi matrix.  Requires a maximally mixed first marginal (which
    is what makes the set trace preserving).
    """
    matrix = np.asarray(getattr(choi, "matrix", choi), dtype=complex)
    if matrix.shape != (4, 4):
        raise ValueError(f"expected a 4x4 Choi matrix, got shape {matrix.shape}")
    if not has_maximally_mixed_marginal(matrix, _MARGINAL_TOL):
        raise ValueError("Choi matrix does not have a maximally mixed first marginal")
    return _kraus_set(matrix)


def _kraus_set(matrix: np.ndarray) -> KrausChannel:
    """One operator sqrt(2 p_k) [v_k reshaped column-wise] per eigenpair
    (p_k, |v_k>) of the 4x4 Choi matrix with p_k >= 1e-12."""
    eig = hermitian_eig(matrix, tol=1e-8)
    ops = []
    for p, vec in zip(eig.eigenvalues, eig.eigenvectors.T):
        if p < 1e-12:
            continue
        g = np.sqrt(2.0) * np.column_stack([vec[0:2], vec[2:4]])
        ops.append(np.sqrt(p) * g)
    return KrausChannel(kraus=tuple(ops), label="from_choi")


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
    bell = np.outer(PHI_PLUS, PHI_PLUS.conj())
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = _act_on_second(ops, bell)
    if np.isfinite(matrix).all():
        return _kraus_set(matrix)
    exponent = np.frexp(np.abs(ops.view(float)).max())[1]
    small = _kraus_set(_act_on_second(np.ldexp(ops.view(float), -exponent).view(complex), bell))
    with np.errstate(over="ignore"):
        kraus = tuple(np.ldexp(op.view(float), exponent).view(complex) for op in small.kraus)
    return KrausChannel(kraus=kraus, label="from_choi")


def channel_from_dict(data: Mapping) -> KrausChannel:
    """Parse either {"name": ..., "params": {...}} or {"kraus": [...]}.

    Kraus lists longer than four operators are compressed through the Choi
    matrix back to a trace-orthogonal set of at most four.  The Choi matrix
    of a Kraus list is positive, so any list compresses (at a smaller scale
    where that matrix overflows); the result keeps the list's sum A^dag A,
    and :func:`validate` judges it as it judges a short list.
    """
    if not isinstance(data, Mapping):
        raise ValueError("channel spec must be a JSON object")
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
    if "kraus" in data:
        if not isinstance(data["kraus"], list):
            raise ValueError("'kraus' must be a list of 2x2 matrices")
        ops = [_matrix_from_pairs(rows) for rows in data["kraus"]]
        if not ops:
            raise ValueError("empty Kraus list")
        if len(ops) > 4:
            return _compressed(np.array(ops))
        return KrausChannel(kraus=tuple(ops), label="custom")
    raise ValueError("channel spec needs a 'name' or 'kraus' field")
