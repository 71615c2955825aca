"""Filter picture shared by the two filter-search references in conftest:
the builder and the magic table."""

import numpy as np
import pytest

from singletopt.channel import apply_to_half
from singletopt.choi import choi
from singletopt.entmetrics import singlet_fraction
from singletopt.linalg import I2, to_magic_basis

from conftest import (
    apply_filter_table,
    filter_batch,
    magic_filter_table,
    random_channels,
    random_density,
)


def _explicit(filters, rho):
    """(A (x) I) rho (A (x) I)^dag, one filter at a time."""
    out = []
    for a in filters:
        big = np.kron(a, I2)
        out.append(big @ rho @ big.conj().T)
    return np.array(out)


def _rz(angle):
    return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])


def _random_scales(rng, n):
    """Row scales of the input picture, the edge weights lam in {0, 1} first."""
    lam = rng.uniform(0.0, 1.0, n)
    lam[:2] = (0.0, 1.0)
    return np.sqrt(np.stack([lam, 1.0 - lam], axis=-1))


def _cases():
    rng = np.random.default_rng(2024)
    for rank in (1, 2, 3, 4):
        rho = random_density(rng, rank=rank)
        generic = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
        alpha, beta = rng.uniform(0.0, 2 * np.pi, (2, 8))
        inputs = filter_batch(_random_scales(rng, 8), alpha, beta)
        s = rng.uniform(0.0, 1.0, 8)
        s[:2] = (0.0, 1.0)
        protocols = filter_batch(np.stack([np.ones(8), s], -1), alpha, beta).conj()
        yield rank, rho, np.concatenate([generic, inputs, protocols])


@pytest.mark.parametrize("rank, rho, filters", list(_cases()))
def test_search_tables_match_explicit_states(rank, rho, filters):
    states = _explicit(filters, rho)
    trace = np.trace(states, axis1=1, axis2=2)

    magic, magic_trace = apply_filter_table(magic_filter_table(rho), filters)
    np.testing.assert_allclose(
        magic, to_magic_basis(states).real, rtol=0, atol=1e-14
    )
    np.testing.assert_allclose(magic_trace, trace.real, rtol=0, atol=1e-14)


def test_row_scaled_filters_equal_diagonal_products():
    rng = np.random.default_rng(7)
    alpha, beta = rng.uniform(-2 * np.pi, 4 * np.pi, (2, 64))
    scales = rng.uniform(0.0, 1.0, (64, 2))
    scales[:2] = ((1.0, 0.0), (0.0, 1.0))
    built = filter_batch(scales, alpha, beta)
    assert built.shape == (64, 2, 2)
    for a, d, x, y in zip(built, scales, alpha, beta):
        ry = np.array([[np.cos(y / 2), -np.sin(y / 2)], [np.sin(y / 2), np.cos(y / 2)]])
        rotation = _rz(x) @ ry
        np.testing.assert_allclose(a, np.diag(d) @ rotation.T, rtol=0, atol=1e-15)


def test_input_filter_output_is_filtered_choi_state():
    """Input A.reshape(4) is sent to 2 (A (x) I) J (A (x) I)^dag, and the
    magic table's objective is its singlet fraction."""
    rng = np.random.default_rng(11)
    for k, c in enumerate(random_channels(404, 8)):
        assert len(c.kraus) == 1 + k % 4
        j = choi(c).matrix
        table = magic_filter_table(j)
        alpha, beta = rng.uniform(0.0, 2 * np.pi, (2, 6))
        filters = filter_batch(_random_scales(rng, 6), alpha, beta)
        magic, _ = apply_filter_table(table, filters)
        objective = 2.0 * np.linalg.eigvalsh(magic)[:, -1]
        for a, value in zip(filters, objective):
            out = apply_to_half(c, a.reshape(4))
            big = np.kron(a, I2)
            np.testing.assert_allclose(
                out, 2.0 * big @ j @ big.conj().T, rtol=0, atol=1e-14
            )
            assert abs(singlet_fraction(out)[0] - value) <= 1e-14


def _objectives(rho, filters):
    """The two search objectives, read off the table as the searches do."""
    magic, trace = apply_filter_table(magic_filter_table(rho), filters)
    top = np.linalg.eigvalsh(magic)[:, -1]
    return {
        "fstar_filter_oracle": top + (1.0 - trace) / 2.0,
        "preprocessed_fidelity_oracle": 2.0 * top,
    }


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_left_rz_factor_cancels_in_every_objective(rank):
    """Why (weight, alpha, beta) suffice: a third Euler angle enters every
    filter as a left Rz factor, and the objectives see only A^dag A."""
    rng = np.random.default_rng(50 + rank)
    rho = random_density(rng, rank=rank)
    alpha, beta = rng.uniform(0.0, 2 * np.pi, (2, 16))
    s = rng.uniform(0.0, 1.0, 16)
    filters = np.concatenate([
        filter_batch(_random_scales(rng, 16), alpha, beta),
        filter_batch(np.stack([np.ones(16), s], -1), alpha, beta).conj(),
    ])
    gamma = rng.uniform(0.0, 2 * np.pi, len(filters))
    rotated = np.array([_rz(g) for g in gamma]) @ filters
    plain, turned = _objectives(rho, filters), _objectives(rho, rotated)
    for name in plain:
        np.testing.assert_allclose(turned[name], plain[name], rtol=0, atol=1e-14)
