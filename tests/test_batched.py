"""Filter basis shared by the two searches, and the tables built on it."""

import numpy as np
import pytest

from singletopt._batched import (
    filter_basis,
    filter_coefficients,
    magic_top_eig_batch,
    su2_euler_batch,
)
from singletopt.channel import apply_to_half
from singletopt.entmetrics import negativity
from singletopt.linalg import I2, partial_transpose
from singletopt.locc import _filters_from_params, _magic_filter_table
from singletopt.oneshot import _input_filters, _pt_filter_table, channel_negativity

from conftest import random_channels, random_density


def _explicit(filters, rho):
    """(A (x) I) rho (A (x) I)^dag, one filter at a time."""
    out = []
    for a in filters:
        big = np.kron(a, I2)
        out.append(big @ rho @ big.conj().T)
    return np.array(out)


def _random_params(rng, n):
    x = rng.uniform(0.0, 2 * np.pi, (n, 4))
    x[:, 0] = rng.uniform(-0.2, 1.2, n)  # clipped to [0, 1] by both helpers
    x[:4, 0] = (0.0, 1.0, 0.0, 1.0)  # the edge filters s = 0, lam in {0, 1}
    return x


def _cases():
    rng = np.random.default_rng(2024)
    for rank in (1, 2, 3, 4):
        rho = random_density(rng, rank=rank)
        generic = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
        x = _random_params(rng, 8)
        yield rank, rho, np.concatenate([generic, _filters_from_params(x), _input_filters(x)])


@pytest.mark.parametrize("rank, rho, filters", list(_cases()))
def test_filter_basis_reproduces_filtered_states(rank, rho, filters):
    basis = filter_basis(rho)
    assert basis.shape == (16, 4, 4)
    flat = filter_coefficients(filters) @ basis.reshape(16, 16)
    np.testing.assert_allclose(
        flat.reshape(-1, 4, 4), _explicit(filters, rho), rtol=0, atol=1e-14
    )


@pytest.mark.parametrize("rank, rho, filters", list(_cases()))
def test_search_tables_match_explicit_states(rank, rho, filters):
    states = _explicit(filters, rho)
    coeffs = filter_coefficients(filters)
    trace = np.trace(states, axis1=1, axis2=2)

    magic = coeffs.view(np.float64) @ _magic_filter_table(rho)
    top = np.linalg.eigvalsh(magic[:, :16].reshape(-1, 4, 4))[:, -1]
    np.testing.assert_allclose(top, magic_top_eig_batch(states), rtol=0, atol=1e-14)
    np.testing.assert_allclose(magic[:, 16], trace.real, rtol=0, atol=1e-14)

    pt = coeffs @ _pt_filter_table(rho)
    np.testing.assert_allclose(
        pt[:, :16].reshape(-1, 4, 4), partial_transpose(states), rtol=0, atol=1e-14
    )
    np.testing.assert_allclose(pt[:, 16], trace, rtol=0, atol=1e-14)


def test_row_scaled_filters_equal_diagonal_products():
    x = _random_params(np.random.default_rng(7), 64)
    v = su2_euler_batch(x[:, 1], x[:, 2], x[:, 3])
    s = np.clip(x[:, 0], 0.0, 1.0)

    core = np.zeros_like(v)
    core[:, 0, 0] = 1.0
    core[:, 1, 1] = s
    np.testing.assert_array_equal(_filters_from_params(x), core @ v.conj().swapaxes(1, 2))

    w = np.zeros_like(v)
    w[:, 0, 0] = np.sqrt(s)
    w[:, 1, 1] = np.sqrt(1.0 - s)
    np.testing.assert_array_equal(_input_filters(x), w @ np.swapaxes(v, 1, 2))


def test_channel_negativity_value_is_its_input_negativity():
    for k, c in enumerate(random_channels(303, 8)):
        search = channel_negativity(c, seed=k)
        out = apply_to_half(c, search.input_state)
        assert abs(search.value - negativity(out)) <= 1e-12
