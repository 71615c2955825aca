import numpy as np
import pytest

from singletopt.channel import amplitude_damping, depolarizing, identity, named_channel
from singletopt.choi import choi
from singletopt.entmetrics import negativity, singlet_fraction
from singletopt.linalg import I2, PHI_PLUS, partial_transpose, tensor_product
from singletopt.locc import (
    GAP_TOLERANCE,
    fstar,
    fstar_bracket,
    fstar_certificate,
    fstar_filter_oracle,
    postprocessing_gap,
)
from singletopt.oneshot import optimal_input_state
from singletopt.channel import apply_to_half

from conftest import random_channels, random_density, random_product_state

BELL = np.outer(PHI_PLUS, PHI_PLUS.conj())


def test_fstar_bell_state():
    assert fstar(BELL) == pytest.approx(1.0, abs=1e-10)


def test_fstar_separable_states_hit_floor():
    rng = np.random.default_rng(1)
    for _ in range(8):
        # Convex mixtures of product states are separable.
        rho = sum(
            w * np.outer(s, s.conj())
            for w, s in (
                (rng.uniform(), random_product_state(rng)) for _ in range(4)
            )
        )
        rho /= np.trace(rho).real
        assert fstar(rho) == pytest.approx(0.5, abs=1e-12)


def test_fstar_amplitude_damping_choi_strictly_below_lambda_max():
    state = choi(amplitude_damping(0.5))
    value = fstar(state.matrix)
    assert value < 0.75 - 1e-6
    proto = fstar_filter_oracle(state.matrix, seed=3)
    assert value == pytest.approx(proto.fstar_value, abs=1e-6)


def test_fstar_bounds():
    rng = np.random.default_rng(2)
    for _ in range(25):
        rho = random_density(rng, rank=int(rng.integers(1, 5)))
        value = fstar(rho)
        fraction, _ = singlet_fraction(rho)
        assert value >= fraction - 1e-10
        assert value >= 0.5
        assert value <= 0.5 * (1 + negativity(rho)) + 1e-10
        assert value <= 1.0 + 1e-10


def test_fstar_monotone_under_extra_filtering():
    # Filtering and mixing with a separable fallback cannot raise F*.
    rng = np.random.default_rng(3)
    separable = np.eye(4) / 4
    for _ in range(12):
        rho = random_density(rng)
        base = fstar(rho)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = g / np.linalg.svd(g, compute_uv=False).max()
        big = tensor_product(b, I2)
        filtered = big @ rho @ big.conj().T
        p = float(np.trace(filtered).real)
        mixed = filtered + (1 - p) * separable
        assert fstar(mixed) <= base + 1e-8


def test_fstar_deterministic():
    rng = np.random.default_rng(4)
    for _ in range(5):
        rho = random_density(rng, rank=int(rng.integers(1, 5)))
        first = fstar_certificate(rho)
        again = fstar_certificate(rho.copy())
        assert (first.lower, first.upper) == (again.lower, again.upper)
        assert np.array_equal(first.primal, again.primal)
        assert np.array_equal(first.dual, again.dual)
        assert fstar(rho) == first.lower


def _certified_states():
    """Criterion 9's 200 seeded states, then the Choi states of four named
    families at the 21 sweep points p in [0, 1]."""
    rng = np.random.default_rng(9009)
    for _ in range(200):
        yield random_density(rng, rank=int(rng.integers(1, 5)))
    for name in ("amplitude_damping", "depolarizing", "phase_damping", "bit_flip"):
        for p in np.linspace(0.0, 1.0, 21):
            yield choi(named_channel(name, {"p": float(p)})).matrix


def test_fstar_certificate_closes_and_is_feasible():
    assert GAP_TOLERANCE == 1e-10
    for rho in _certified_states():
        cert = fstar_certificate(rho)
        assert cert.upper - cert.lower <= 1e-10
        assert fstar_bracket(rho) == (cert.lower, cert.upper)
        gamma = partial_transpose(rho, "first")
        # Dual point: Y >= 0 and rho^Gamma + Y (x) I >= 0 certify the upper end.
        assert np.linalg.eigvalsh(cert.dual).min() >= -1e-12
        assert np.linalg.eigvalsh(gamma + np.kron(cert.dual, I2)).min() >= -1e-12
        assert cert.upper == pytest.approx(0.5 + np.trace(cert.dual).real / 2, abs=1e-15)
        # Primal point: feasible, and it attains the lower end.
        top = np.linalg.svd(cert.primal.reshape(2, 2), compute_uv=False)[0]
        assert top <= 1 / np.sqrt(2) + 1e-12
        attained = 0.5 - min(0.0, np.vdot(cert.primal, gamma @ cert.primal).real)
        assert cert.lower == pytest.approx(attained, abs=1e-14)


def test_fstar_bracket_ppt_states_exact():
    rng = np.random.default_rng(11)
    states = [np.eye(4) / 4, choi(depolarizing(1.0)).matrix]
    for _ in range(6):
        products = [random_product_state(rng) for _ in range(4)]
        rho = sum(rng.uniform(0.1, 1.0) * np.outer(s, s.conj()) for s in products)
        states.append(rho / np.trace(rho).real)
    # Bell-isotropic mixtures below the separability threshold w = 1/3.
    for w in (0.0, 0.2, 0.3):
        states.append(w * BELL + (1 - w) * np.eye(4) / 4)
    for rho in states:
        assert np.linalg.eigvalsh(partial_transpose(rho, "first")).min() >= 0.0
        assert fstar_bracket(rho) == (0.5, 0.5)
        assert fstar_certificate(rho).newton_steps == 0


def test_oracle_bell_state_identity_filter():
    proto = fstar_filter_oracle(BELL, seed=0)
    assert proto.fstar_value == pytest.approx(1.0, abs=1e-9)
    assert proto.success_probability == pytest.approx(1.0, abs=1e-9)


def test_oracle_protocol_invariants():
    rng = np.random.default_rng(5)
    for k in range(6):
        rho = random_density(rng)
        proto = fstar_filter_oracle(rho, seed=k)
        # success state really is the normalized filtered state
        big = tensor_product(proto.filter, I2)
        raw = big @ rho @ big.conj().T
        p = float(np.trace(raw).real)
        assert p == pytest.approx(proto.success_probability, abs=1e-12)
        np.testing.assert_allclose(proto.success_state, raw / p, atol=1e-12)
        value, _ = singlet_fraction(proto.success_state)
        assert proto.fstar_value == pytest.approx(
            max(0.5, p * value + (1 - p) / 2), abs=1e-12
        )
        # filter has operator norm 1
        assert np.linalg.svd(proto.filter, compute_uv=False).max() == pytest.approx(
            1.0, abs=1e-12
        )


def test_oracle_unital_choi_gains_nothing():
    state = choi(depolarizing(0.4))
    target, _ = singlet_fraction(state.matrix)
    proto = fstar_filter_oracle(state.matrix, seed=6)
    assert proto.fstar_value == pytest.approx(target, abs=1e-6)


def test_fstar_matches_oracle_on_random_states():
    rng = np.random.default_rng(7)
    for k in range(25):
        rho = random_density(rng, rank=int(rng.integers(1, 5)))
        value = fstar(rho)
        proto = fstar_filter_oracle(rho, seed=100 + k)
        assert value == pytest.approx(proto.fstar_value, abs=1e-5)


def test_fstar_equals_fraction_on_optimal_input_output():
    for c in random_channels(109, 8):
        lam = float(choi(c).eig.eigenvalues[0])
        if lam <= 0.5 + 1e-12:
            continue
        inp = optimal_input_state(c)
        if inp.degenerate:
            continue
        out = apply_to_half(c, inp.state)
        fraction, _ = singlet_fraction(out)
        assert fstar(out) == pytest.approx(fraction, abs=1e-6)
        assert fstar(out) == pytest.approx(lam, abs=1e-6)


def test_gap_examples():
    gap, strict = postprocessing_gap(depolarizing(0.4))
    assert abs(gap) < 1e-9 and not strict
    gap, strict = postprocessing_gap(identity())
    assert abs(gap) < 1e-9 and not strict
    gap, strict = postprocessing_gap(amplitude_damping(0.5))
    assert gap > 1e-6 and strict


def test_gap_entanglement_breaking_rejected():
    with pytest.raises(ValueError):
        postprocessing_gap(depolarizing(1.0))


def test_gap_sign_and_strictness_on_random_channels():
    from singletopt.channel import is_unital

    for c in random_channels(113, 20):
        lam = float(choi(c).eig.eigenvalues[0])
        if lam <= 0.5 + 1e-12:
            continue
        gap, strict = postprocessing_gap(c)
        assert gap >= -1e-9
        unital, deviation = is_unital(c)
        if unital:
            assert abs(gap) < 1e-6
        elif deviation > 1e-2:
            assert strict
