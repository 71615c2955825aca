import numpy as np
import pytest

from singletopt.channel import (
    amplitude_damping,
    apply_to_half,
    depolarizing,
    identity,
    is_unital,
    unitary,
)
from singletopt.choi import choi
from singletopt.entmetrics import negativity, singlet_fraction
from singletopt.oneshot import (
    channel_negativity,
    classify,
    negativity_relation_residual,
    optimal_input_state,
    optimal_singlet_fraction,
    preprocessed_fidelity,
    preprocessed_fidelity_oracle,
    report,
)

from conftest import random_channels, random_pauli_mixture, random_unitary


def test_optimal_fraction_identity():
    frac = optimal_singlet_fraction(identity())
    assert frac.value == pytest.approx(1.0, abs=1e-12)
    assert not frac.entanglement_breaking


def test_optimal_fraction_amplitude_damping():
    frac = optimal_singlet_fraction(amplitude_damping(0.5))
    assert frac.value == pytest.approx(0.75, abs=1e-12)


def test_optimal_fraction_depolarizing():
    frac = optimal_singlet_fraction(depolarizing(0.4))
    assert frac.value == pytest.approx(0.7, abs=1e-12)


def test_optimal_fraction_entanglement_breaking():
    frac = optimal_singlet_fraction(depolarizing(1.0))
    assert frac.entanglement_breaking
    assert frac.value == pytest.approx(0.5, abs=1e-12)
    assert frac.lambda_max == pytest.approx(0.25, abs=1e-12)


def test_optimal_input_identity():
    inp = optimal_input_state(identity())
    assert not inp.degenerate
    np.testing.assert_allclose(inp.schmidt.coefficients, [0.5, 0.5], atol=1e-12)


def test_optimal_input_amplitude_damping():
    inp = optimal_input_state(amplitude_damping(0.5))
    assert not inp.degenerate
    np.testing.assert_allclose(inp.schmidt.coefficients, [2 / 3, 1 / 3], atol=1e-10)
    out = apply_to_half(amplitude_damping(0.5), inp.state)
    value, _ = singlet_fraction(out)
    assert value == pytest.approx(0.75, abs=1e-9)


def test_optimal_input_depolarizing_nondegenerate():
    inp = optimal_input_state(depolarizing(0.4))
    assert not inp.degenerate
    np.testing.assert_allclose(inp.schmidt.coefficients, [0.5, 0.5], atol=1e-10)


def test_optimal_input_degenerate_flag():
    assert optimal_input_state(depolarizing(1.0)).degenerate


def test_optimal_input_achieves_lambda_max():
    for c in random_channels(71, 15):
        inp = optimal_input_state(c)
        if inp.degenerate:
            continue
        lam = float(choi(c).eig.eigenvalues[0])
        value, _ = singlet_fraction(apply_to_half(c, inp.state))
        assert abs(value - lam) < 1e-9


def test_preprocessed_fidelity_examples():
    assert preprocessed_fidelity(identity()) == pytest.approx(1.0, abs=1e-12)
    assert preprocessed_fidelity(amplitude_damping(0.5)) == pytest.approx(
        0.75, abs=1e-12
    )


def test_preprocessed_fidelity_matches_choi_top_eigenvalue():
    for c in random_channels(73, 12):
        lam = float(choi(c).eig.eigenvalues[0])
        assert abs(preprocessed_fidelity(c) - lam) < 1e-10


def test_preprocessed_fidelity_oracle():
    for c in random_channels(79, 4):
        target = preprocessed_fidelity(c)
        refined = preprocessed_fidelity_oracle(c)
        coarse = preprocessed_fidelity_oracle(c, refine=False)
        assert refined <= target + 1e-6
        assert abs(refined - target) < 1e-6
        assert abs(coarse - target) < 1e-3 * 5  # coarse grid only


def test_classify_examples():
    result = classify(depolarizing(0.4))
    assert result.unital and result.psi0_maximally_entangled
    assert result.verdict == "consistent"

    result = classify(amplitude_damping(0.5))
    assert not result.unital and not result.psi0_maximally_entangled
    assert result.verdict == "consistent"

    rng = np.random.default_rng(0)
    result = classify(unitary(random_unitary(rng)))
    assert result.unital and result.verdict == "consistent"


def test_classify_degenerate_indeterminate():
    assert classify(depolarizing(1.0)).verdict == "indeterminate"


def test_unitality_matches_entanglement_of_optimal_input():
    rng = np.random.default_rng(83)
    for _ in range(20):
        c = random_pauli_mixture(rng, min_gap=1e-6)
        result = classify(c)
        if result.verdict == "indeterminate":
            continue
        assert result.verdict == "consistent"
        assert result.psi0_maximally_entangled
    for c in random_channels(89, 20):
        if is_unital(c)[1] < 1e-3:
            continue
        result = classify(c)
        if result.verdict == "indeterminate":
            continue
        assert result.verdict == "consistent"
        inp = optimal_input_state(c)
        assert inp.schmidt.coefficients[0] > 0.5 + 1e-9


def test_negativity_relation():
    assert negativity_relation_residual(identity()) == pytest.approx(0, abs=1e-12)
    assert negativity_relation_residual(amplitude_damping(0.5)) == pytest.approx(
        0, abs=1e-12
    )
    for c in random_channels(97, 30):
        lam = float(choi(c).eig.eigenvalues[0])
        if lam <= 0.5 + 1e-12:
            continue
        assert negativity_relation_residual(c) < 1e-10


def test_channel_negativity_unital_equals_choi():
    # No pure input (equivalently no local filter on a Bell-diagonal state)
    # can raise the output negativity of a unital channel.
    rng = np.random.default_rng(42)
    cases = [depolarizing(0.4), depolarizing(0.15)]
    cases += [random_pauli_mixture(rng) for _ in range(4)]
    for seed, c in enumerate(cases):
        search = channel_negativity(c, seed=seed)
        target = negativity(choi(c).matrix)
        assert search.value >= target - 1e-9
        assert search.value <= target + 1e-9
        assert abs(search.value - target) < 1e-6


def test_channel_negativity_amplitude_damping():
    p = 0.5
    c = amplitude_damping(p)
    n_choi = negativity(choi(c).matrix)
    witness = (1 - p) / (2 - p) * (np.sqrt(p**2 + 4) - p)
    search = channel_negativity(c, seed=2, budget=20000)
    # The fixed Schmidt-weight witness input reproduces its closed form...
    state = np.zeros(4, dtype=complex)
    state[0] = 1 / np.sqrt(2 - p)
    state[3] = np.sqrt((1 - p) / (2 - p))
    assert negativity(apply_to_half(c, state)) == pytest.approx(witness, abs=1e-12)
    # ...and the search must beat both it and the untouched Choi state.
    assert search.value >= witness - 1e-9
    assert search.value > n_choi + 1e-4


def test_channel_negativity_never_below_choi():
    for k, c in enumerate(random_channels(101, 6)):
        search = channel_negativity(c, seed=k, budget=3000)
        assert search.value >= negativity(choi(c).matrix) - 1e-9
        out = apply_to_half(c, search.input_state)
        assert negativity(out) == pytest.approx(search.value, abs=1e-9)


def test_inequality_chain():
    # lambda_max(choi) >= F*(output) >= F(output) for random inputs.
    from singletopt.locc import fstar

    rng = np.random.default_rng(103)
    for c in random_channels(107, 20):
        lam = float(choi(c).eig.eigenvalues[0])
        for _ in range(5):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v /= np.linalg.norm(v)
            out = apply_to_half(c, v)
            fs = fstar(out)
            fr, _ = singlet_fraction(out)
            assert max(0.5, lam) >= fs - 1e-9
            assert fs >= fr - 1e-10


def test_report_identity():
    rep = report(identity())
    assert rep.F_lambda == pytest.approx(1.0, abs=1e-12)
    assert rep.f_tel == pytest.approx(1.0, abs=1e-12)
    assert rep.unital


def test_report_amplitude_damping():
    rep = report(amplitude_damping(0.5))
    assert rep.F_lambda == pytest.approx(0.75, abs=1e-12)
    assert rep.f_tel == pytest.approx(5 / 6, abs=1e-12)
    np.testing.assert_allclose(rep.psi0_schmidt, [2 / 3, 1 / 3], atol=1e-10)
    assert rep.N_choi == pytest.approx(0.5, abs=1e-12)
    assert rep.F1 == pytest.approx(0.75, abs=1e-12)
    assert not rep.unital
    assert max(rep.residuals.values()) < 1e-9


def test_report_entanglement_breaking():
    rep = report(depolarizing(1.0))
    assert rep.entanglement_breaking
    assert rep.F_lambda == pytest.approx(0.5, abs=1e-12)
    assert rep.lambda_max == pytest.approx(0.25, abs=1e-12)
    assert rep.f_tel == pytest.approx(2 / 3, abs=1e-12)


def test_report_rejects_invalid_channel():
    from singletopt.channel import KrausChannel
    from singletopt.linalg import I2

    with pytest.raises(ValueError):
        report(KrausChannel(kraus=(I2, I2)))


def test_report_roundtrips_to_dict():
    rep = report(amplitude_damping(0.3))
    data = rep.to_dict()
    assert data["F_lambda"] == rep.F_lambda
    assert len(data["psi0"]) == 4
    assert set(data["residuals"]) == set(rep.residuals)
