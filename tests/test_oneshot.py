import dataclasses
import importlib

import numpy as np
import pytest

from singletopt.channel import (
    KrausChannel,
    amplitude_damping,
    apply_to_half,
    bit_flip,
    depolarizing,
    identity,
    is_unital,
    kraus_from_choi,
    named_channel,
    phase_damping,
    random_channel,
    unitary,
)
from singletopt import oneshot
from singletopt.choi import ChoiState, choi
from singletopt.entmetrics import (
    _negativity,
    _pt_spectrum_identity_residual,
    _singlet_fraction,
    negativity,
    pt_spectrum_identity_residual,
    schmidt,
    singlet_fraction,
)
from singletopt.linalg import (
    PAULIS,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    EigenDecomposition,
    partial_transpose,
)
from singletopt.locc import (
    FilterProtocol,
    FstarCertificate,
    _fstar_certificate,
    fstar_certificate,
)
from singletopt.optimize import SearchSpec
from singletopt.oneshot import (
    IDENTITIES,
    IdentityContext,
    channel_negativities,
    channel_negativity,
    channel_residuals,
    classify,
    negativity_relation_residual,
    optimal_input_state,
    optimal_singlet_fraction,
    preprocessed_fidelity,
    report,
    residuals,
)

from conftest import (
    assert_bitwise_equal,
    fstar_filter_oracle,
    near_tp_channels,
    preprocessed_fidelity_oracle,
    random_channels,
    random_pauli_mixture,
    random_pure,
    random_unitary,
    reference_channel_negativity,
)

entmetrics_module = importlib.import_module("singletopt.entmetrics")
locc_module = importlib.import_module("singletopt.locc")


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
    for c in cases:
        search = channel_negativity(c)
        target = negativity(choi(c).matrix)
        assert search.value >= target - 1e-9
        assert search.value <= target + 1e-9
        assert abs(search.value - target) < 1e-6


def test_channel_negativity_amplitude_damping():
    p = 0.5
    c = amplitude_damping(p)
    n_choi = negativity(choi(c).matrix)
    witness = (1 - p) / (2 - p) * (np.sqrt(p**2 + 4) - p)
    search = channel_negativity(c)
    # The fixed Schmidt-weight witness input reproduces its closed form...
    state = np.zeros(4, dtype=complex)
    state[0] = 1 / np.sqrt(2 - p)
    state[3] = np.sqrt((1 - p) / (2 - p))
    assert negativity(apply_to_half(c, state)) == pytest.approx(witness, abs=1e-12)
    # ...and the search must beat both it and the untouched Choi state.
    assert search.value >= witness - 1e-9
    assert search.value > n_choi + 1e-4


def test_channel_negativity_never_below_choi():
    for c in random_channels(101, 6):
        search = channel_negativity(c)
        assert search.value >= negativity(choi(c).matrix) - 1e-9
        out = apply_to_half(c, search.input_state)
        assert negativity(out) == pytest.approx(search.value, abs=1e-9)


def test_channel_negativity_reaches_the_long_budget_value():
    # The budget-stopped compass search read 2.7e-7 lower at its default
    # budget and reached this value only at 20,000 evaluations or more.
    c = random_channel(7018, 3)
    assert channel_negativity(c).value >= 0.53300304950 - 1e-12


def test_channel_negativity_beats_random_inputs():
    rng = np.random.default_rng(606)
    for c in random_channels(606, 12):
        search = channel_negativity(c)
        best = max(negativity(apply_to_half(c, random_pure(rng))) for _ in range(500))
        assert best <= search.value + 1e-12


def test_channel_negativity_value_is_its_input_negativity():
    for c in random_channels(303, 8):
        search = channel_negativity(c)
        assert abs(search.schmidt_weight - schmidt(search.input_state).coefficients[0]) <= 1e-12
        out = apply_to_half(c, search.input_state)
        assert abs(search.value - negativity(out)) <= 1e-12


@pytest.mark.parametrize(
    "channel", [depolarizing(1.0), depolarizing(2 / 3), amplitude_damping(1.0)],
    ids=["depolarizing(1)", "depolarizing(2/3)", "amplitude_damping(1)"],
)
def test_channel_negativity_is_exactly_zero_when_entanglement_breaking(channel):
    search = channel_negativity(channel)
    assert search.value == 0.0
    assert search.upper == 0.0


def _unital_channel(rng):
    """A random Pauli mixture between random unitaries: unital, and not
    Bell-diagonal in the standard basis."""
    u, v = random_unitary(rng), random_unitary(rng)
    mixture = random_pauli_mixture(rng)
    return KrausChannel(kraus=tuple(u @ op @ v for op in mixture.kraus), label="unital")


def _certificate_cases():
    rng = np.random.default_rng(4242)
    cases = [random_channel(9000 + k, 1 + k % 4) for k in range(60)]
    cases += [random_pauli_mixture(rng) for _ in range(10)]
    cases += [_unital_channel(rng) for _ in range(10)]
    return cases


def test_negativity_upper_bound_holds():
    # Every entangling row closes, by one certificate or the other, with no
    # search, and its input reaches its value.
    cases = _certificate_cases()
    closed = 0
    for k, (c, search) in enumerate(zip(cases, channel_negativities(cases))):
        assert search.upper >= search.value - 1e-14, k
        if optimal_singlet_fraction(c).entanglement_breaking:
            continue
        closed += 1
        assert search.upper - search.value <= 1e-12, k
        out = apply_to_half(c, search.input_state)
        assert abs(negativity(out) - search.value) <= 1e-12, k
    assert closed >= 60


def _sweep_rows():
    """The 84 rows of the four sweep families over p in [0, 1]."""
    families = ("amplitude_damping", "depolarizing", "phase_damping", "bit_flip")
    return [named_channel(f, {"p": float(p)}) for f in families for p in np.linspace(0.0, 1.0, 21)]


def test_negativity_certificate_is_feasible():
    # The returned dual W, checked with plain numpy reshapes: 4 ||W||_inf is
    # the reported bound and (J + W)^Gamma >= 0, on every row, entanglement
    # breaking (W = 0) included.
    cases = _certificate_cases() + _sweep_rows()
    for k, (c, search) in enumerate(zip(cases, channel_negativities(cases))):
        _assert_dual_feasible(c, search, k)
        if search.upper == 0.0:
            assert not search.dual.any(), k


def _assert_dual_feasible(c, search, k):
    """4 ||W||_inf is at most the reported bound and (J + W)^Gamma >= 0."""
    w = search.dual
    assert w.shape == (4, 4) and np.allclose(w, w.conj().T, rtol=0.0, atol=1e-15), k
    assert 4 * np.abs(np.linalg.eigvalsh(w)).max() <= search.upper + 1e-15, k
    m = choi(c).matrix + w
    gamma = m.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    assert np.linalg.eigvalsh(gamma).min() >= -1e-14, k


@pytest.mark.parametrize("family", ["depolarizing", "phase_damping", "bit_flip"])
def test_negativity_certificate_closes_on_unital_sweep_rows(family):
    channels = [named_channel(family, {"p": float(p)}) for p in np.linspace(0.0, 1.0, 21)]
    searched = 0
    for c, search in zip(channels, channel_negativities(channels)):
        if optimal_singlet_fraction(c).entanglement_breaking:
            continue
        searched += 1
        assert abs(search.upper - search.value) <= 1e-12
        assert abs(search.value - negativity(choi(c).matrix)) <= 1e-12
    assert searched >= 14


def test_negativity_certificate_closes_on_amplitude_damping():
    # Nonunital: the maximally entangled input is beaten, and the closed form
    # certifies the better input with no search.
    params = np.linspace(0.0, 1.0, 21)[1:-1]
    channels = [amplitude_damping(float(p)) for p in params]
    found = channel_negativities(channels)
    for c, search in zip(channels, found):
        assert search.upper - search.value <= 1e-12
        assert search.value > negativity(choi(c).matrix) + 1e-4
    assert params[14] == 0.75 and abs(found[14].value - 2 / 7) <= 1e-14
    assert params[15] == 0.8 and abs(found[15].value - (np.sqrt(5) - 2)) <= 1e-14


def test_certified_value_is_at_least_the_search(monkeypatch):
    # With no gap narrow enough no row closes, so each keeps the better input
    # and the better bound of the two certificates: a bracket around the
    # alternating search's value.
    channels = [random_channel(7000 + k, 1 + k % 4) for k in range(24)]
    channels += [amplitude_damping(float(p)) for p in np.linspace(0.0, 1.0, 21)[1:-1]]
    monkeypatch.setattr(oneshot, "_CERTIFIED_GAP", -1.0)
    checked = 0
    for k, (c, search) in enumerate(zip(channels, channel_negativities(channels))):
        if optimal_singlet_fraction(c).entanglement_breaking:
            continue
        checked += 1
        g, mes_value, mes_upper, _ = oneshot._mes_certificates([choi(c)])
        _, kernel_value, _, kernel_upper, _ = oneshot._kernel_certificates(g)
        assert search.value == max(mes_value[0], kernel_value[0]), k
        assert search.upper == min(mes_upper[0], kernel_upper[0]), k
        reference, _ = reference_channel_negativity(c, seed=k)
        assert search.value >= reference - 2e-15, k
        assert reference <= search.upper + 1e-14, k
        assert search.value >= negativity(choi(c).matrix), k
        _assert_dual_feasible(c, search, k)
    assert checked >= 30


@pytest.mark.parametrize(
    "family", ["amplitude_damping", "depolarizing", "phase_damping", "bit_flip"]
)
def test_channel_negativity_converges_on_every_sweep_row(family):
    # The rows of `singletopt sweep --param p --from 0 --to 1 --steps 21`:
    # every bracket closes, entanglement-breaking rows (both ends 0) included.
    for p in np.linspace(0.0, 1.0, 21):
        search = channel_negativity(named_channel(family, {"p": float(p)}))
        assert search.upper - search.value <= 1e-12, p


def test_channel_negativities_equal_the_row_by_row_searches():
    # The 84 rows of the four sweep families over p in [0, 1],
    # entanglement-breaking rows included, certified as one batch.
    channels = _sweep_rows()
    batch = channel_negativities(channels)
    assert len(batch) == 84
    breaking = 0
    for c, found in zip(channels, batch):
        alone = channel_negativity(c)
        assert found.value == alone.value
        assert np.array_equal(found.input_state, alone.input_state)
        assert found.schmidt_weight == alone.schmidt_weight
        assert found.upper == alone.upper
        assert np.array_equal(found.dual, alone.dual)
        breaking += found.upper == 0.0 and found.value == 0.0
    assert breaking >= 3
    assert channel_negativities([]) == []


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


@pytest.mark.parametrize("index, tp_residual", [(0, 8.5e-10), (1, 8.9e-10), (2, 7.1e-10)],
                         ids=["scaled_identity", "scaled_damping", "scaled_rotation"])
def test_near_tp_channels_pass_every_row_as_their_projection(index, tp_residual):
    # Accepted with sum A^dag A up to 8.9e-10 off I, each is analyzed as its
    # exact TP projection: every row holds at its own tolerance, no singlet
    # fraction exceeds 1, and the tp row still reads the input's residual.
    tolerance = {row.name: row.tolerance for row in IDENTITIES}
    values = channel_residuals([near_tp_channels()[index]])[0]
    assert set(values) >= {"pt_spectrum_identity", "negativity_relation",
                           "optimal_input_achievement", "fstar_protocol"}
    for name, value in values.items():
        assert value <= tolerance[name], name
    # Every row but the input's own two reads the projection, TP to rounding.
    assert max(v for name, v in values.items() if name not in ("tp", "cp")) <= 1e-12
    assert values["tp"] == pytest.approx(tp_residual, abs=5e-12)
    rep = report(near_tp_channels()[index])
    assert rep.F_lambda <= 1 and rep.f_tel <= 1
    assert rep.residuals["tp"] == values["tp"]


def test_report_roundtrips_to_dict():
    rep = report(amplitude_damping(0.3))
    data = rep.to_dict()
    assert data["F_lambda"] == rep.F_lambda
    assert len(data["psi0"]) == 4
    assert set(data["residuals"]) == set(rep.residuals)


@pytest.mark.parametrize("family", [amplitude_damping, depolarizing, phase_damping, bit_flip])
@pytest.mark.parametrize("p", [0.0, 0.5, 2 / 3, 1.0])
def test_report_residuals_are_the_reported_rows(family, p):
    c = family(p)
    every = residuals(c)
    rows = {row.name: row for row in IDENTITIES}
    assert report(c).residuals == {k: v for k, v in every.items() if rows[k].reported}
    for name, value in every.items():
        assert 0.0 <= value <= rows[name].tolerance, name


def test_residuals_pass_on_a_nonunital_channel_with_a_small_gap():
    # lambda_max - F* is 9.6e-7 here: positive, though under 1e-6.
    c = random_channel(2800534401581, 4)
    every = residuals(c)
    rows = {row.name: row for row in IDENTITIES}
    assert "gap_nonunital_strict" in every
    for name, value in every.items():
        assert 0.0 <= value <= rows[name].tolerance, name


def test_report_skips_identities_that_do_not_apply():
    # Fully depolarizing: entanglement breaking, degenerate dual-Choi top.
    rep = report(depolarizing(1.0))
    assert "negativity_relation" not in rep.residuals
    assert "optimal_input_achievement" not in rep.residuals
    assert set(rep.residuals) == {
        "tp", "cp", "dual_choi_entrywise", "dual_choi_spectrum",
        "pt_spectrum_identity", "eigenvector_correspondence",
    }
    # cp is a residual: zero for a CP map, whatever its smallest Choi eigenvalue.
    assert report(depolarizing(2 / 3)).residuals["cp"] == 0.0


def test_identity_names_are_unique():
    names = [row.name for row in IDENTITIES]
    assert len(names) == len(set(names))


FSTAR_ROWS = {row.name: row for row in IDENTITIES if row.name.startswith("fstar_")}


def _fstar_rows(channel) -> dict:
    ctx = IdentityContext([channel])
    return {name: row.residual(ctx)[0] for name, row in FSTAR_ROWS.items()}


def test_fstar_rows_check_the_certificate_at_1e_12():
    assert {name: row.tolerance for name, row in FSTAR_ROWS.items()} == {
        "fstar_protocol": 1e-12, "fstar_dual_feasible": 1e-12}
    assert not any(row.reported for row in FSTAR_ROWS.values())


def test_fstar_protocol_passes_a_norm_one_ulp_over():
    # The filter's operator norm exceeds 1 by rounding alone here, on a
    # primal that a KKT certificate closed to 2e-12.
    c = random_channel(5, 2)
    rho = choi(c).matrix
    cert = fstar_certificate(rho)
    bottom = np.linalg.eigh(partial_transpose(rho, "first"))[1][:, 0]
    schmidt = np.linalg.svd(bottom.reshape(2, 2), compute_uv=False)
    assert cert.upper - cert.lower <= 2e-12 and schmidt[0] - schmidt[1] > 0.1
    filt = cert.protocol(rho).filter
    assert 0.0 < np.linalg.norm(filt, 2) - 1.0 <= 1e-14
    assert all(value <= 1e-12 for value in _fstar_rows(c).values())


@pytest.mark.parametrize("channel", [depolarizing(1.0), amplitude_damping(1.0), depolarizing(2 / 3)])
def test_fstar_rows_vanish_at_the_separability_boundary(channel):
    assert _fstar_rows(channel) == {"fstar_protocol": 0.0, "fstar_dual_feasible": 0.0}


def test_fstar_rows_hold_where_the_filter_search_falls_short():
    c = random_channel(3000011, 3)
    assert all(value <= 1e-12 for value in _fstar_rows(c).values())
    rho = choi(c).matrix
    found = fstar_filter_oracle(rho, restarts=16, seed=3000011).fstar_value
    assert fstar_certificate(rho).lower - found > 1e-7


def _mixed_stack() -> list:
    """Unital and nonunital channels side by side, entanglement-breaking ones
    (depolarizing(0.8), and bit_flip(0.5) and depolarizing(1.0), whose
    degenerate optimal inputs leave rows out), a nonunital channel within
    1e-2 of unital (amplitude_damping(0.005)) and Kraus ranks 1-4."""
    return [identity(), depolarizing(0.3), amplitude_damping(0.6), bit_flip(0.5),
            phase_damping(0.5), depolarizing(0.8), random_channel(41, 1), depolarizing(1.0),
            unitary(random_unitary(np.random.default_rng(43))), random_channel(42, 3),
            amplitude_damping(0.0), random_channel(44, 2), amplitude_damping(0.005)]


@pytest.mark.parametrize("channels", [
    [random_channel(k, k % 4 + 1) for k in range(12)] + [
        random_channel(2800534401581, 4), random_channel(1400635201893, 1),
        depolarizing(1.0), amplitude_damping(1.0), amplitude_damping(0.3), bit_flip(0.2)],
    # The channels of ``audit --seed 3000196 --count 4``: the third one's
    # oracle row rises from 0.0 alone to 2.2e-16, one rounding above the
    # closed form.
    [random_channel(3000196 * 1_000_003 + j, j % 4 + 1) for j in range(4)],
    _mixed_stack(),
])
def test_channel_residuals_equal_each_channels_own_rows(channels):
    # One stacked F* solve gives every row reading the certificate bit for
    # bit.  The stacked oracle only rises, so its row only falls, up to
    # rounding where it reaches the closed form.
    batched = channel_residuals(channels)
    assert len(batched) == len(channels)
    for channel, rows in zip(channels, batched):
        alone = residuals(channel)
        assert rows.keys() == alone.keys()
        for name, value in alone.items():
            if name == "singlet_fraction_oracle":
                assert rows[name] <= value + 1e-15
            else:
                assert rows[name] == value, name


def test_every_row_gives_one_value_per_channel_and_none_where_it_does_not_apply():
    channels = _mixed_stack()
    ctx = IdentityContext(channels)
    breaking = [optimal_singlet_fraction(c).entanglement_breaking for c in channels]
    degenerate = [optimal_input_state(c).degenerate for c in channels]
    unital, deviation = zip(*map(is_unital, channels))
    assert {len(c.kraus) for c in channels} == {1, 2, 3, 4}
    assert any(breaking) and any(degenerate) and any(unital)
    assert any(d <= 1e-2 and not u for u, d in zip(unital, deviation))
    # The rules of the row comments: F* and the negativity relation need an
    # entangling channel, the optimal input a nondegenerate top eigenvalue.
    skipped = {
        "negativity_relation": breaking,
        "optimal_input_achievement": degenerate,
        "classification_consistent": degenerate,
        "gap_nonnegative": breaking,
        "gap_unital": [b or not u for b, u in zip(breaking, unital)],
        "gap_nonunital_strict": [b or u or d <= 1e-2
                                 for b, u, d in zip(breaking, unital, deviation)],
    }
    assert set(skipped) < {row.name for row in IDENTITIES}
    for row in IDENTITIES:
        values = row.residual(ctx)
        assert len(values) == len(channels), row.name
        assert [value is None for value in values] == skipped.get(
            row.name, [False] * len(channels)), row.name
        assert all(np.isfinite(value) for value in values if value is not None), row.name


def test_channel_residuals_of_no_channels_is_empty():
    assert channel_residuals([]) == []


def test_choi_negativities_equal_each_channels_own():
    channels = _RANDOM_STACK[:40] + _BOUNDARY_STACK
    stacked = oneshot.choi_negativities(channels + channels[:3])
    assert stacked.shape == (len(channels) + 3,)
    assert_bitwise_equal(stacked[-3:], stacked[:3])
    for channel, value in zip(channels, stacked):
        assert value == negativity(choi(channel).matrix)
    empty = oneshot.choi_negativities([])
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


def test_kraus_rows_keep_an_eigenvalue_at_the_cut():
    # A Bell-diagonal Choi spectrum with an eigenvalue of exactly KRAUS_CUT:
    # the read-back keeps its operator, and both Kraus rows judge the same
    # three operators, the Gram row against the same three weights.
    weights = np.array([0.5, 0.5 - 1e-12, 1e-12, 0.0])
    bell = np.column_stack([PHI_PLUS, PSI_PLUS, PSI_MINUS, PHI_MINUS])
    matrix = (bell * weights) @ bell.conj().T
    state = ChoiState(matrix=matrix, eig=EigenDecomposition(weights, bell))
    assert len(kraus_from_choi(state).kraus) == 3
    channel = KrausChannel(kraus=tuple(np.sqrt(w) * p for w, p in zip(weights, PAULIS)))
    channel._states["choi"] = state
    ctx = IdentityContext([channel])
    assert ctx.choi_states[0] is state
    rows = {row.name: row for row in IDENTITIES}
    for name in ("kraus_trace_orthogonality", "choi_roundtrip"):
        assert 0.0 <= rows[name].residual(ctx)[0] <= 1e-15, name


_RANDOM_STACK = [random_channel(k, k % 4 + 1) for k in range(200)]
_BOUNDARY_STACK = [family(p) for family in (amplitude_damping, depolarizing, phase_damping, bit_flip)
                   for p in (0.0, 2 / 3, 1.0)]


@pytest.mark.parametrize("channels", [_RANDOM_STACK, _BOUNDARY_STACK], ids=["random", "boundary"])
def test_kernels_equal_the_checked_functions_on_package_built_stacks(channels):
    # Rows pass the Choi stacks the CPTP gate accepted straight to the
    # kernels; the public functions check first and must give the same bits.
    matrices = np.array([choi(c).matrix for c in channels])
    assert_bitwise_equal(_negativity(matrices), negativity(matrices))
    for trusted, checked in zip(_singlet_fraction(matrices), singlet_fraction(matrices)):
        assert_bitwise_equal(trusted, checked)
    assert_bitwise_equal(_pt_spectrum_identity_residual(matrices),
                         pt_spectrum_identity_residual(matrices))
    trusted, checked = _fstar_certificate(matrices), fstar_certificate(matrices)
    for field in dataclasses.fields(FstarCertificate):
        assert_bitwise_equal(getattr(trusted, field.name), getattr(checked, field.name))
    trusted, checked = checked._protocol(matrices), checked.protocol(matrices)
    for field in dataclasses.fields(FilterProtocol):
        assert_bitwise_equal(getattr(trusted, field.name), getattr(checked, field.name))


def test_package_built_stacks_skip_the_density_checks(monkeypatch):
    # The audit checks no state it built itself; the one check left is the
    # oracle's, on the stack it is handed like any caller's.
    checked = []
    real = entmetrics_module._as_density_stack

    def counted(state):
        checked.append(np.shape(state))
        return real(state)

    monkeypatch.setattr(entmetrics_module, "_as_density_stack", counted)
    monkeypatch.setattr(locc_module, "_as_density_stack", counted)
    channel_residuals([random_channel(300 + k, k % 4 + 1) for k in range(8)])
    assert checked == [(8, 4, 4)]
    checked.clear()
    report(random_channel(308, 2))
    assert checked == []


def test_optimal_input_states_are_each_channels_own():
    channels = _RANDOM_STACK[:40] + _BOUNDARY_STACK
    for channel, stacked in zip(channels, oneshot.optimal_input_states(channels)):
        alone = optimal_input_state(channel)
        assert stacked.degenerate == alone.degenerate
        assert_bitwise_equal(stacked.state, alone.state)
        assert_bitwise_equal(stacked.schmidt.coefficients, alone.schmidt.coefficients)
        for a, b in zip(stacked.schmidt.local_bases, alone.schmidt.local_bases):
            assert_bitwise_equal(a, b)


# Two records of each kind, built alike from two equal channels: they hold
# arrays, so they compare (and hash) by identity rather than raise.
_RECORDS = {
    "KrausChannel": lambda c: c,
    "ChoiState": choi,
    "EigenDecomposition": lambda c: choi(c).eig,
    "SchmidtData": lambda c: optimal_input_state(c).schmidt,
    "OptimalInput": optimal_input_state,
    "NegativitySearch": channel_negativity,
    "ChannelReport": report,
    "FstarCertificate": lambda c: fstar_certificate(choi(c).matrix),
    "FilterProtocol": lambda c: fstar_certificate(choi(c).matrix).protocol(choi(c).matrix),
    "SearchSpec": lambda c: SearchSpec.build(len(c.kraus), clip={0: (0.0, 1.0)}),
}


@pytest.mark.parametrize("kind", _RECORDS)
def test_records_compare_and_hash_by_identity(kind):
    first, second = (_RECORDS[kind](amplitude_damping(0.3)) for _ in range(2))
    assert type(first).__name__ == kind
    assert first == first and not first != first
    assert first != second and not first == second
    assert len({first, second, first}) == 2
