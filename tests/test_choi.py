import importlib

import numpy as np
import pytest

from singletopt.channel import (
    KrausChannel,
    amplitude_damping,
    bit_flip,
    choi_matrix,
    depolarizing,
    identity,
    kraus_from_choi,
    phase_damping,
    validate,
)
from singletopt.choi import (
    DEGENERACY_GAP,
    build_states,
    choi,
    choi_states,
    dual_choi,
    dual_choi_states,
    eigenvector_correspondence_check,
)
from singletopt.entmetrics import pt_spectrum_identity_residual, schmidt
from singletopt.linalg import (
    I2,
    PAULIS,
    PHI_PLUS,
    _TIE_TOL,
    eigenvalue_clusters,
    hermitian_eig,
    swap_conjugate,
)
from singletopt.oneshot import report

from conftest import random_channels, random_unitary

# The package re-exports the function ``choi``, which shadows the module.
choi_module = importlib.import_module("singletopt.choi")
channel_module = importlib.import_module("singletopt.channel")


def test_choi_identity_is_bell_projector():
    state = choi(identity())
    np.testing.assert_allclose(
        state.matrix, np.outer(PHI_PLUS, PHI_PLUS.conj()), atol=1e-15
    )


def test_choi_depolarizing_mixture():
    p = 0.35
    state = choi(depolarizing(p))
    expected = (1 - p) * np.outer(PHI_PLUS, PHI_PLUS.conj()) + p * np.eye(4) / 4
    np.testing.assert_allclose(state.matrix, expected, atol=1e-12)


def test_choi_amplitude_damping_matrix():
    p = 0.5
    root = np.sqrt(1 - p)
    expected = 0.5 * np.array(
        [[1, 0, 0, root], [0, 0, 0, 0], [0, 0, p, 0], [root, 0, 0, 1 - p]],
        dtype=complex,
    )
    np.testing.assert_allclose(choi(amplitude_damping(p)).matrix, expected, atol=1e-12)


def test_choi_marginal_is_maximally_mixed():
    for c in random_channels(51, 12):
        marginal = choi(c).matrix.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        np.testing.assert_allclose(marginal, I2 / 2, atol=1e-10)


def test_dual_choi_identity():
    np.testing.assert_allclose(
        dual_choi(identity()).matrix, np.outer(PHI_PLUS, PHI_PLUS.conj()), atol=1e-15
    )


def test_dual_choi_is_swap_conjugate():
    for c in random_channels(53, 12):
        forward = choi(c)
        backward = dual_choi(c)
        np.testing.assert_allclose(
            backward.matrix, swap_conjugate(forward.matrix), atol=1e-12
        )
        np.testing.assert_allclose(
            backward.eig.eigenvalues, forward.eig.eigenvalues, atol=1e-10
        )


def test_dual_choi_amplitude_damping_top_eigenvector():
    state = dual_choi(amplitude_damping(0.5))
    top = state.eig.eigenvectors[:, 0]
    np.testing.assert_allclose(
        schmidt(top).coefficients, [2 / 3, 1 / 3], atol=1e-12
    )


def test_paired_eigenvectors_share_schmidt_coefficients():
    for c in random_channels(59, 10):
        forward = choi(c)
        backward = dual_choi(c)
        gaps = -np.diff(forward.eig.eigenvalues)
        if gaps.min() < 1e-8:
            continue
        for k in range(4):
            a = schmidt(forward.eig.eigenvectors[:, k]).coefficients
            b = schmidt(backward.eig.eigenvectors[:, k]).coefficients
            np.testing.assert_allclose(a, b, atol=1e-9)


def test_correspondence_identity_channel():
    assert eigenvector_correspondence_check(identity()) < 1e-12


def test_correspondence_amplitude_damping():
    assert eigenvector_correspondence_check(amplitude_damping(0.3)) < 1e-9


def test_correspondence_degenerate_depolarizing():
    # Triple degeneracy p/4 exercises the subspace comparison path.
    assert eigenvector_correspondence_check(depolarizing(0.4)) < 1e-9


def test_correspondence_random_channels():
    for c in random_channels(61, 20):
        assert eigenvector_correspondence_check(c) < 1e-9


def test_gap_between_tie_break_and_degeneracy():
    # A rotated Pauli channel whose Choi spectrum has a 1e-10 gap: above the
    # tie-break, below the degeneracy gap.
    u = random_unitary(np.random.default_rng(17))
    weights = [0.5, 0.2 + 1e-10, 0.2, 0.1 - 1e-10]
    c = KrausChannel(kraus=tuple(np.sqrt(q) * u @ s for q, s in zip(weights, PAULIS)))
    matrix = choi(c).matrix
    eig = hermitian_eig(matrix)
    gap = eig.eigenvalues[1] - eig.eigenvalues[2]
    assert _TIE_TOL < gap < DEGENERACY_GAP
    # No tie-break reordering: every eigenvector keeps its own eigenvalue.
    assert list(eigenvalue_clusters(eig.eigenvalues, _TIE_TOL)) == [(k, k + 1) for k in range(4)]
    assert np.abs(eig.reconstruct() - matrix).max() < 1e-12
    # The correspondence check treats the pair as one eigenspace.
    assert list(eigenvalue_clusters(eig.eigenvalues, DEGENERACY_GAP)) == [(0, 1), (1, 3), (3, 4)]
    assert eigenvector_correspondence_check(c) < 1e-9


@pytest.fixture
def builds(monkeypatch):
    """Sources of the Choi-type states built (and checked) from here on."""
    sources = []
    original = choi_module.ChoiState

    def counting(matrix, eig, source):
        sources.append(source)
        return original(matrix=matrix, eig=eig, source=source)

    monkeypatch.setattr(choi_module, "ChoiState", counting)
    return sources


def test_states_are_memoized_per_channel_object():
    c = amplitude_damping(0.3)
    assert choi(c) is choi(c)
    assert dual_choi(c) is dual_choi(c)
    assert not choi(c).matrix.flags.writeable
    assert not dual_choi(c).eig.eigenvectors.flags.writeable


def test_report_builds_one_choi_and_one_dual_state(builds):
    report(amplitude_damping(0.3))
    assert builds == ["amplitude_damping(p=0.3)", "dual(amplitude_damping(p=0.3))"]


def test_equal_channels_build_their_own_states(builds):
    a, b = amplitude_damping(0.3), amplitude_damping(0.3)
    np.testing.assert_array_equal(np.array(a.kraus), np.array(b.kraus))
    first, second = choi(a), choi(b)
    assert first is not second
    np.testing.assert_array_equal(first.matrix, second.matrix)
    assert builds == ["amplitude_damping(p=0.3)", "dual(amplitude_damping(p=0.3))"] * 2


@pytest.mark.parametrize("build", [choi, dual_choi])
def test_invalid_channel_raises_on_every_call(builds, build):
    c = KrausChannel(kraus=(2 * I2,))
    for _ in range(2):
        with pytest.raises(ValueError, match="not CPTP"):
            build(c)
    assert len(builds) == 0


def _same_state(a, b):
    for x, y in ((a.matrix, b.matrix), (a.eig.eigenvalues, b.eig.eigenvalues),
                 (a.eig.eigenvectors, b.eig.eigenvectors)):
        assert x.tobytes() == y.tobytes()
    assert a.source == b.source


def test_batched_states_equal_one_channel_builds():
    channels = random_channels(31, 12) + [identity(), depolarizing(0.3), amplitude_damping(1.0)]
    twins = [KrausChannel(kraus=c.kraus, label=c.label, params=c.params) for c in channels]
    build_states(channels)
    for c, twin in zip(channels, twins):
        assert validate(c) == validate(twin)
        _same_state(choi(c), choi(twin))
        _same_state(dual_choi(c), dual_choi(twin))
    assert choi_states(channels) == [choi(c) for c in channels]
    assert dual_choi_states(channels) == [dual_choi(c) for c in channels]


def test_choi_states_build_accepted_channels_and_raise_for_rejected(builds):
    good, bad, other = amplitude_damping(0.3), KrausChannel(kraus=(2 * I2,)), depolarizing(0.2)
    with pytest.raises(ValueError, match="not CPTP: tp_residual=") as batch:
        choi_states([good, bad, other, good])
    built = ["amplitude_damping(p=0.3)", "depolarizing(p=0.2)",
             "dual(amplitude_damping(p=0.3))", "dual(depolarizing(p=0.2))"]
    assert builds == built
    assert "choi" not in bad._states and "dual_choi" not in bad._states
    for build in (choi, dual_choi):
        with pytest.raises(ValueError) as alone:
            build(bad)
        assert str(alone.value) == str(batch.value)
    assert choi_states([good, other]) == [choi(good), choi(other)]
    with pytest.raises(ValueError, match="not CPTP: tp_residual="):
        dual_choi_states([bad, good])
    assert builds == built


def test_build_states_gates_and_labels_each_channel_once(monkeypatch):
    measured, labelled = [], []
    real_measure, real_describe = choi_module._measure, KrausChannel.describe

    def counting_measure(channels):
        measured.extend(c for c in channels if "validation" not in c._states)
        return real_measure(channels)

    def counting_describe(channel):
        labelled.append(channel)
        return real_describe(channel)

    monkeypatch.setattr(choi_module, "_measure", counting_measure)
    monkeypatch.setattr(KrausChannel, "describe", counting_describe)
    rows = [amplitude_damping(p) for p in np.linspace(0.0, 1.0, 21)]
    build_states(rows + rows[:5])
    assert len(measured) == len(labelled) == 21
    assert {id(c) for c in measured} == {id(c) for c in rows}
    # A rejected channel is measured once with the others and raises the
    # report it stored; no state is built for it.
    bad = KrausChannel(kraus=(2 * I2,))
    measured.clear()
    with pytest.raises(ValueError, match="not CPTP") as rejected:
        build_states([depolarizing(0.1), bad, depolarizing(0.2)])
    assert [c is bad for c in measured] == [False, True, False]
    assert str(rejected.value) == f"channel is not CPTP: {bad._states['validation'].numbers()}"
    assert "choi" not in bad._states


def test_kraus_from_choi_state_reads_its_kept_spectrum(monkeypatch):
    channels = random_channels(33, 40) + [
        identity(), depolarizing(0.3), amplitude_damping(1.0), phase_damping(0.5), bit_flip(0.25),
    ]
    states = choi_states(channels)
    expected = [kraus_from_choi(state.matrix).kraus for state in states]
    decomposed = []
    monkeypatch.setattr(channel_module, "hermitian_eig", lambda *args: decomposed.append(args))
    for state, kraus in zip(states, expected):
        got = kraus_from_choi(state).kraus
        assert len(got) == len(kraus)
        for a, b in zip(got, kraus):
            assert a.tobytes() == b.tobytes()
    assert decomposed == []


@pytest.mark.parametrize("eps", [1e-9, 1e-7])
def test_marginal_tolerance_of_each_caller(eps):
    """A unit-trace map with sum A^dag A = I + eps Z has first marginal
    eps / sqrt(2) away from I/2 and tp_residual sqrt(2) eps: past
    ``validate``'s 1e-9, so rejected by the Choi build, at either eps,
    past the 1e-8 of Kraus extraction and the PT identity only at the
    larger one."""
    c = KrausChannel(kraus=(np.diag([np.sqrt(1 + eps), np.sqrt(1 - eps)]),))
    matrix = choi_matrix(c)
    with pytest.raises(ValueError, match="not CPTP"):
        choi(c)
    if eps < 1e-8:
        assert len(kraus_from_choi(matrix).kraus) == 1
        assert abs(pt_spectrum_identity_residual(matrix)) < 1e-8
    else:
        with pytest.raises(ValueError, match="maximally mixed first marginal"):
            kraus_from_choi(matrix)
        with pytest.raises(ValueError, match="first marginal is not maximally mixed"):
            pt_spectrum_identity_residual(matrix)


def _near_tp(eps, direction):
    """A one-operator map with sum A^dag A = I + eps Z or (1 + eps) I."""
    diagonal = [1 + eps, 1 - eps] if direction == "Z" else [1 + eps, 1 + eps]
    return KrausChannel(kraus=(np.diag(np.sqrt(diagonal)),))


@pytest.mark.parametrize("build", [choi, dual_choi])
@pytest.mark.parametrize("direction", ["Z", "I"])
@pytest.mark.parametrize("eps, accepted", [(1e-10, True), (5e-10, True), (1e-9, False), (1e-7, False)])
def test_build_raises_exactly_when_validate_rejects(build, direction, eps, accepted):
    # tp_residual is sqrt(2) eps in both directions, so validate's 1e-9
    # falls between 5e-10 and 1e-9.
    c = _near_tp(eps, direction)
    assert validate(c).ok == accepted
    if accepted:
        assert build(c) is build(c)
    else:
        with pytest.raises(ValueError, match="not CPTP: tp_residual="):
            build(c)
