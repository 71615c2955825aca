import numpy as np
import pytest

from singletopt import locc
from singletopt.channel import (
    KrausChannel,
    amplitude_damping,
    depolarizing,
    identity,
    is_unital,
    named_channel,
    random_channel,
)
from singletopt.choi import choi
from singletopt.entmetrics import negativity, singlet_fraction
from singletopt.linalg import I2, PHI_PLUS, partial_transpose, tensor_product
from singletopt.locc import (
    GAP_TOLERANCE,
    channel_fstar,
    fstar,
    fstar_bracket,
    fstar_certificate,
    fstar_filter_oracle,
    postprocessing_gap,
)
from singletopt.oneshot import optimal_input_state
from singletopt.channel import apply_to_half

from conftest import random_channels, random_density, random_product_state, random_unitary

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



def _mixed_unitary_choi_states(count=300):
    """Choi states of seeded mixed-unitary channels sum_k p_k U_k . U_k^dag."""
    rng = np.random.default_rng(1212)
    for k in range(count):
        weights = rng.dirichlet(np.ones(1 + k % 4))
        ops = tuple(np.sqrt(w) * random_unitary(rng) for w in weights)
        yield choi(KrausChannel(kraus=ops)).matrix


def _top_eigenvalues(stack):
    """lambda_max of each state as the normalized Rayleigh quotient of its top
    eigenvector, summed in extended precision.  Its error is second order in
    the vector's; eigvalsh's own reaches 8e-16 on near-pure Choi states."""
    top = np.linalg.eigh(stack)[1][:, :, -1].astype(np.clongdouble)
    quotient = np.einsum("ni,nij,nj->n", top.conj(), stack.astype(np.clongdouble), top)
    return quotient.real / np.einsum("ni,ni->n", top.conj(), top).real


def test_fstar_closes_at_step_zero_on_unital_choi_states():
    # On a unital Choi state the bottom eigenvector of rho^Gamma is maximally
    # entangled, so the step-0 bracket closes on F* = lambda_max.
    states = [choi(amplitude_damping(0.0)).matrix]
    for name in ("depolarizing", "phase_damping", "bit_flip"):
        states += [
            choi(named_channel(name, {"p": float(p)})).matrix for p in np.linspace(0.0, 1.0, 21)
        ]
    states += list(_mixed_unitary_choi_states())
    stack = np.array(states)
    entangling = np.linalg.eigvalsh(partial_transpose(stack, "first"))[:, 0] < 0.0
    assert entangling[:64].sum() == 1 + 14 + 20 + 20 and entangling[64:].sum() > 280
    stack = stack[entangling]
    cert = fstar_certificate(stack)
    assert (cert.newton_steps == 0).all()
    assert (cert.upper - cert.lower <= 1e-10).all()
    assert np.abs(cert.lower - _top_eigenvalues(stack)).max() <= 1e-15
    # The dual point is strictly feasible: Y > 0 and rho^Gamma + Y (x) I > 0.
    assert np.linalg.eigvalsh(cert.dual)[:, 0].min() > 0.0
    for rho, y in zip(stack, cert.dual):
        assert np.linalg.eigvalsh(partial_transpose(rho, "first") + np.kron(y, I2))[0] > 0.0


def test_fstar_takes_newton_steps_off_maximally_entangled_bottom_vectors():
    # amplitude_damping inside (0, 1) and nonunital random channels of rank
    # 2-4: the step-0 bracket stays open and the barrier solve runs.
    channels = [amplitude_damping(float(p)) for p in np.linspace(0.0, 1.0, 21)[1:-1]]
    channels += [random_channel(9000 + k, 2 + k % 3) for k in range(60)]
    assert not any(is_unital(c)[0] for c in channels)
    stack = np.array([choi(c).matrix for c in channels])
    entangling = np.linalg.eigvalsh(partial_transpose(stack, "first"))[:, 0] < 0.0
    assert entangling[:19].all() and entangling[19:].sum() > 50
    cert = fstar_certificate(stack[entangling])
    assert (cert.newton_steps > 0).all()
    assert (cert.upper - cert.lower <= 1e-10).all()

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


def test_oracle_search_ends_before_iteration_cap(monkeypatch):
    # On these Choi states every search stops on its step tolerance, not on
    # the engine's 400-iteration cap: one objective batch per iteration plus
    # the starts.  Elsewhere a losing restart can still reach the cap; see
    # the next test.
    batches = []
    search = locc.compass_search

    def counting_search(objective, *args, **kwargs):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return objective(x)

        try:
            return search(counted, *args, **kwargs)
        finally:
            batches.append(calls[0])

    monkeypatch.setattr(locc, "compass_search", counting_search)
    for k in range(20):
        fstar_filter_oracle(choi(random_channel(5000 + k, 1 + k % 4)).matrix, seed=k)
    assert len(batches) == 20
    assert max(batches) - 1 < 400


@pytest.mark.parametrize("seed, rank", [(700030100086, 3), (700061100180, 4), (700113100336, 4)])
def test_oracle_is_exact_when_a_losing_restart_reaches_the_cap(seed, rank):
    # Audit channels on which one restart crawls along a valley until the
    # 400-iteration cap while the winning restart has converged: the answer
    # must still be the optimum.
    c = random_channel(seed, rank)
    proto = fstar_filter_oracle(choi(c).matrix, restarts=16, seed=seed)
    assert abs(proto.fstar_value - channel_fstar(c)) <= 1e-12


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


def test_channel_fstar_solves_once_per_channel_object(monkeypatch):
    from singletopt import locc

    c = amplitude_damping(0.4)
    value = channel_fstar(c)
    assert value == fstar(choi(c).matrix)

    def unexpected(rho):
        raise AssertionError("fstar solved again")

    monkeypatch.setattr(locc, "fstar", unexpected)
    assert channel_fstar(c) == value
    assert postprocessing_gap(c)[0] == float(choi(c).eig.eigenvalues[0]) - value


def _mixed_stack():
    """PPT states, random states of rank 1-4 and the four families' Choi
    states at the 21 sweep points, interleaved in one stack."""
    rng = np.random.default_rng(4242)
    ppt = [np.eye(4) / 4, choi(depolarizing(1.0)).matrix, 0.2 * BELL + 0.8 * np.eye(4) / 4]
    ppt += [np.outer(s, s.conj()) for s in (random_product_state(rng) for _ in range(3))]
    randoms = [random_density(rng, rank=1 + k % 4) for k in range(24)]
    families = [
        choi(named_channel(name, {"p": float(p)})).matrix
        for name in ("amplitude_damping", "depolarizing", "phase_damping", "bit_flip")
        for p in np.linspace(0.0, 1.0, 21)
    ]
    states = ppt + randoms + families
    order = np.random.default_rng(17).permutation(len(states))
    return np.array(states)[order]


def test_fstar_certificate_stack_matches_per_state_solves():
    stack = _mixed_stack()
    cert = fstar_certificate(stack)
    n = len(stack)
    assert cert.lower.shape == cert.upper.shape == cert.newton_steps.shape == (n,)
    assert cert.primal.shape == (n, 4) and cert.dual.shape == (n, 2, 2)
    assert (cert.upper - cert.lower <= 1e-10).all()
    steps = set()
    for k, rho in enumerate(stack):
        single = fstar_certificate(rho)
        assert isinstance(single.lower, float) and isinstance(single.newton_steps, int)
        assert abs(cert.lower[k] - single.lower) <= 1e-12
        assert abs(cert.upper[k] - single.upper) <= 1e-12
        assert cert.newton_steps[k] == single.newton_steps
        steps.add(single.newton_steps)
        gamma = partial_transpose(rho, "first")
        lam_min = np.linalg.eigvalsh(gamma)[0]
        ppt = lam_min >= 0.0
        # Step 0 closes where the bottom eigenvector has equal Schmidt
        # singular values, and on states PPT up to rounding, whose step-0
        # bracket is at most 1e-12 + |lambda_min| wide.
        schmidt = np.linalg.svd(np.linalg.eigh(gamma)[1][:, 0].reshape(2, 2), compute_uv=False)
        maximally_entangled = schmidt[0] - schmidt[1] <= 1e-12
        assert (single.newton_steps == 0) == (lam_min >= -1e-12 or maximally_entangled)
        if ppt:
            assert (cert.lower[k], cert.upper[k]) == (0.5, 0.5)
    assert len(steps) > 2  # each state stops on its own rule
    lower, upper = fstar_bracket(stack)
    assert np.array_equal(lower, cert.lower) and np.array_equal(upper, cert.upper)
    assert np.array_equal(fstar(stack), cert.lower)


def test_fstar_certificate_keeps_leading_axes():
    stack = _mixed_stack()[:6]
    cert = fstar_certificate(stack.reshape(2, 3, 4, 4))
    assert cert.lower.shape == (2, 3) and cert.primal.shape == (2, 3, 4)
    assert np.array_equal(cert.lower.ravel(), fstar(stack))


def test_fstar_stack_raises_when_a_bracket_stays_open(monkeypatch):
    monkeypatch.setattr(locc, "MAX_NEWTON_STEPS", 3)
    with pytest.raises(RuntimeError, match="3 Newton steps"):
        fstar_certificate(_mixed_stack())


def test_fstar_stack_rejects_a_non_state():
    stack = _mixed_stack()[:4].copy()
    stack[2] *= 2.0
    with pytest.raises(ValueError, match="trace"):
        fstar(stack)


def test_channel_fstars_solves_missing_channels_in_one_call(monkeypatch):
    channels = [amplitude_damping(0.3), depolarizing(0.2), amplitude_damping(0.6)]
    known = channel_fstar(channels[1])
    calls = []
    solve = locc.fstar

    def counting(rho):
        calls.append(np.shape(rho))
        return solve(rho)

    monkeypatch.setattr(locc, "fstar", counting)
    values = locc.channel_fstars(channels + [channels[0]])
    assert calls == [(2, 4, 4)]
    assert values[1] == known and values[3] == values[0]
    for c, value in zip(channels, values):
        assert isinstance(value, float)
        assert abs(value - solve(choi(c).matrix)) <= 1e-12
    assert locc.channel_fstars(channels) == values[:3] and len(calls) == 1
