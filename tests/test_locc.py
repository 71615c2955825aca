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
from singletopt.linalg import I2, PAULIS, PHI_PLUS, partial_transpose, tensor_product
from singletopt.locc import (
    GAP_TOLERANCE,
    channel_fstar,
    fstar,
    fstar_bracket,
    fstar_certificate,
    postprocessing_gap,
)
from singletopt.oneshot import optimal_input_state
from singletopt.channel import apply_to_half

import conftest
from conftest import (
    assert_bitwise_equal,
    fstar_filter_oracle,
    random_channels,
    random_density,
    random_product_state,
    random_unitary,
    reference_fstar_barrier,
    reference_product_minimum,
)

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


def _assert_certifies(rho, cert):
    """The checks of test_fstar_certificate_closes_and_is_feasible on one state."""
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


def test_fstar_certificate_closes_and_is_feasible():
    assert GAP_TOLERANCE == 2e-12
    for rho in _certified_states():
        cert = fstar_certificate(rho)
        assert cert.upper - cert.lower <= GAP_TOLERANCE
        assert fstar_bracket(rho) == (cert.lower, cert.upper)
        _assert_certifies(rho, cert)


def test_certificate_protocol_reaches_lower():
    # The filter A read off the primal is a contraction and, scored apart
    # from the solve, attains the lower end; on a Choi state the filtered
    # qubit's marginal is I/2 and sigma_max(A) = 1, so a firing filter has
    # p = Tr(A^dag A)/2 >= 1/2.
    for k, rho in enumerate(_certified_states()):
        cert = fstar_certificate(rho)
        proto = cert.protocol(rho)
        assert np.linalg.norm(proto.filter, 2) <= 1 + 1e-12
        assert abs(proto.fstar_value - cert.lower) <= 1e-12
        if k >= 200 and np.any(cert.primal):
            assert proto.success_probability >= 0.5 - 1e-12


def test_certificate_protocol_of_a_stack_is_each_states_own():
    # One scoring pass over a stack, PPT states (filters that never fire)
    # among them, gives every field bit for bit as each state alone.
    rho = np.array(list(_certified_states()))
    stacked = fstar_certificate(rho).protocol(rho)
    fields = ("filter", "success_probability", "success_state", "fstar_value")
    for k in range(len(rho)):
        alone = fstar_certificate(rho[k]).protocol(rho[k])
        for field in fields:
            assert np.asarray(getattr(stacked, field)[k]).tobytes() == np.asarray(
                getattr(alone, field)).tobytes(), (k, field)
    assert (stacked.success_probability == 0.0).sum() > 10
    assert stacked.fstar_value.shape == (len(rho),)


def test_certificate_protocol_of_a_ppt_state_never_fires():
    rho = choi(depolarizing(1.0)).matrix
    proto = fstar_certificate(rho).protocol(rho)
    assert not np.any(proto.filter) and proto.success_probability == 0.0
    assert proto.fstar_value == 0.5


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


def test_fstar_closes_on_lambda_max_on_unital_choi_states():
    # On a unital Choi state the bottom eigenvector of rho^Gamma is maximally
    # entangled, so the rank-2 KKT certificate closes on F* = lambda_max.
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
    assert (cert.upper - cert.lower <= GAP_TOLERANCE).all()
    assert np.abs(cert.lower - _top_eigenvalues(stack)).max() <= 1e-15
    # The dual point is strictly feasible: Y > 0 and rho^Gamma + Y (x) I > 0.
    assert np.linalg.eigvalsh(cert.dual)[:, 0].min() > 0.0
    for rho, y in zip(stack, cert.dual):
        assert np.linalg.eigvalsh(partial_transpose(rho, "first") + np.kron(y, I2))[0] > 0.0


def test_fstar_closes_in_closed_form_off_maximally_entangled_bottom_vectors():
    # amplitude_damping inside (0, 1) and nonunital random channels of rank
    # 2-4: the bottom eigenvector of rho^Gamma is not maximally entangled,
    # and a KKT certificate still closes the bracket to 2e-12.
    channels = [amplitude_damping(float(p)) for p in np.linspace(0.0, 1.0, 21)[1:-1]]
    channels += [random_channel(9000 + k, 2 + k % 3) for k in range(60)]
    assert not any(is_unital(c)[0] for c in channels)
    stack = np.array([choi(c).matrix for c in channels])
    entangling = np.linalg.eigvalsh(partial_transpose(stack, "first"))[:, 0] < 0.0
    assert entangling[:19].all() and entangling[19:].sum() > 50
    stack = stack[entangling]
    bottom = np.linalg.eigh(partial_transpose(stack, "first"))[1][:, :, 0].reshape(-1, 2, 2)
    schmidt = np.linalg.svd(bottom, compute_uv=False)
    assert (schmidt[:, 0] - schmidt[:, 1] > 1e-6).all()
    cert = fstar_certificate(stack)
    assert (cert.upper - cert.lower <= GAP_TOLERANCE).all()
    # Strictly feasible, as on the unital states.
    assert np.linalg.eigvalsh(cert.dual)[:, 0].min() > 0.0
    for rho in stack:
        _assert_certifies(rho, fstar_certificate(rho))


def _near_ppt_choi_states():
    """Choi states at the separability boundary: seeded random channels'
    mixed toward I/4 until lambda_min(rho^Gamma) = -10^u, u in [-16, -6],
    and amplitude_damping at p = 1 - 10^-k, k = 1..16."""
    for k, u in enumerate(np.linspace(-16.0, -6.0, 400)):
        rho = choi(random_channel(26000 + k, 1 + k % 4)).matrix
        lam = np.linalg.eigvalsh(partial_transpose(rho, "first"))[0]
        if lam < -1e-3:
            # lambda_min of the mixture's partial transpose is linear in t.
            t = (-lam - 10.0**u) / (0.25 - lam)
            yield (1.0 - t) * rho + t * np.eye(4) / 4
    for k in range(1, 17):
        yield choi(amplitude_damping(1.0 - 10.0**-k)).matrix


def test_fstar_closes_near_ppt_states_to_2e_12():
    stack = np.array(list(_near_ppt_choi_states()))
    gamma = partial_transpose(stack, "first")
    npt = np.linalg.eigvalsh(gamma)[:, 0] < 0.0
    assert npt.sum() > 350
    cert = fstar_certificate(stack)
    assert (cert.upper - cert.lower <= 2e-12).all()
    assert (cert.lower[~npt] == 0.5).all() and (cert.upper[~npt] == 0.5).all()
    # Every dual is strictly feasible: Y > 0 and rho^Gamma + Y (x) I > 0.
    assert np.linalg.eigvalsh(cert.dual[npt])[:, 0].min() > 0.0
    for g, y in zip(gamma[npt], cert.dual[npt]):
        assert np.linalg.eigvalsh(g + np.kron(y, I2))[0] > 0.0


@pytest.fixture(scope="module")
def product_minimum_inputs():
    """(rho^Gamma)^-1 of the NPT Choi states of random channels of every
    rank and of :func:`_near_ppt_choi_states`, as the rank-one certificate
    takes them."""
    stack = [choi(random_channel(k, 1 + k % 4)).matrix for k in range(2000)]
    gamma = partial_transpose(np.array(stack + list(_near_ppt_choi_states())), "first")
    gamma = gamma[np.linalg.eigvalsh(gamma)[:, 0] < 0.0]
    return np.linalg.pinv(gamma, hermitian=True)


def test_product_minimum_is_never_above_the_alternating_reference(product_minimum_inputs):
    h = product_minimum_inputs
    q, r = locc._product_minimum(h)
    expected, _ = reference_product_minimum(h)
    assert (expected <= -1.0).sum() > 1000
    assert np.allclose(np.linalg.norm(r, axis=1), 1.0, rtol=0.0, atol=1e-15)
    # Relative to q where q <= -1, the range that sets the rank-one dual
    # y = -1/q; elsewhere relative to ||h||, since q near 0 (the unitary
    # channels', where f is flat at 0) is rounding on both sides.
    scale = np.where(expected <= -1.0, -expected, np.abs(np.linalg.eigvalsh(h)).max(axis=1))
    assert (q - expected <= 1e-15 * scale).all()


def test_product_minimum_of_a_stack_is_each_states_own(product_minimum_inputs):
    h = product_minimum_inputs[::40]
    q, r = locc._product_minimum(h)
    for k in range(len(h)):
        q_k, r_k = locc._product_minimum(h[k:k + 1])
        assert_bitwise_equal(q_k, q[k:k + 1])
        assert_bitwise_equal(r_k, r[k:k + 1])


@pytest.mark.filterwarnings("error")
def test_product_minimum_of_degenerate_inputs():
    # I (x) I and SWAP are flat on the sphere (p = 0 and a singular Newton
    # system), Z (x) Z has its minimum at the poles and X (x) X + Z (x) Z on
    # a circle; -|Phi+><Phi+| is flat at -1/2.
    _, x, y, z = PAULIS
    swap = (np.eye(4) + np.kron(x, x) + np.kron(y, y) + np.kron(z, z)) / 2
    h = np.array([np.eye(4), np.kron(z, z), np.kron(x, x) + np.kron(z, z), swap, -BELL],
                 dtype=complex)
    q, r = locc._product_minimum(h)
    assert np.abs(q - [1.0, -1.0, -1.0, 0.0, -0.5]).max() <= 1e-15
    assert np.allclose(np.linalg.norm(r, axis=1), 1.0, rtol=0.0, atol=1e-15)


def test_fstar_closes_on_the_audits_channels():
    # The audit's own construction, four channels per seed as the benchmark
    # runs it, over 500 seeds: every bracket closes to GAP_TOLERANCE.
    stack = np.array([
        choi(random_channel((seed * 1_000_003 + j) % 2**63, j % 4 + 1)).matrix
        for seed in range(500) for j in range(4)
    ])
    cert = fstar_certificate(stack)
    assert (cert.upper - cert.lower <= GAP_TOLERANCE).all()


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
    search = conftest.compass_search

    def counting_search(objective, *args, **kwargs):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return objective(x)

        try:
            return search(counted, *args, **kwargs)
        finally:
            batches.append(calls[0])

    monkeypatch.setattr(conftest, "compass_search", counting_search)
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
    c = amplitude_damping(0.4)
    value = channel_fstar(c)
    assert value == fstar(choi(c).matrix)
    assert postprocessing_gap(c)[0] == float(choi(c).eig.eigenvalues[0]) - value
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


def _assert_stack_matches_per_state_solves(stack):
    """Each state's certificate in ``stack`` is bit for bit its own solve's;
    returns the stacked certificate."""
    cert = fstar_certificate(stack)
    for k, rho in enumerate(stack):
        single = fstar_certificate(rho)
        assert isinstance(single.lower, float) and isinstance(single.upper, float)
        assert (cert.lower[k], cert.upper[k]) == (single.lower, single.upper)
        assert np.array_equal(cert.primal[k], single.primal)
        assert np.array_equal(cert.dual[k], single.dual)
    return cert


def test_fstar_certificate_stack_matches_per_state_solves():
    stack = _mixed_stack()
    cert = _assert_stack_matches_per_state_solves(stack)
    n = len(stack)
    assert cert.lower.shape == cert.upper.shape == (n,)
    assert cert.primal.shape == (n, 4) and cert.dual.shape == (n, 2, 2)
    assert (cert.upper - cert.lower <= GAP_TOLERANCE).all()
    for k, rho in enumerate(stack):
        gamma = partial_transpose(rho, "first")
        # A KKT certificate closes every NPT state here on its own.
        if np.linalg.eigvalsh(gamma)[0] < 0.0:
            assert locc._kkt_certificates(gamma[None])[3][0] <= GAP_TOLERANCE
        else:
            assert (cert.lower[k], cert.upper[k]) == (0.5, 0.5)
    lower, upper = fstar_bracket(stack)
    assert np.array_equal(lower, cert.lower) and np.array_equal(upper, cert.upper)
    assert np.array_equal(fstar(stack), cert.lower)


def test_barrier_fallback_agrees_with_the_closed_form():
    # The log-barrier solve, once the library's fallback, is now the reference.
    stack = np.concatenate([np.array(list(_certified_states())), _mixed_stack()])
    closed = fstar_certificate(stack)
    lower, upper = reference_fstar_barrier(stack)
    npt = np.linalg.eigvalsh(partial_transpose(stack, "first"))[:, 0] < 0.0
    assert npt.sum() > 150
    assert (closed.upper - closed.lower <= GAP_TOLERANCE).all()
    assert (upper - lower <= 1e-10).all()
    assert np.abs(closed.lower - lower).max() <= 1e-12
    # Neither bracket contradicts the other: each lower end is a protocol's
    # value and each upper end bounds it, so each bracket meets the other.
    assert (closed.lower <= upper).all() and (lower <= closed.upper).all()


def _close_nothing_where(monkeypatch, where):
    """Let the KKT certificates close no state on which ``where(gamma)`` holds:
    their brackets there come back infinitely wide."""
    closed_form = locc._kkt_certificates

    def patched(gamma):
        value, x, z, width = closed_form(gamma)
        return value, x, z, np.where(where(gamma), np.inf, width)

    monkeypatch.setattr(locc, "_kkt_certificates", patched)


def _marginal_below_half(gamma):
    """States whose first-qubit marginal puts less than half its weight on |0>."""
    return gamma[:, 0, 0].real + gamma[:, 1, 1].real < 0.5


def test_fstar_certificate_keeps_leading_axes():
    stack = _mixed_stack()[:6]
    cert = fstar_certificate(stack.reshape(2, 3, 4, 4))
    assert cert.lower.shape == (2, 3) and cert.primal.shape == (2, 3, 4)
    assert np.array_equal(cert.lower.ravel(), fstar(stack))


def test_fstar_stack_raises_when_a_bracket_stays_open(monkeypatch):
    # Of the NPT states, the KKT certificates close none of those
    # _marginal_below_half picks: the solve reports how many are open.
    stack = _mixed_stack()
    gamma = partial_transpose(stack, "first")
    npt = np.linalg.eigvalsh(gamma)[:, 0] < 0.0
    count = (npt & _marginal_below_half(gamma)).sum()
    assert 5 < count < npt.sum()
    _close_nothing_where(monkeypatch, _marginal_below_half)
    message = (
        f"^fstar: {count} of {len(stack)} brackets still open after the "
        "closed-form certificates, the widest inf wide$"
    )
    with pytest.raises(RuntimeError, match=message):
        fstar_certificate(stack)


def test_fstar_stack_rejects_a_non_state():
    stack = _mixed_stack()[:4].copy()
    stack[2] *= 2.0
    with pytest.raises(ValueError, match="trace"):
        fstar(stack)
