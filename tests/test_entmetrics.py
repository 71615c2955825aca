import numpy as np
import pytest

from singletopt.channel import amplitude_damping, apply_to_half
from singletopt.choi import choi
from singletopt.entmetrics import (
    as_density_matrix,
    negativity,
    pt_spectrum_identity_residual,
    schmidt,
    singlet_fraction,
    singlet_fraction_oracle,
    teleportation_fidelity,
)
from singletopt.channel import random_channel
from singletopt.entmetrics import (
    _overlap_at,
    _overlap_coefficients,
    _polish_objective,
    _polish_starts,
    _terms,
)
from singletopt.linalg import PHI_PLUS, PSI_MINUS
from singletopt.locc import fstar, fstar_certificate

from conftest import (
    random_channels,
    random_density,
    random_product_state,
    random_unitary,
)


BELL = np.outer(PHI_PLUS, PHI_PLUS.conj())


def _overlap_terms(rho, ph, pm):
    """(A, B, C) of the oracle's trigonometric form, broadcast over ph, pm and rho's stack."""
    e_ph, e_pm = np.exp(1j * np.asarray(ph)), np.exp(1j * np.asarray(pm))
    return _terms(_overlap_coefficients(rho), e_ph, e_pm)


def _mes_overlap(rho, beta, ph, pm):
    """Overlap of rho with the maximally entangled state at the angles (beta, ph, pm)."""
    a, b, cross = _overlap_terms(rho, ph, pm)
    c, s = np.cos(np.asarray(beta) / 2), np.sin(np.asarray(beta) / 2)
    return c**2 * a + s**2 * b + c * s * cross


def _phase_overlap(rho, ph, pm):
    """The peak over beta of :func:`_mes_overlap` at the phases (ph, pm)."""
    return _overlap_at(_overlap_terms(rho, ph, pm))


def test_singlet_fraction_bell_state():
    value, phi = singlet_fraction(BELL)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(phi, PHI_PLUS)) == pytest.approx(1.0, abs=1e-12)


def test_singlet_fraction_maximally_mixed():
    value, _ = singlet_fraction(np.eye(4) / 4)
    assert value == pytest.approx(0.25, abs=1e-12)


def test_singlet_fraction_optimal_input_output():
    # Output of amplitude damping p = 0.5 on its optimal input reaches the
    # top Choi eigenvalue 1 - p/2.
    p = 0.5
    chi = np.zeros(4, dtype=complex)
    chi[0] = 1 / np.sqrt(2 - p)
    chi[3] = np.sqrt((1 - p) / (2 - p))
    out = apply_to_half(amplitude_damping(p), chi)
    value, _ = singlet_fraction(out)
    assert value == pytest.approx(1 - p / 2, abs=1e-12)


def test_singlet_fraction_maximizer_attains_value():
    rng = np.random.default_rng(2)
    for _ in range(20):
        rho = random_density(rng)
        value, phi = singlet_fraction(rho)
        assert np.vdot(phi, rho @ phi).real == pytest.approx(value, abs=1e-12)
        # phi is maximally entangled
        np.testing.assert_allclose(
            schmidt(phi).coefficients, [0.5, 0.5], atol=1e-10
        )


def test_singlet_fraction_rejects_invalid():
    with pytest.raises(ValueError):
        singlet_fraction(np.eye(4))  # trace 4
    with pytest.raises(ValueError):
        singlet_fraction(np.diag([1.5, -0.5, 0, 0]).astype(complex))


@pytest.mark.parametrize("fn", [singlet_fraction, pt_spectrum_identity_residual])
def test_single_state_functions_take_batch_axes(fn):
    # Choi states, so the marginal condition holds; every entry of a stack
    # is bit for bit its state's own, as for negativity.
    states = [choi(c).matrix for c in random_channels(71, 11)] + [BELL]
    stack = np.array(states).reshape(3, 4, 4, 4)
    values = fn(stack)
    values, vectors = values if fn is singlet_fraction else (values, None)
    assert values.shape == (3, 4)
    for index in np.ndindex(3, 4):
        alone = fn(stack[index])
        alone, vector = alone if fn is singlet_fraction else (alone, None)
        assert isinstance(alone, float)
        assert values[index].tobytes() == np.float64(alone).tobytes()
        if vectors is not None:
            assert vectors[index].tobytes() == vector.tobytes()
    with pytest.raises(ValueError, match=r"\(\.\.\., 4, 4\) stack"):
        fn(np.zeros((2, 3, 3)))
    # A stack raises what its first bad state raises alone.
    with pytest.raises(ValueError, match="trace 4"):
        fn(np.array([BELL, np.eye(4)]))


def test_density_stack_judges_each_matrix_as_alone():
    # ||rho - rho^dag||_F = 2t for an imaginary t on the diagonal: a stack
    # passes the 1e-8 Hermiticity check exactly where each matrix alone does.
    near, over = (BELL + 1j * t * np.diag([1.0, 0, 0, 0]) for t in (0.49e-8, 0.51e-8))
    assert [float(x) for x in negativity(np.array([BELL, near]))] == [
        negativity(BELL), negativity(near)]
    for stack in (np.array([BELL, over]), np.array([over, near])):
        with pytest.raises(ValueError, match="^density matrix is not Hermitian$"):
            negativity(stack)


@pytest.mark.parametrize("fn", [negativity, singlet_fraction, fstar_certificate,
                                singlet_fraction_oracle, pt_spectrum_identity_residual])
@pytest.mark.parametrize("fill", [np.nan, np.inf])
def test_non_finite_stack_raises_the_bad_matrixs_own_error(fn, fill):
    # A stacked eigvalsh on a non-finite matrix once raised numpy's
    # LinAlgError before the matrix was judged alone.
    bad = np.full((4, 4), fill, dtype=complex)
    with np.errstate(invalid="ignore"):
        for state in (bad, np.array([bad, bad]), np.array([BELL, bad])):
            with pytest.raises(ValueError, match="^density matrix is not Hermitian$"):
                fn(state)


def test_negativity_takes_batch_axes():
    rng = np.random.default_rng(17)
    states = [random_density(rng, rank=1 + k % 4) for k in range(12)]
    product = random_product_state(rng)
    states += [BELL, np.eye(4) / 4, np.outer(product, product.conj())]
    stack = np.array(states[:12]).reshape(3, 4, 4, 4)
    values = negativity(stack)
    assert values.shape == (3, 4)
    for index in np.ndindex(3, 4):
        alone = negativity(stack[index])
        assert isinstance(alone, float)
        assert values[index].tobytes() == np.float64(alone).tobytes()
    flat = negativity(np.array(states))
    assert [float(x) for x in flat] == [negativity(rho) for rho in states]
    assert flat[12] == pytest.approx(1.0, abs=1e-12) and flat[13] == 0.0
    # lambda_min(rho^Gamma) = +0 exactly: the floor reads 0.0, never -0.0.
    corner = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    for value in (negativity(corner), negativity(np.array([corner, BELL]))[0]):
        assert repr(float(value)) == "0.0"
    with pytest.raises(ValueError, match="trace 4"):
        negativity(np.array([BELL, np.eye(4)]))


def test_singlet_fraction_local_unitary_invariance():
    rng = np.random.default_rng(3)
    for _ in range(15):
        rho = random_density(rng)
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rotated = u @ rho @ u.conj().T
        a, _ = singlet_fraction(rho)
        b, _ = singlet_fraction(rotated)
        assert abs(a - b) < 1e-10


def test_mes_overlap_formula_matches_explicit_construction():
    # Anchor the oracle's trigonometric form against a from-scratch state.
    rng = np.random.default_rng(4)
    rho = random_density(rng)

    def explicit(beta, ph, pm):
        alpha, gamma = ph + pm, ph - pm
        rz = lambda t: np.array(
            [[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]], dtype=complex
        )
        ry = lambda t: np.array(
            [[np.cos(t / 2), -np.sin(t / 2)], [np.sin(t / 2), np.cos(t / 2)]],
            dtype=complex,
        )
        w = rz(alpha) @ ry(beta) @ rz(gamma)
        v = np.kron(w, np.eye(2)) @ PHI_PLUS
        return np.vdot(v, rho @ v).real

    for _ in range(30):
        beta = rng.uniform(0, np.pi)
        ph = rng.uniform(0, 2 * np.pi)
        pm = rng.uniform(0, 2 * np.pi)
        assert _mes_overlap(rho, beta, ph, pm) == pytest.approx(
            explicit(beta, ph, pm), abs=1e-12
        )


def test_exact_beta_is_the_maximum_over_beta():
    # At fixed phases the overlap is (A+B)/2 + ((A-B)/2) cos b + (C/2) sin b,
    # whose maximum over the whole circle is (A+B)/2 + hypot(A-B, C)/2.
    rng = np.random.default_rng(6)
    betas = np.linspace(0.0, 2 * np.pi, 20000, endpoint=False)
    for _ in range(10):
        rho = random_density(rng)
        for _ in range(10):
            ph, pm = rng.uniform(0, 2 * np.pi, 2)
            a, b, cross = _overlap_terms(rho, ph, pm)
            closed = (a + b) / 2 + np.hypot(a - b, cross) / 2
            dense = _mes_overlap(rho, betas, ph, pm).max()
            exact = _phase_overlap(rho, ph, pm)
            assert exact == pytest.approx(closed, abs=4e-15)
            assert dense <= exact + 4e-15
            assert exact - dense < 1e-7


def test_phase_overlap_has_period_pi_in_each_phase():
    # The fact the oracle's half-period grid rests on: a shift by pi keeps
    # A and flips the sign of C, so the overlap at the best b is unchanged.
    rng = np.random.default_rng(8)
    for _ in range(10):
        rho = random_density(rng)
        ph, pm = rng.uniform(0, 2 * np.pi, (2, 50))
        value = _phase_overlap(rho, ph, pm)
        assert np.abs(_phase_overlap(rho, ph + np.pi, pm) - value).max() <= 4e-15
        assert np.abs(_phase_overlap(rho, ph, pm + np.pi) - value).max() <= 4e-15


@pytest.mark.parametrize("resolution", [2.0, 4.0])
def test_half_period_grid_reaches_the_full_grid_maximum(resolution):
    states = np.array([choi(random_channel(k, k % 4 + 1)).matrix for k in range(500)])
    n_phase = round(360.0 / resolution)
    phases = np.arange(n_phase) * (2 * np.pi / n_phase)
    full = np.array([_phase_overlap(rho, phases[:, None], phases).max() for rho in states])
    half = singlet_fraction_oracle(states, resolution, refine=False)
    assert np.abs(half - full).max() <= 4e-15


def test_polish_objective_is_phase_overlap_bit_for_bit():
    states = np.array([choi(c).matrix for c in random_channels(72, 3)])
    objective = _polish_objective(states)
    rng = np.random.default_rng(9)
    # The first batch has one probe per state, the later ones four.
    for n in (3, 12, 3, 12):
        x = rng.uniform(-1.0, 7.0, (n, 2))
        expected = _phase_overlap(states[np.arange(n) % 3], x[:, 0], x[:, 1])
        assert objective(x).tobytes() == expected.tobytes()


def test_oracle_polish_stall_stays_pinned():
    # The worst stall of the polish along the phase axes from the best grid
    # cell, 7.2e-8 short (channel 1 of ``audit --seed 2000663``): the top two
    # eigenvalues of the magic-basis real part nearly tie, and the ridge is
    # narrow and curved.  Along the fitted quadratic's axes from its vertex
    # the polish reaches the closed form to rounding.
    rho = choi(random_channel(2000669001990, 2)).matrix
    gap = singlet_fraction(rho)[0] - singlet_fraction_oracle(rho, resolution_deg=4.0)
    assert -2e-15 <= gap <= 1e-12


def test_oracle_follows_a_ridge_along_a_phase_axis():
    # The best b is near pi, where the overlap hardly depends on ph: the
    # maximum lies 20 cells from the best grid cell along a narrow ridge
    # tilted off the ph axis.  Along the phase axes from the fitted vertex
    # the polish stopped 1.2e-7 short (channel 2 of ``audit --seed 1800644``).
    rho = choi(random_channel(1800649401934, 3)).matrix
    gap = singlet_fraction(rho)[0] - singlet_fraction_oracle(rho, resolution_deg=4.0)
    assert -2e-15 <= gap <= 1e-12


def test_polish_starts_lie_within_a_cell_and_score_at_least_the_cell():
    states = np.array([choi(random_channel(k, k % 4 + 1)).matrix for k in range(200)])
    cell = 2 * np.pi / 90  # the audit's 4 degrees: 45 x 45 cells over [0, pi)
    phases = np.arange(45) * cell
    grids = np.array([_phase_overlap(rho, phases[:, None], phases) for rho in states])
    objective = _polish_objective(states)
    starts, _ = _polish_starts(objective, grids, cell)
    best = grids.reshape(len(states), -1).max(axis=1)
    cells = phases[np.column_stack(np.unravel_index(grids.reshape(len(states), -1).argmax(axis=1),
                                                    (45, 45)))]
    assert np.all(np.abs(starts - cells) <= cell * (1 + 1e-12))
    # A start off its cell is a fitted vertex, kept only where it scores at
    # least the cell; the fit is taken on most states.
    moved = (starts != cells).any(axis=1)
    assert moved.mean() > 0.9
    assert np.all(objective(starts)[moved] >= best[moved])


def test_oracle_reaches_a_unitary_channel():
    # The 3-D Euler grid's polish once stopped 1.88e-4 short here.
    rho = choi(random_channel(1400635201893, 1)).matrix
    closed, _ = singlet_fraction(rho)
    assert abs(singlet_fraction_oracle(rho, resolution_deg=4.0) - closed) < 1e-12


def test_oracle_bell_state_exact_on_grid():
    assert singlet_fraction_oracle(BELL, 2.0, refine=False) == pytest.approx(
        1.0, abs=1e-6
    )


def test_oracle_maximally_mixed_constant():
    assert singlet_fraction_oracle(np.eye(4) / 4, 4.0, refine=False) == pytest.approx(
        0.25, abs=1e-12
    )


def test_oracle_agrees_with_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(10):
        rho = random_density(rng)
        closed, _ = singlet_fraction(rho)
        pre = singlet_fraction_oracle(rho, 2.0, refine=False)
        refined = singlet_fraction_oracle(rho, 2.0)
        assert pre <= closed + 1e-9
        assert refined <= closed + 1e-9
        assert abs(closed - pre) < 1e-3
        assert abs(closed - refined) < 1e-8


def test_oracle_on_a_stack_is_at_least_each_state_alone():
    # The stacked search keeps probing converged states until the whole
    # stack stops, so an entry can only rise, and stays a lower bound.
    states = np.array([choi(random_channel(k, k % 4 + 1)).matrix for k in range(500)])
    alone = np.array([singlet_fraction_oracle(rho, resolution_deg=4.0) for rho in states])
    closed = np.array([singlet_fraction(rho)[0] for rho in states])
    # Stacks of four, as one ``audit --count 4`` searches.
    fours = np.concatenate([singlet_fraction_oracle(states[k:k + 4], resolution_deg=4.0)
                            for k in range(0, 500, 4)])
    assert np.all(alone <= fours) and np.all(fours <= closed + 1e-15)
    assert np.all(closed - fours < 1e-12)
    # One stack of all 500 probes longer.  On the unitary channel k = 336 it
    # reaches 1.0, while the closed form rounds to 1 - 1.1e-15 and
    # Tr rho = 1 - 2.2e-16 bounds every overlap: rounding on both sides.
    every = singlet_fraction_oracle(states, resolution_deg=4.0)
    assert np.all(alone <= every) and np.all(every <= closed + 2e-15)
    assert np.all(closed - every < 1e-12)


def test_oracle_keeps_leading_axes_and_returns_a_float_for_one_state():
    rho = choi(amplitude_damping(0.3)).matrix
    assert type(singlet_fraction_oracle(rho, 4.0)) is float
    assert type(singlet_fraction_oracle(rho, 4.0, refine=False)) is float
    stack = np.array([[rho, BELL], [np.eye(4) / 4, rho]])
    assert singlet_fraction_oracle(stack, 4.0).shape == (2, 2)
    assert singlet_fraction_oracle(stack, 4.0, refine=False).shape == (2, 2)


def test_oracle_stack_raises_the_bad_states_own_error():
    bad = BELL.copy()
    bad[0, 1] = 0.3
    with pytest.raises(ValueError) as alone:
        singlet_fraction_oracle(bad)
    with pytest.raises(ValueError) as stacked:
        singlet_fraction_oracle(np.array([BELL, bad, np.eye(4) / 4]))
    assert str(stacked.value) == str(alone.value) == "density matrix is not Hermitian"


def test_teleportation_fidelity():
    assert teleportation_fidelity(1.0) == pytest.approx(1.0)
    assert teleportation_fidelity(0.5) == pytest.approx(2 / 3)
    assert teleportation_fidelity(0.75) == pytest.approx(5 / 6)
    assert teleportation_fidelity(0.5, d=3) == pytest.approx((1.5 + 1) / 4)
    with pytest.raises(ValueError):
        teleportation_fidelity(1.2)
    with pytest.raises(ValueError):
        teleportation_fidelity(-0.1)
    with pytest.raises(ValueError):
        teleportation_fidelity(0.5, d=1)


def test_teleportation_fidelity_of_an_array():
    fractions = np.linspace(0.5, 1.0, 11)
    values = teleportation_fidelity(fractions)
    assert values.shape == (11,)
    assert [float(x) for x in values] == [teleportation_fidelity(float(f)) for f in fractions]
    with pytest.raises(ValueError, match="must lie in"):
        teleportation_fidelity(np.array([0.5, 1.2, 0.7]))


def test_negativity_bell_and_product():
    assert negativity(BELL) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(6)
    for _ in range(10):
        assert negativity(random_product_state(rng)) == pytest.approx(0, abs=1e-12)


def test_negativity_amplitude_damping_formulas():
    # Closed forms for the Schmidt family sqrt(l)|00> + sqrt(1-l)|11>.
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = rng.uniform(0, 1)
        lam = rng.uniform(0, 1)
        state = np.zeros(4, dtype=complex)
        state[0], state[3] = np.sqrt(lam), np.sqrt(1 - lam)
        out = apply_to_half(amplitude_damping(p), state)
        expected = np.sqrt(
            p**2 * (1 - lam) ** 2 + 4 * lam * (1 - lam) * (1 - p)
        ) - (1 - lam) * p
        assert negativity(out) == pytest.approx(max(0.0, expected), abs=1e-12)


def test_negativity_local_unitary_invariance():
    rng = np.random.default_rng(8)
    for _ in range(15):
        rho = random_density(rng)
        u = np.kron(random_unitary(rng), random_unitary(rng))
        assert negativity(u @ rho @ u.conj().T) == pytest.approx(
            negativity(rho), abs=1e-10
        )


def test_fraction_bounded_by_negativity():
    rng = np.random.default_rng(9)
    for _ in range(50):
        rho = random_density(rng, rank=int(rng.integers(1, 5)))
        value, _ = singlet_fraction(rho)
        assert value <= 0.5 * (1 + negativity(rho)) + 1e-10


def test_schmidt_basic_cases():
    np.testing.assert_allclose(schmidt(PHI_PLUS).coefficients, [0.5, 0.5], atol=1e-12)
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    np.testing.assert_allclose(schmidt(ket00).coefficients, [1, 0], atol=1e-12)
    p = 0.5
    chi = np.zeros(4, dtype=complex)
    chi[0] = 1 / np.sqrt(2 - p)
    chi[3] = np.sqrt((1 - p) / (2 - p))
    np.testing.assert_allclose(schmidt(chi).coefficients, [2 / 3, 1 / 3], atol=1e-12)


def test_schmidt_reconstruction():
    rng = np.random.default_rng(10)
    for _ in range(30):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        data = schmidt(v)
        rebuilt = data.state()
        overlap = np.vdot(rebuilt, v)
        np.testing.assert_allclose(
            rebuilt * (overlap.conjugate() / abs(overlap)), v, atol=1e-10
        )
        assert data.coefficients[0] >= data.coefficients[1]
        assert data.coefficients.sum() == pytest.approx(1.0, abs=1e-12)


def test_schmidt_rejects_unnormalized():
    with pytest.raises(ValueError):
        schmidt(np.array([1, 0, 0, 1], dtype=complex))


def test_schmidt_stack_matches_each_vector_alone():
    rng = np.random.default_rng(12)
    v = rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v[0] = PHI_PLUS  # degenerate singular values
    v[1] = [1, 0, 0, 0]  # product state
    stack = schmidt(v)
    assert stack.coefficients.shape == (30, 2)
    for k, vector in enumerate(v):
        alone = schmidt(vector)
        assert np.array_equal(stack.coefficients[k], alone.coefficients)
        for got, want in zip(stack.local_bases, alone.local_bases):
            assert np.array_equal(got[k], want)


def test_schmidt_stack_raises_the_bad_vectors_own_error():
    bad = np.array([1.1, 0, 0, 0], dtype=complex)
    with pytest.raises(ValueError) as alone:
        schmidt(bad)
    stack = np.array([PHI_PLUS, bad, [0, 1, 0, 0]], dtype=complex)
    with pytest.raises(ValueError) as stacked:
        schmidt(stack)
    assert str(stacked.value) == str(alone.value) == "pure state norm is 1.1, expected 1"


@pytest.mark.parametrize("fn", [as_density_matrix, singlet_fraction, negativity, fstar, schmidt])
def test_nan_vector_fails_the_unit_norm_check(fn):
    # |norm - 1| > tol is False for a NaN norm: the check once let it through.
    with pytest.raises(ValueError, match="^pure state norm is nan, expected 1$"):
        fn(np.full(4, np.nan))


def test_schmidt_stack_with_a_nan_row_raises():
    stack = np.array([PHI_PLUS, np.full(4, np.nan), [0, 1, 0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="^pure state norm is nan, expected 1$"):
        schmidt(stack)


def test_pt_identity_simple_cases():
    assert pt_spectrum_identity_residual(BELL) == pytest.approx(0, abs=1e-12)
    assert pt_spectrum_identity_residual(np.eye(4) / 4) == pytest.approx(0, abs=1e-12)
    sing = np.outer(PSI_MINUS, PSI_MINUS.conj())
    assert pt_spectrum_identity_residual(sing) == pytest.approx(0, abs=1e-12)


def test_pt_identity_on_random_choi_states():
    for c in random_channels(67, 40):
        assert abs(pt_spectrum_identity_residual(choi(c).matrix)) < 1e-10


def test_pt_identity_rejects_bad_marginal():
    state = np.diag([1.0, 0, 0, 0]).astype(complex)  # marginal |0><0|
    with pytest.raises(ValueError):
        pt_spectrum_identity_residual(state)
    # Each state of a stack is checked alone, with the one-state message.
    with pytest.raises(ValueError, match="^first marginal is not maximally mixed$"):
        pt_spectrum_identity_residual(np.array([BELL, state]))
