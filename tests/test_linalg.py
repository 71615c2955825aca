import numpy as np
import pytest

from singletopt.linalg import (
    I2,
    MAGIC_BASIS,
    EigenDecomposition,
    PAULI_X,
    PAULI_Z,
    PHI_PLUS,
    PSI_MINUS,
    SWAP,
    _fix_phase,
    eigenvalue_clusters,
    has_maximally_mixed_marginal,
    hermitian_eig,
    is_hermitian,
    is_psd,
    is_unitary,
    partial_transpose,
    swap_conjugate,
    tensor_product,
    to_magic_basis,
)

from conftest import loop_hermitian_eig, random_density, random_unitary


def test_tensor_product_identities():
    np.testing.assert_allclose(tensor_product(I2, I2), np.eye(4))
    np.testing.assert_allclose(
        tensor_product(PAULI_Z, I2), np.diag([1, 1, -1, -1]).astype(complex)
    )


def test_tensor_product_bell_symmetry():
    xx = tensor_product(PAULI_X, PAULI_X)
    np.testing.assert_allclose(xx @ PHI_PLUS, PHI_PLUS)


def test_tensor_product_takes_a_stack_of_left_factors():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    a[0, 0, 1] = -0.0
    stacked = tensor_product(a, I2)
    assert stacked.shape == (5, 4, 4)
    for k in range(5):
        assert stacked[k].tobytes() == tensor_product(a[k], I2).tobytes()
    with pytest.raises(ValueError):
        tensor_product(np.zeros((5, 4, 4)), I2)


def test_tensor_product_rejects_overflow():
    with pytest.raises(ValueError):
        tensor_product(np.eye(4), np.eye(2))


def test_predicates():
    assert is_hermitian(PAULI_X)
    assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    assert is_psd(np.diag([0.5, 0.5]).astype(complex))
    assert not is_psd(PAULI_Z)
    assert is_unitary(PAULI_X)
    assert not is_unitary(0.5 * PAULI_X)


def test_eig_diagonal():
    m = np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex)
    eig = hermitian_eig(m)
    np.testing.assert_allclose(eig.eigenvalues, [0.7, 0.1, 0.1, 0.1])


def test_eig_bell_projector():
    proj = np.outer(PHI_PLUS, PHI_PLUS.conj())
    eig = hermitian_eig(proj)
    np.testing.assert_allclose(eig.eigenvalues, [1, 0, 0, 0], atol=1e-12)
    overlap = abs(np.vdot(eig.eigenvectors[:, 0], PHI_PLUS))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_eig_amplitude_damping_choi_block():
    # Top eigenvalue of the Choi matrix of amplitude damping at p = 0.5.
    # Oracle: the 2x2 block {{1, sqrt(1-p)}, {sqrt(1-p), 1-p}}/2 has trace
    # (2-p)/2 and zero determinant, so its eigenvalues are {1 - p/2, 0};
    # the remaining diagonal entries contribute p/2 and 0.
    p = 0.5
    root = np.sqrt(1 - p)
    choi = 0.5 * np.array(
        [
            [1, 0, 0, root],
            [0, 0, 0, 0],
            [0, 0, p, 0],
            [root, 0, 0, 1 - p],
        ],
        dtype=complex,
    )
    eig = hermitian_eig(choi)
    np.testing.assert_allclose(
        eig.eigenvalues, [1 - p / 2, p / 2, 0, 0], atol=1e-12
    )


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g + g.conj().T
        eig = hermitian_eig(m, tol=1e-6)
        assert np.linalg.norm(eig.reconstruct() - (m + m.conj().T) / 2) < 1e-10
        gram = eig.eigenvectors.conj().T @ eig.eigenvectors
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)


def test_eig_deterministic_and_phase_fixed():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = (g + g.conj().T) / 2
    a = hermitian_eig(m)
    b = hermitian_eig(m.copy())
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
    np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)
    for k in range(4):
        v = a.eigenvectors[:, k]
        pivot = v[np.argmax(np.abs(v))]
        assert abs(pivot.imag) < 1e-14 and pivot.real >= 0


def test_eig_degenerate_ordering_is_reproducible():
    # Spectrum with an exact two-fold degeneracy.
    rng = np.random.default_rng(11)
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    m = u @ np.diag([0.5, 0.3, 0.1, 0.1]) @ u.conj().T
    a = hermitian_eig(m)
    b = hermitian_eig(np.array(m))
    np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)


def _tied_and_random_states():
    """Random states next to spectra with ties and with pivots off the first entry."""
    from singletopt.channel import choi_matrix, depolarizing, identity

    rng = np.random.default_rng(23)
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    states = [random_density(rng, rank=1 + k % 4) for k in range(12)]
    states += [
        choi_matrix(identity()),  # 3-fold tie at 0
        choi_matrix(depolarizing(0.4)),  # 3-fold tie at p/4
        np.eye(4, dtype=complex) / 4,  # 4-fold tie
        u @ np.diag([0.5, 0.3, 0.1, 0.1]) @ u.conj().T,
        np.diag([0.1, 0.4, 0.2, 0.3]).astype(complex),  # eigenvectors e_k: zero first entries
    ]
    return np.array(states)


def test_eig_batch_equals_per_matrix_calls_bit_for_bit():
    states = _tied_and_random_states()
    batched = hermitian_eig(states.reshape(1, -1, 4, 4))
    assert batched.eigenvalues.shape == (1, len(states), 4)
    assert batched.eigenvectors.shape == (1, len(states), 4, 4)
    assert not batched.eigenvectors.flags.writeable
    for k, m in enumerate(states):
        alone = hermitian_eig(m)
        assert batched.eigenvalues[0, k].tobytes() == alone.eigenvalues.tobytes()
        assert batched.eigenvectors[0, k].tobytes() == alone.eigenvectors.tobytes()
    np.testing.assert_allclose(batched.reconstruct()[0], states, atol=1e-14)
    # The tie-break still orders the identity channel's tied eigenvectors.
    assert hermitian_eig(states[12]).eigenvalues[0] == pytest.approx(1.0, abs=1e-15)


def _tie_break_cases():
    """Tied, nearly tied and barely untied spectra, as Choi states and as
    random unitary conjugates of fixed spectra."""
    from singletopt.channel import (
        amplitude_damping,
        bit_flip,
        choi_matrix,
        identity,
        phase_damping,
        random_channel,
    )

    rng = np.random.default_rng(29)
    singlet = np.outer(PSI_MINUS, PSI_MINUS.conj())
    cases = [np.eye(4, dtype=complex) / 4]
    cases += [p * singlet + (1 - p) * np.eye(4) / 4 for p in np.linspace(0.0, 1.0, 11)]  # Werner
    cases += [
        choi_matrix(c)
        for c in (identity(), amplitude_damping(0.3), amplitude_damping(1.0),
                  phase_damping(0.6), bit_flip(0.2))
    ]
    cases += [choi_matrix(random_channel(9800 + k, 1 + k % 2)) for k in range(20)]
    spectra = [
        (0.5, 0.5, 0.0, 0.0),
        (0.25, 0.25, 0.25, 0.25),
        (0.5, 0.5 - 1e-13, 0.0, 1e-13),
        (0.3, 0.3 - 1e-13, 0.3 - 2e-13, 0.1),
        (0.4, 0.4, 0.2 + 1e-13, 0.2),
        (0.5, 0.5 - 2e-12, 0.0, 0.0),  # a gap just above the tie tolerance
    ]
    for spectrum in spectra:
        for _ in range(25):
            u = random_unitary(rng, 4)
            cases.append(u @ np.diag(spectrum) @ u.conj().T)
    return np.array(cases)


def test_eig_stacked_tie_break_equals_the_sorted_loop_bit_for_bit():
    cases = _tie_break_cases()
    stacked = hermitian_eig(cases)
    moved = 0
    for k, m in enumerate(cases):
        w, v = loop_hermitian_eig(m)
        alone = hermitian_eig(m)
        for eig in (alone, EigenDecomposition(stacked.eigenvalues[k], stacked.eigenvectors[k])):
            assert eig.eigenvalues.tobytes() == w.tobytes(), k
            assert eig.eigenvectors.tobytes() == v.tobytes(), k
        w0, v0 = np.linalg.eigh((m + m.conj().T) / 2)
        plain = v0[:, np.argsort(-w0, kind="stable")]
        moved += not np.array_equal(_fix_phase(plain.T).T, v)
    # The cases exercise the tie-break: it reorders many of them.
    assert moved >= 100


def test_eig_batch_rejects_any_non_hermitian_member():
    states = _tied_and_random_states()
    states[3, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(states)


def test_fix_phase_batch_and_zero_pivot():
    from singletopt.linalg import _fix_phase

    rng = np.random.default_rng(4)
    vectors = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    vectors[2] = 0.0
    vectors[3, :2] = 0.0
    fixed = _fix_phase(vectors)
    for v, w in zip(vectors, fixed):
        assert w.tobytes() == _fix_phase(v).tobytes()
    assert not fixed[2].any()
    pivot = fixed[3][np.argmax(np.abs(fixed[3]))]
    assert abs(pivot.imag) < 1e-14 and pivot.real > 0


def test_partial_transpose_involution_and_bell_spectrum():
    rng = np.random.default_rng(5)
    m = random_density(rng)
    np.testing.assert_array_equal(
        partial_transpose(partial_transpose(m, "first"), "first"), m
    )
    proj = np.outer(PHI_PLUS, PHI_PLUS.conj())
    eigs = np.linalg.eigvalsh(partial_transpose(proj, "first"))
    np.testing.assert_allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(partial_transpose(np.eye(4) / 4, "second"), np.eye(4) / 4)


def test_partial_transpose_takes_batch_axes():
    rng = np.random.default_rng(6)
    stack = np.array([random_density(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
    for side in ("first", "second"):
        batched = partial_transpose(stack, side)
        assert batched.shape == stack.shape
        for index in np.ndindex(2, 3):
            np.testing.assert_array_equal(batched[index], partial_transpose(stack[index], side))
    with pytest.raises(ValueError):
        partial_transpose(np.zeros((3, 4, 2)))


def test_eigenvalue_clusters_chain_neighbors():
    w = np.array([0.5, 0.5 - 1e-10, 0.3, 0.3 - 6e-13, 0.3 - 1.2e-12])
    assert list(eigenvalue_clusters(w, 1e-12)) == [(0, 1), (1, 2), (2, 5)]
    assert list(eigenvalue_clusters(w, 1e-8)) == [(0, 2), (2, 5)]
    assert list(eigenvalue_clusters(w, 0.0)) == [(k, k + 1) for k in range(5)]
    assert list(eigenvalue_clusters(np.array([]), 1.0)) == []


def test_partial_transpose_amplitude_damping_min_eigenvalue():
    p = 0.5
    root = np.sqrt(1 - p)
    choi = 0.5 * np.array(
        [[1, 0, 0, root], [0, 0, 0, 0], [0, 0, p, 0], [root, 0, 0, 1 - p]],
        dtype=complex,
    )
    eigs = np.linalg.eigvalsh(partial_transpose(choi, "first"))
    assert eigs.min() == pytest.approx(0.5 - 0.75, abs=1e-12)


def test_trace_preserved():
    rng = np.random.default_rng(9)
    m = random_density(rng)
    for transform in (lambda x: partial_transpose(x, "first"), to_magic_basis):
        assert abs(np.trace(transform(m)) - np.trace(m)) < 1e-12


def test_swap_conjugate_identities():
    np.testing.assert_allclose(swap_conjugate(np.eye(4)), np.eye(4))
    proj = np.outer(PHI_PLUS, PHI_PLUS.conj())
    np.testing.assert_allclose(swap_conjugate(proj), proj, atol=1e-15)


def test_swap_conjugate_preserves_spectrum():
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = random_density(rng)
        a = np.linalg.eigvalsh(m)
        b = np.linalg.eigvalsh(swap_conjugate(m))
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_magic_basis_unitary_and_columns():
    np.testing.assert_allclose(
        MAGIC_BASIS.conj().T @ MAGIC_BASIS, np.eye(4), atol=1e-15
    )
    proj = np.outer(PHI_PLUS, PHI_PLUS.conj())
    np.testing.assert_allclose(
        to_magic_basis(proj), np.diag([1, 0, 0, 0]).astype(complex), atol=1e-15
    )
    np.testing.assert_allclose(to_magic_basis(np.eye(4)), np.eye(4), atol=1e-15)


def test_magic_basis_makes_maximally_entangled_projectors_real():
    rng = np.random.default_rng(21)
    for _ in range(40):
        u = random_unitary(rng)
        v = random_unitary(rng)
        phi = np.kron(u, v) @ PHI_PLUS
        transformed = to_magic_basis(np.outer(phi, phi.conj()))
        assert np.abs(transformed.imag).max() < 1e-12
        assert np.abs(transformed - transformed.T).max() < 1e-12


def test_to_magic_basis_takes_batch_axes():
    rng = np.random.default_rng(23)
    stack = np.array([random_density(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
    batched = to_magic_basis(stack)
    assert batched.shape == (2, 3, 4, 4)
    for index in np.ndindex(2, 3):
        np.testing.assert_array_equal(batched[index], to_magic_basis(stack[index]))
    with pytest.raises(ValueError):
        to_magic_basis(np.zeros((3, 2, 2)))


def test_maximally_mixed_marginal_check():
    rng = np.random.default_rng(31)
    assert has_maximally_mixed_marginal(np.eye(4) / 4, 0.0)
    assert has_maximally_mixed_marginal(np.outer(PHI_PLUS, PHI_PLUS.conj()), 1e-15)
    for _ in range(10):
        rho = random_density(rng)
        marginal = rho.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        distance = np.linalg.norm(marginal - I2 / 2)
        assert has_maximally_mixed_marginal(rho, distance * (1 + 1e-9))
        assert not has_maximally_mixed_marginal(rho, distance * (1 - 1e-9))
