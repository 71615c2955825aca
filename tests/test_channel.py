import json

import numpy as np
import pytest

import singletopt.channel as channel_module
from singletopt.channel import (
    KrausChannel,
    amplitude_damping,
    apply,
    apply_to_half,
    bit_flip,
    channel_from_dict,
    channel_to_dict,
    choi_matrix,
    depolarizing,
    dual,
    identity,
    is_unital,
    kraus_from_choi,
    named_channel,
    phase_damping,
    random_channel,
    unitary,
    validate,
)
from singletopt.channel import (
    KRAUS_CUT,
    _apply_to_halves,
    _bell_products,
    _kraus_operators,
    _kraus_set,
    _measure,
)
from singletopt.choi import choi_states
from singletopt.linalg import I2, PAULI_X, PAULI_Y, PAULI_Z, PHI_PLUS

from conftest import (
    assert_bitwise_equal,
    einsum_bell_products,
    random_channels,
    random_density,
    random_pure,
    random_unitary,
)


def test_validate_identity():
    rep = validate(identity())
    assert rep.ok
    assert rep.tp_residual == pytest.approx(0, abs=1e-15)
    assert rep.cp_min_eigenvalue == pytest.approx(0, abs=1e-12)


def test_validate_amplitude_damping():
    assert validate(amplitude_damping(0.5)).ok


def test_validate_decides_once_per_channel():
    # Measured and decided once per channel object: every call returns the
    # stored report.
    c = KrausChannel(kraus=(np.sqrt(1.0 + 1e-6) * I2,))
    first, again = validate(c), validate(c)
    assert first is again and not first.ok
    assert first.tp_residual == pytest.approx(np.sqrt(2.0) * 1e-6, rel=1e-6)


def test_validate_rejects_double_identity():
    # sum A^dag A = 2I, so the residual is the Frobenius norm of I.
    rep = validate(KrausChannel(kraus=(I2, I2)))
    assert not rep.ok
    assert rep.tp_residual == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_validate_non_finite_choi_is_not_ok(monkeypatch):
    # Entries of 1e155 square to infinity: no eigensolver sees the matrix.
    c = KrausChannel(kraus=(np.array([[1e155, 0.0], [0.0, 1e155]]),))

    def fail(_):
        raise AssertionError("eigvalsh called on a non-finite Choi matrix")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    rep = validate(c)
    assert not rep.ok
    assert np.isnan(rep.cp_min_eigenvalue)


def test_kraus_shape_rejected():
    with pytest.raises(ValueError):
        KrausChannel(kraus=(np.eye(3),))
    with pytest.raises(ValueError):
        KrausChannel(kraus=())


def test_dual_identity_and_unitary():
    assert np.allclose(dual(identity()).kraus[0], I2)
    rng = np.random.default_rng(0)
    u = random_unitary(rng)
    np.testing.assert_allclose(dual(unitary(u)).kraus[0], u.conj().T)


def test_dual_amplitude_damping_not_trace_preserving():
    p = 0.5
    d = dual(amplitude_damping(p))
    total = sum(op.conj().T @ op for op in d.kraus)
    np.testing.assert_allclose(total, np.diag([1 + p, 1 - p]), atol=1e-12)


def test_dual_involution():
    for c in random_channels(17, 8):
        np.testing.assert_allclose(
            choi_matrix(dual(dual(c))), choi_matrix(c), atol=1e-12
        )


def test_dual_of_unital_channel_validates():
    rng = np.random.default_rng(23)
    for _ in range(10):
        q = rng.dirichlet(np.ones(4))
        u1, u2 = random_unitary(rng), random_unitary(rng)
        ops = tuple(
            np.sqrt(qi) * (u1 @ sigma @ u2)
            for qi, sigma in zip(q, (I2, PAULI_X, PAULI_Y, PAULI_Z))
        )
        c = KrausChannel(kraus=ops)
        assert is_unital(c)[0]
        assert validate(dual(c)).ok


def test_is_unital():
    flag, dev = is_unital(depolarizing(0.4))
    assert flag and dev == pytest.approx(0, abs=1e-12)
    assert is_unital(identity())[0]
    flag, dev = is_unital(amplitude_damping(0.5))
    assert not flag
    assert dev == pytest.approx(0.5 * np.sqrt(2), abs=1e-12)


def test_apply_identity_and_full_damping():
    rng = np.random.default_rng(1)
    rho = random_density(rng, dim=2)
    np.testing.assert_allclose(apply(identity(), rho), rho)
    out = apply(amplitude_damping(1.0), rho)
    np.testing.assert_allclose(out, np.diag([1, 0]).astype(complex), atol=1e-12)


def test_apply_depolarizing_formula():
    # Oracle: expand the four-operator form by hand.
    rng = np.random.default_rng(2)
    for p in (0.0, 0.3, 1.0):
        c = depolarizing(p)
        rho = random_density(rng, dim=2)
        direct = (1 - p) * rho + p * np.trace(rho) * I2 / 2
        np.testing.assert_allclose(apply(c, rho), direct, atol=1e-12)


def test_apply_preserves_trace_and_psd():
    rng = np.random.default_rng(3)
    for c in random_channels(29, 8):
        rho = random_density(rng, dim=2)
        out = apply(c, rho)
        assert abs(np.trace(out).real - 1) < 1e-12
        assert np.linalg.eigvalsh(out).min() > -1e-12


def test_apply_to_half_identity_and_product():
    proj = np.outer(PHI_PLUS, PHI_PLUS.conj())
    np.testing.assert_allclose(apply_to_half(identity(), PHI_PLUS), proj)
    rng = np.random.default_rng(4)
    c = random_channel(5, 3)
    a = random_pure(rng, 2)
    b = random_pure(rng, 2)
    state = np.kron(a, b)
    out = apply_to_half(c, state)
    expected = np.kron(np.outer(a, a.conj()), apply(c, np.outer(b, b.conj())))
    np.testing.assert_allclose(out, expected, atol=1e-12)
    # Against the explicit sum_k (I (x) A_k) rho (I (x) A_k)^dag.
    for c in random_channels(7, 8):
        bigs = [np.kron(I2, op) for op in c.kraus]
        for state in (random_pure(rng, 4), random_density(rng)):
            rho = np.outer(state, state.conj()) if state.ndim == 1 else state
            expected = sum(big @ rho @ big.conj().T for big in bigs)
            np.testing.assert_allclose(apply_to_half(c, state), expected, rtol=0, atol=1e-15)


def test_apply_to_half_amplitude_damping_choi():
    # Direct Kraus expansion of the channel acting on half of |Phi+>.
    p = 0.5
    root = np.sqrt(1 - p)
    expected = 0.5 * np.array(
        [[1, 0, 0, root], [0, 0, 0, 0], [0, 0, p, 0], [root, 0, 0, 1 - p]],
        dtype=complex,
    )
    np.testing.assert_allclose(
        apply_to_half(amplitude_damping(p), PHI_PLUS), expected, atol=1e-12
    )


def test_apply_to_half_keeps_first_marginal():
    rng = np.random.default_rng(8)
    for c in random_channels(31, 6):
        state = random_density(rng)
        out = apply_to_half(c, state)
        before = state.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        after = out.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        np.testing.assert_allclose(after, before, atol=1e-10)


def test_kraus_from_choi_identity():
    extracted = kraus_from_choi(choi_matrix(identity()))
    assert len(extracted.kraus) == 1
    op = extracted.kraus[0]
    phase = op[0, 0] / abs(op[0, 0])
    np.testing.assert_allclose(op / phase, I2, atol=1e-10)


def test_kraus_from_choi_depolarizing():
    # The top eigenvalue (1 - 3p/4) is simple, so the first operator must
    # be proportional to the identity; the other three live in the
    # triple-degenerate Bell eigenspace, where any orthonormal basis is a
    # valid spectral decomposition, so only tracelessness (forced by trace
    # orthogonality against the first) and the Gram structure are pinned.
    extracted = kraus_from_choi(choi_matrix(depolarizing(0.4)))
    assert len(extracted.kraus) == 4
    first = extracted.kraus[0]
    np.testing.assert_allclose(first, first[0, 0] * I2, atol=1e-10)
    for op in extracted.kraus[1:]:
        assert abs(np.trace(op)) < 1e-10


def test_kraus_from_choi_roundtrip_and_orthogonality():
    for c in random_channels(43, 10):
        j = choi_matrix(c)
        extracted = kraus_from_choi(j)
        np.testing.assert_allclose(choi_matrix(extracted), j, atol=1e-9)
        weights = [p for p in np.linalg.eigvalsh(j)[::-1] if p > 1e-12]
        gram = np.array(
            [[np.trace(a.conj().T @ b) for b in extracted.kraus] for a in extracted.kraus]
        )
        np.testing.assert_allclose(gram, np.diag([2 * p for p in weights]), atol=1e-9)


def test_kraus_from_choi_rejects_bad_marginal():
    bad = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        kraus_from_choi(bad)


def test_constructors_edge_cases():
    np.testing.assert_allclose(
        choi_matrix(amplitude_damping(0.0)), choi_matrix(identity()), atol=1e-12
    )
    rng = np.random.default_rng(6)
    rho = random_density(rng, dim=2)
    np.testing.assert_allclose(
        apply(amplitude_damping(1.0), rho), np.diag([1, 0]).astype(complex), atol=1e-12
    )
    for ctor in (depolarizing, amplitude_damping, phase_damping, bit_flip):
        with pytest.raises(ValueError):
            ctor(1.5)
        with pytest.raises(ValueError):
            ctor(-0.1)
        assert validate(ctor(0.37)).ok


def test_random_channel_validates_and_is_deterministic():
    for rank in (1, 2, 3, 4):
        c = random_channel(7, rank)
        assert len(c.kraus) == rank
        assert validate(c).ok
    a = random_channel(7, 4)
    b = random_channel(7, 4)
    for x, y in zip(a.kraus, b.kraus):
        np.testing.assert_array_equal(x, y)


def test_random_channel_rejects_bad_rank():
    with pytest.raises(ValueError):
        random_channel(0, 5)


def test_named_channel_dispatch():
    c = named_channel("amplitude_damping", {"p": 0.5})
    assert c.params["p"] == 0.5
    assert named_channel("identity").label == "identity"
    with pytest.raises(ValueError):
        named_channel("nonsense")
    with pytest.raises(ValueError):
        named_channel("depolarizing", {"q": 0.1})
    with pytest.raises(ValueError):
        named_channel("identity", {"p": 0.1})


def test_json_roundtrip():
    for rank in (1, 2, 3, 4):
        for seed in range(25):
            c = random_channel(9100 + seed, rank)
            back = channel_from_dict(json.loads(json.dumps(channel_to_dict(c))))
            assert len(back.kraus) == rank
            # JSON floats round-trip exactly, so the Kraus set does too.
            np.testing.assert_array_equal(choi_matrix(back), choi_matrix(c))


def test_json_named_form():
    c = channel_from_dict({"name": "depolarizing", "params": {"p": 0.25}})
    np.testing.assert_allclose(
        choi_matrix(c), choi_matrix(depolarizing(0.25)), atol=1e-15
    )


def test_json_compresses_long_kraus_lists():
    # Eight redundant operators must collapse to at most four through the
    # Choi matrix.
    c = depolarizing(0.6)
    ops = []
    for op in c.kraus:
        ops.append(op / np.sqrt(2))
        ops.append(op / np.sqrt(2))
    back = channel_from_dict(_kraus_spec(ops))
    assert len(back.kraus) <= 4
    np.testing.assert_allclose(choi_matrix(back), choi_matrix(c), atol=1e-9)


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        channel_from_dict({"kraus": []})
    with pytest.raises(ValueError):
        channel_from_dict({"something": 1})
    with pytest.raises(ValueError):
        channel_from_dict([1, 2, 3])


def test_json_rejects_name_and_kraus_together():
    # Neither field is dropped silently, whether or not each is valid alone.
    kraus = channel_to_dict(identity())["kraus"]
    for spec in (
        {"name": "depolarizing", "params": {"p": 0.5}, "kraus": kraus},
        {"name": "identity", "kraus": kraus},
        {"name": "nonsense", "kraus": []},
    ):
        with pytest.raises(ValueError, match="^give either 'name' or 'kraus', not both$"):
            channel_from_dict(spec)


def test_json_rejects_keys_it_does_not_read():
    kraus = channel_to_dict(identity())["kraus"]
    for spec, key in (
        ({"kraus": kraus, "params": {"p": 2}}, "'params'"),
        ({"name": "identity", "paramz": {"p": 1}}, "'paramz'"),
        ({"name": "depolarizing", "params": {"p": 0.5}, "label": "x"}, "'label'"),
    ):
        with pytest.raises(ValueError, match=rf"^unknown channel spec key\(s\) \[{key}\]$"):
            channel_from_dict(spec)
    # Both fields at once keeps its own message, whatever else is there.
    with pytest.raises(ValueError, match="^give either 'name' or 'kraus', not both$"):
        channel_from_dict({"name": "identity", "kraus": kraus, "paramz": {}})


# ---------------------------------------------------------------------------
# Choi matrices by broadcast, against the einsum bit for bit
# ---------------------------------------------------------------------------


def _named_family_channels():
    return [
        family(p)
        for family in (depolarizing, amplitude_damping, phase_damping, bit_flip)
        for p in np.linspace(0.0, 1.0, 101)
    ]


def _padded(channels):
    """Kraus lists zero-padded to the longest, as one (n, k, 2, 2) stack."""
    ops = np.zeros((len(channels), max(len(c.kraus) for c in channels), 2, 2), dtype=complex)
    for row, c in zip(ops, channels):
        row[: len(c.kraus)] = c.kraus
    return ops


def test_bell_products_equal_the_einsum_channel_by_channel():
    for c in random_channels(9400, 400) + _named_family_channels():
        ops = np.array(c.kraus)
        for stack in (ops, ops.conj().swapaxes(-1, -2)):
            assert_bitwise_equal(_bell_products(stack), einsum_bell_products(stack))


def test_bell_products_equal_the_einsum_on_padded_mixed_rank_stacks():
    channels = random_channels(9500, 210) + _named_family_channels()
    for start in range(0, len(channels), 21):
        ops = _padded(channels[start : start + 21])
        for stack in (ops, ops.conj().swapaxes(-1, -2)):
            assert_bitwise_equal(_bell_products(stack), einsum_bell_products(stack))


def test_measured_choi_and_dual_matrices_are_each_channels_einsum():
    # _measure stacks the Choi and dagger lists together; each matrix is the
    # einsum of that channel's own, unpadded list.
    channels = random_channels(9600, 42) + [depolarizing(0.5), amplitude_damping(1.0)]
    _measure(channels)
    for c in channels:
        ops = np.array(c.kraus)
        assert_bitwise_equal(c._states["choi_matrix"], einsum_bell_products(ops))
        assert_bitwise_equal(
            c._states["dual_choi_matrix"], einsum_bell_products(ops.conj().swapaxes(-1, -2))
        )


def test_measure_stacks_a_repeated_channel_once(monkeypatch):
    stacked = []
    real = channel_module._kraus_stack

    def counting(kraus_lists):
        stacked.append(len(kraus_lists))
        return real(kraus_lists)

    monkeypatch.setattr(channel_module, "_kraus_stack", counting)
    channels = random_channels(9620, 5)
    _measure(channels + channels[::-1] + channels[:2])
    assert stacked == [5]


def test_channel_within_rounding_of_tp_keeps_its_input_choi_matrix():
    # At tp_residual <= 1e-14 the input is analyzed as given, bit for bit;
    # above it the analyzed list is the exact TP projection, kept apart.
    kept = random_channels(9610, 8) + [KrausChannel(kraus=(np.sqrt(1 + 5e-15) * I2,))]
    moved = KrausChannel(kraus=(np.sqrt(1 + 1e-13) * I2,))
    _measure(kept + [moved])
    assert 0 < validate(kept[-1]).tp_residual <= 1e-14 < validate(moved).tp_residual
    for c in kept:
        assert validate(c).tp_residual <= 1e-14 and "kraus" not in c._states
        assert_bitwise_equal(c._states["choi_matrix"], einsum_bell_products(np.array(c.kraus)))
    projected = np.array(moved._states["kraus"])
    assert np.linalg.norm((projected.conj().swapaxes(-1, -2) @ projected).sum(axis=0) - I2) <= 1e-15
    np.testing.assert_allclose(moved._states["choi_matrix"], einsum_bell_products(projected),
                               rtol=0, atol=1e-16)
    assert moved.kraus[0][0, 0] == np.sqrt(1 + 1e-13)


def test_halves_of_a_stack_are_each_channels_apply_to_half():
    # Mixed Kraus ranks, zero-padded to four: each output is bit for bit
    # its channel's own, signs of zeros included.
    channels = random_channels(9650, 60) + _named_family_channels()[::10]
    rng = np.random.default_rng(9651)
    states = np.array([random_pure(rng) for _ in channels])
    states[-1] = PHI_PLUS
    for c, state, out in zip(channels, states, _apply_to_halves(channels, states)):
        assert_bitwise_equal(out, apply_to_half(c, state))


def test_kraus_operators_of_a_stack_are_each_spectrums_read_back():
    # Each stacked read-back is the operators kraus_from_choi keeps, bit for
    # bit, then zero operators for the eigenvalues below KRAUS_CUT.
    states = choi_states(random_channels(9660, 40) + [
        identity(), depolarizing(1.0), amplitude_damping(1.0), phase_damping(0.3)])
    values = np.array([state.eig.eigenvalues for state in states])
    ops = _kraus_operators(values, np.array([state.eig.eigenvectors for state in states]))
    assert ops.shape == (len(states), 4, 2, 2) and ops.flags.c_contiguous
    for state, stack in zip(states, ops):
        alone = kraus_from_choi(state).kraus
        assert len(alone) == (state.eig.eigenvalues >= KRAUS_CUT).sum()
        assert_bitwise_equal(stack[: len(alone)], np.array(alone))
        assert not np.any(stack[len(alone):])
    assert KRAUS_CUT == 1e-12


def test_bell_products_overflow_as_the_einsum_does():
    rng = np.random.default_rng(9700)
    for count in (1, 4, 5, 9):
        g = rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))
        for scale in (1e155, 1e160, 1e300, 1e-170):
            with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                assert_bitwise_equal(_bell_products(scale * g), einsum_bell_products(scale * g))


def test_compressed_five_huge_identities_keep_their_scale():
    # Five copies of 1e155 I overflow the Choi matrix; the list is compressed
    # at 2^-exponent, the power of two that brings every part below 1.
    ops = np.array([1e155 * I2] * 5, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(einsum_bell_products(ops)).all()
    exponent = np.frexp(1e155)[1]
    small = np.ldexp(ops.view(float), -exponent).view(complex)
    assert np.abs(small.view(float)).max() < 1.0
    expected = _kraus_set(einsum_bell_products(small)).kraus
    c = channel_from_dict(_kraus_spec(ops))
    assert len(c.kraus) == len(expected) == 1
    assert_bitwise_equal(c.kraus[0], np.ldexp(expected[0].view(float), exponent).view(complex))
    assert not validate(c).ok


@pytest.mark.parametrize("scale", [1e-7, 1e-170])
def test_compressed_list_of_negligible_operators_is_the_zero_map(scale):
    # Every Choi eigenvalue of five copies of scale * I falls below the 1e-12
    # cut: the list compresses to the single zero operator, which parses and
    # fails validation like four copies do.
    c = channel_from_dict(_kraus_spec([scale * I2] * 5))
    assert len(c.kraus) == 1
    assert_bitwise_equal(c.kraus[0], np.zeros((2, 2), dtype=complex))
    report = validate(c)
    assert not report.ok and report.tp_residual == np.sqrt(2.0)


# ---------------------------------------------------------------------------
# Seeded property tests of the JSON wire format
# ---------------------------------------------------------------------------


def _isometry_kraus(rng, count):
    """``count`` Kraus operators from a random isometry (any count >= 1)."""
    g = rng.standard_normal((2 * count, 2)) + 1j * rng.standard_normal((2 * count, 2))
    q, _ = np.linalg.qr(g)
    return [q[2 * k : 2 * k + 2, :] for k in range(count)]


def _kraus_spec(ops):
    """Wire form of any number of Kraus operators."""
    return {
        "kraus": [[[[float(x.real), float(x.imag)] for x in row] for row in op] for op in ops]
    }


def test_json_roundtrip_of_long_kraus_lists_reproduces_choi_matrix():
    rng = np.random.default_rng(9200)
    for _ in range(40):
        ops = _isometry_kraus(rng, int(rng.integers(5, 9)))
        # The Choi matrix is additive over the Kraus set: sum it in blocks of
        # at most four operators.
        expected = sum(
            choi_matrix(KrausChannel(kraus=tuple(ops[k : k + 4])))
            for k in range(0, len(ops), 4)
        )
        back = channel_from_dict(json.loads(json.dumps(_kraus_spec(ops))))
        assert len(back.kraus) <= 4
        assert validate(back).ok
        np.testing.assert_allclose(choi_matrix(back), expected, atol=1e-12)


# Replacements for one real or imaginary part that no parser may accept.
_BAD_PARTS = [
    "0.5", None, [0.5], {"re": 0.5}, True, False,
    float("nan"), float("inf"), -float("inf"), 10**400, json.loads("1e400"),
]


def _malformed_spec(rng):
    """A valid Kraus spec of 1-8 operators with one seeded defect."""
    ops = _kraus_spec(_isometry_kraus(rng, int(rng.integers(1, 9))))["kraus"]
    j = int(rng.integers(len(ops)))
    op = ops[j]
    i, k = (int(v) for v in rng.integers(2, size=2))
    kind = int(rng.integers(7))
    if kind == 0:  # a part replaced by a non-number, boolean or non-finite value
        op[i][k][int(rng.integers(2))] = _BAD_PARTS[int(rng.integers(len(_BAD_PARTS)))]
    elif kind == 1:  # an entry nested one level too deep
        op[i][k] = [op[i][k]]
    elif kind == 2:  # an entry that is a bare number, not a pair
        op[i][k] = op[i][k][0]
    elif kind == 3:  # a row with a third entry
        op[i].append([0.0, 0.0])
    elif kind == 4:  # a pair with a third part
        op[i][k].append(0.0)
    elif kind == 5:  # an operator that is a flat list of numbers
        ops[j] = [x for row in op for pair in row for x in pair]
    else:  # the whole operator list nested one level too deep
        ops = [ops]
    return {"kraus": ops}


def test_json_malformed_kraus_specs_raise_value_error():
    rng = np.random.default_rng(9300)
    for _ in range(300):
        spec = _malformed_spec(rng)
        with pytest.raises(ValueError):
            channel_from_dict(spec)
