"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from singletopt import cli
from singletopt.channel import (
    amplitude_damping,
    apply_to_half,
    choi_matrix,
    is_unital,
    kraus_from_choi,
)
from singletopt.choi import choi, dual_choi
from singletopt.entmetrics import (
    negativity,
    pt_spectrum_identity_residual,
    singlet_fraction,
    singlet_fraction_oracle,
)
from singletopt.linalg import PHI_PLUS, swap_conjugate
from singletopt.locc import fstar, postprocessing_gap
from singletopt.oneshot import (
    ENTANGLEMENT_BREAKING_THRESHOLD,
    channel_negativity,
    optimal_input_state,
)

from conftest import (
    fstar_filter_oracle,
    preprocessed_fidelity_oracle,
    random_channels,
    random_density,
    random_pauli_mixture,
)


def _criterion(num, description, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def thousand_channels():
    return random_channels(4242, 1000)


def _non_breaking(c):
    return float(choi(c).eig.eigenvalues[0]) > ENTANGLEMENT_BREAKING_THRESHOLD


def test_criterion_1_amplitude_damping_optimal_input():
    worst_schmidt = worst_value = worst_excess = 0.0
    slowest = 0.0
    for p in (0.1, 0.3, 0.5, 0.9):
        start = time.perf_counter()
        c = amplitude_damping(p)
        inp = optimal_input_state(c)
        expected = np.array([1 / (2 - p), (1 - p) / (2 - p)])
        worst_schmidt = max(
            worst_schmidt, np.abs(inp.schmidt.coefficients - expected).max()
        )
        lam = float(choi(c).eig.eigenvalues[0])
        worst_value = max(worst_value, abs(lam - (1 - p / 2)))
        value, _ = singlet_fraction(apply_to_half(c, inp.state))
        worst_value = max(worst_value, abs(value - lam))
        oracle = preprocessed_fidelity_oracle(c)
        worst_excess = max(worst_excess, oracle - lam)
        slowest = max(slowest, time.perf_counter() - start)
    _criterion(
        1,
        "amplitude damping optimal input and fraction",
        worst_schmidt < 1e-9
        and worst_value < 1e-9
        and worst_excess < 1e-6
        and slowest < 1.0,
        f"schmidt {worst_schmidt:.1e}, value {worst_value:.1e}, "
        f"oracle excess {worst_excess:.1e}, slowest point {slowest:.2f}s",
    )


def test_criterion_2_amplitude_damping_negativities():
    start = time.perf_counter()
    worst = 0.0
    min_margin = np.inf
    for p in np.linspace(0.05, 0.95, 50):
        c = amplitude_damping(p)
        n_bell = negativity(choi(c).matrix)
        worst = max(worst, abs(n_bell - (np.sqrt(p * p / 4 + 1 - p) - p / 2)))
        state = np.zeros(4, dtype=complex)
        state[0] = 1 / np.sqrt(2 - p)
        state[3] = np.sqrt((1 - p) / (2 - p))
        n_witness = negativity(apply_to_half(c, state))
        formula = (1 - p) / (2 - p) * (np.sqrt(p * p + 4) - p)
        worst = max(worst, abs(n_witness - formula))
        n_channel = channel_negativity(c).value
        min_margin = min(min_margin, n_channel - n_bell)
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        "amplitude damping negativity closed forms and strict ordering",
        worst < 1e-9 and min_margin > 1e-4 and elapsed < 5.0,
        f"formula residual {worst:.1e}, min margin {min_margin:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_pt_spectrum_identity(thousand_channels):
    start = time.perf_counter()
    worst = max(
        abs(pt_spectrum_identity_residual(choi(c).matrix))
        for c in thousand_channels
    )
    elapsed = time.perf_counter() - start
    _criterion(
        3,
        "partial-transpose spectrum identity on 1000 random channels",
        worst < 1e-10 and elapsed < 10.0,
        f"max residual {worst:.1e}, {elapsed:.1f}s",
    )


def test_criterion_4_dual_choi_identity(thousand_channels):
    worst_entry = worst_spec = 0.0
    for c in thousand_channels:
        forward = choi(c)
        backward = dual_choi(c)
        worst_entry = max(
            worst_entry,
            np.abs(backward.matrix - swap_conjugate(forward.matrix)).max(),
        )
        worst_spec = max(
            worst_spec,
            np.abs(backward.eig.eigenvalues - forward.eig.eigenvalues).max(),
        )
    _criterion(
        4,
        "dual Choi equals swap-conjugate, spectra agree (1000 channels)",
        worst_entry < 1e-12 and worst_spec < 1e-10,
        f"entrywise {worst_entry:.1e}, spectrum {worst_spec:.1e}",
    )


def test_criterion_5_negativity_relation(thousand_channels):
    worst = 0.0
    n_checked = 0
    for c in thousand_channels:
        state = choi(c)
        lam = float(state.eig.eigenvalues[0])
        if lam <= ENTANGLEMENT_BREAKING_THRESHOLD:
            continue
        n_checked += 1
        worst = max(worst, abs(lam - 0.5 * (1 + negativity(state.matrix))))
    _criterion(
        5,
        "lambda_max = (1 + N)/2 on non-breaking sampled channels",
        worst < 1e-10 and n_checked > 100,
        f"max residual {worst:.1e} over {n_checked} channels",
    )


def test_criterion_6_triple_equality():
    channels = [
        c
        for c in random_channels(6006, 260)
        if _non_breaking(c) and not optimal_input_state(c).degenerate
    ][:100]
    assert len(channels) == 100
    worst = 0.0
    for k, c in enumerate(channels):
        lam = float(choi(c).eig.eigenvalues[0])
        inp = optimal_input_state(c)
        out = apply_to_half(c, inp.state)
        value, _ = singlet_fraction(out)
        worst = max(worst, abs(value - lam))
        oracle = fstar_filter_oracle(out, seed=k).fstar_value
        worst = max(worst, abs(oracle - lam))
    rng = np.random.default_rng(606)
    worst_excess = -np.inf
    for k, c in enumerate(channels[:20]):
        lam = float(choi(c).eig.eigenvalues[0])
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        oracle = fstar_filter_oracle(apply_to_half(c, v), seed=1000 + k).fstar_value
        worst_excess = max(worst_excess, oracle - lam)
    _criterion(
        6,
        "triple equality F(out(psi0)) = F*_oracle = lambda_max on 100 channels",
        worst < 1e-5 and worst_excess < 1e-5,
        f"max residual {worst:.1e}, max oracle excess on other inputs {worst_excess:.1e}",
    )


def test_criterion_7_unitality_classification():
    rng = np.random.default_rng(7007)
    worst_unital = 0.0
    for _ in range(100):
        c = random_pauli_mixture(rng, min_gap=1e-6)
        inp = optimal_input_state(c)
        worst_unital = max(worst_unital, abs(inp.schmidt.coefficients[0] - 0.5))
    nonunital = [
        c
        for c in random_channels(7100, 160)
        if is_unital(c)[1] > 1e-3 and not optimal_input_state(c).degenerate
    ][:100]
    assert len(nonunital) == 100
    min_excess = min(
        optimal_input_state(c).schmidt.coefficients[0] - 0.5 for c in nonunital
    )
    _criterion(
        7,
        "optimal input maximally entangled iff unital (100 + 100 channels)",
        worst_unital < 1e-7 and min_excess > 1e-9,
        f"unital deviation {worst_unital:.1e}, nonunital min excess {min_excess:.2e}",
    )


def test_criterion_8_postprocessing_gap():
    nonunital = [
        c
        for c in random_channels(8008, 260)
        if _non_breaking(c) and is_unital(c)[1] > 1e-2
    ][:100]
    assert len(nonunital) == 100
    min_gap = min(postprocessing_gap(c)[0] for c in nonunital)

    rng = np.random.default_rng(808)
    worst_unital = 0.0
    count = 0
    while count < 100:
        c = random_pauli_mixture(rng, min_gap=1e-6)
        if not _non_breaking(c):
            continue
        worst_unital = max(worst_unital, abs(postprocessing_gap(c)[0]))
        count += 1
    _criterion(
        8,
        "gap strictly positive iff nonunital (100 + 100 channels)",
        min_gap > 1e-6 and worst_unital < 1e-6,
        f"nonunital min gap {min_gap:.2e}, unital max |gap| {worst_unital:.1e}",
    )


def test_criterion_9_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(9009)
    worst_fstar = worst_grid = 0.0
    for k in range(200):
        rho = random_density(rng, rank=int(rng.integers(1, 5)))
        worst_fstar = max(
            worst_fstar,
            abs(fstar(rho) - fstar_filter_oracle(rho, seed=k).fstar_value),
        )
        closed, _ = singlet_fraction(rho)
        pre = singlet_fraction_oracle(rho, resolution_deg=2.0, refine=False)
        worst_grid = max(worst_grid, abs(closed - pre))
    elapsed = time.perf_counter() - start
    _criterion(
        9,
        "fstar vs filter oracle (1e-4) and fraction vs 2-degree grid (1e-3), 200 states",
        worst_fstar < 1e-4 and worst_grid < 1e-3 and elapsed < 120.0,
        f"fstar {worst_fstar:.1e}, grid {worst_grid:.1e}, {elapsed:.0f}s",
    )


def test_criterion_10_kraus_extraction():
    worst_gram = worst_round = 0.0
    for c in random_channels(1010, 200):
        j = choi_matrix(c)
        extracted = kraus_from_choi(j)
        weights = [p for p in np.linalg.eigvalsh(j)[::-1] if p > 1e-12]
        gram = np.array(
            [
                [np.trace(a.conj().T @ b) for b in extracted.kraus]
                for a in extracted.kraus
            ]
        )
        worst_gram = max(
            worst_gram, np.abs(gram - np.diag([2 * p for p in weights])).max()
        )
        worst_round = max(worst_round, np.abs(choi_matrix(extracted) - j).max())
    _criterion(
        10,
        "trace-orthogonal Kraus extraction and Choi round trip (200 channels)",
        worst_gram < 1e-9 and worst_round < 1e-9,
        f"gram {worst_gram:.1e}, round trip {worst_round:.1e}",
    )


def test_criterion_11_cli_end_to_end(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code = cli.main(["audit", "--seed", "42", "--count", "100"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()

    args = [
        "sweep", "--name", "amplitude_damping", "--from", "0", "--to", "1",
        "--steps", "21", "--columns", "F_lambda,N_choi,N_channel", "--seed", "11",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = cli.main(args + ["--out", str(a)])
    code_b = cli.main(args + ["--out", str(b)])
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    with capsys.disabled():
        _criterion(
            11,
            "CLI audit passes in time and sweep is byte-identical",
            code == 0
            and elapsed < 60.0
            and code_a == code_b == 0
            and identical,
            f"audit exit {code} in {elapsed:.0f}s, sweeps identical: {identical}",
        )
