"""Seeded inputs for the three workloads.

Each workload turns the benchmark seed into a cyclic list of operations,
one ``cli.main`` argv each.  The program sees only these generated inputs.

* ``analyze``: 48 Kraus JSON files (12 per Kraus rank 1-4, written at
  set-up) and 16 named-constructor specs at interior and boundary
  parameters, so tied spectra and entanglement-breaking channels occur.
  Output alternates between text and json.  Runs the closed-form stack
  alone; no search runs.
* ``sweep``: ``sweep --steps 21`` over p in [0, 1] with every column,
  rotating through four channel families.  Dominated by ``fstar`` and by
  ``compass_search`` under ``channel_negativity``; no oracle runs.
* ``audit``: ``audit --count 4`` with a fresh derived seed per operation,
  so Kraus ranks 1-4 appear equally.  The only workload that runs the
  oracles; ``channel_negativity`` does not run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import named_kraus

WORKLOADS = ("analyze", "sweep", "audit")

KRAUS_FILES_PER_RANK = 12
SWEEP_STEPS = 21
SWEEP_FAMILIES = ("amplitude_damping", "depolarizing", "phase_damping", "bit_flip")
SWEEP_COLUMNS = (
    "F_lambda", "lambda_max", "entanglement_breaking", "f_tel", "F1", "N_choi",
    "N_channel", "fstar_choi", "gap", "schmidt_lambda", "unitality_deviation",
    "negativity_relation_residual",
)
AUDIT_COUNT = 4  # a multiple of 4 so every Kraus rank appears equally


@dataclass
class Op:
    """One closed-loop operation: a ``cli.main`` argv plus what checks it."""

    argv: list
    items: int
    kind: str  # "analyze", "sweep" or "audit"
    fmt: str = ""  # analyze output format
    kraus: list = field(default_factory=list)  # analyze: operators the output is checked against
    family: str = ""  # sweep: channel family
    out: str = ""  # sweep: CSV path


def random_kraus(rng: np.random.Generator, rank: int) -> list:
    """Kraus operators sliced from a random isometry C^2 -> C^2 (x) C^rank."""
    g = rng.standard_normal((2 * rank, 2)) + 1j * rng.standard_normal((2 * rank, 2))
    q, _ = np.linalg.qr(g)
    return [q[2 * k : 2 * k + 2, :] for k in range(rank)]


def _named_specs(rng: np.random.Generator) -> list:
    """16 (name, p) pairs: boundary values plus seeded interior ones."""
    u = [float(x) for x in rng.uniform(0.05, 0.95, 8)]
    return [
        ("identity", None),
        ("depolarizing", 0.0), ("depolarizing", 2.0 / 3.0), ("depolarizing", 1.0),
        ("depolarizing", u[0]), ("depolarizing", u[1]),
        ("amplitude_damping", 0.0), ("amplitude_damping", 1.0),
        ("amplitude_damping", u[2]), ("amplitude_damping", u[3]),
        ("phase_damping", 1.0), ("phase_damping", u[4]), ("phase_damping", u[5]),
        ("bit_flip", 0.5), ("bit_flip", u[6]), ("bit_flip", u[7]),
    ]


def _pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def analyze_ops(seed: int, workdir: Path) -> list:
    """Write the Kraus files and return the analyze operations."""
    rng = np.random.default_rng([seed, 1])
    inputs = []
    for rank in (1, 2, 3, 4):
        for k in range(KRAUS_FILES_PER_RANK):
            kraus = random_kraus(rng, rank)
            path = workdir / f"kraus-r{rank}-{k:02d}.json"
            path.write_text(json.dumps({"kraus": [_pairs(a) for a in kraus]}), encoding="utf-8")
            inputs.append((["--file", str(path)], kraus))
    for name, p in _named_specs(rng):
        args = ["--name", name] + ([] if p is None else ["--param", f"p={p!r}"])
        inputs.append((args, named_kraus(name, p)))
    order = rng.permutation(len(inputs))
    ops = []
    # Formats alternate op by op; over two passes each input meets both.
    for i in range(2 * len(inputs)):
        args, kraus = inputs[order[i % len(inputs)]]
        fmt = ("text", "json")[(i + i // len(inputs)) % 2]
        ops.append(Op(["analyze", *args, "--format", fmt], 1, "analyze", fmt=fmt, kraus=kraus))
    return ops


def sweep_ops(seed: int, workdir: Path) -> list:
    ops = []
    for family in SWEEP_FAMILIES:
        out = str(workdir / f"sweep-{family}.csv")
        argv = [
            "sweep", "--name", family, "--from", "0", "--to", "1",
            "--steps", str(SWEEP_STEPS), "--columns", ",".join(SWEEP_COLUMNS),
            "--out", out, "--seed", str(seed),
        ]
        ops.append(Op(argv, SWEEP_STEPS, "sweep", family=family, out=out))
    return ops


def audit_ops(seed: int, count: int = 4096) -> list:
    """Distinct audit seeds, derived from the benchmark seed."""
    base = (seed % 2**31) * 100_003
    return [
        Op(["audit", "--seed", str(base + i), "--count", str(AUDIT_COUNT)], AUDIT_COUNT, "audit")
        for i in range(count)
    ]


def build_ops(workload: str, seed: int, workdir: Path) -> list:
    if workload == "analyze":
        return analyze_ops(seed, workdir)
    if workload == "sweep":
        return sweep_ops(seed, workdir)
    if workload == "audit":
        return audit_ops(seed)
    raise ValueError(f"unknown workload '{workload}'")
