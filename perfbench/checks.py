"""Independent output checks, written against plain numpy only.

Nothing here imports singletopt: every expected value is rebuilt from the
Kraus operators the benchmark generated (or from the textbook Kraus form of
a named channel), so a wrong answer from the library cannot also make its
own check pass.  Each check returns a list of error strings; empty means
the output passed.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

TOL = 1e-9
BREAKING_THRESHOLD = 0.5 + 1e-12  # Choi top eigenvalue at or below: entanglement breaking
DEGENERACY_GAP = 1e-8

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def named_kraus(name: str, p: float | None) -> list:
    """Textbook Kraus operators of the named qubit channels."""
    if name == "identity":
        return [_I2]
    if name == "depolarizing":  # rho -> (1 - p) rho + p I/2
        return [math.sqrt(1 - 3 * p / 4) * _I2] + [math.sqrt(p / 4) * s for s in (_X, _Y, _Z)]
    if name == "amplitude_damping":
        return [
            np.array([[1, 0], [0, math.sqrt(1 - p)]], dtype=complex),
            np.array([[0, math.sqrt(p)], [0, 0]], dtype=complex),
        ]
    if name == "phase_damping":
        return [
            np.array([[1, 0], [0, math.sqrt(1 - p)]], dtype=complex),
            np.array([[0, 0], [0, math.sqrt(p)]], dtype=complex),
        ]
    if name == "bit_flip":
        return [math.sqrt(1 - p) * _I2, math.sqrt(p) * _X]
    raise ValueError(f"no reference Kraus form for '{name}'")


def choi_reference(kraus) -> np.ndarray:
    """J = 1/2 sum_ij |i><j| (x) E(|i><j|), channel on the second qubit."""
    j = np.zeros((2, 2, 2, 2), dtype=complex)
    for i in range(2):
        for k in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, k] = 1.0
            j[i, :, k, :] = sum(a @ unit @ a.conj().T for a in kraus) / 2
    return j.reshape(4, 4)


def reference_values(kraus) -> dict:
    """lambda_max, F_lambda, f_tel and N_choi from an independent Choi build."""
    j = choi_reference(kraus)
    spectrum = np.linalg.eigvalsh(j)
    lam = float(spectrum[-1])
    # Partial transpose on the second qubit (same spectrum as on the first).
    pt = j.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    neg = max(0.0, -2.0 * float(np.linalg.eigvalsh(pt)[0]))
    f = max(0.5, lam)
    return {"lambda_max": lam, "F_lambda": f, "f_tel": (2 * f + 1) / 3, "N_choi": neg, "spectrum": spectrum}


def channel_properties(kraus) -> dict:
    """Properties the workload mix is recorded by."""
    j = choi_reference(kraus)
    spectrum = np.linalg.eigvalsh(j)[::-1]
    image_of_identity = sum(a @ a.conj().T for a in kraus)
    return {
        "kraus_rank": int((spectrum > 1e-12).sum()),
        "unital": bool(np.linalg.norm(image_of_identity - _I2) < 1e-9),
        "entanglement_breaking": bool(spectrum[0] <= BREAKING_THRESHOLD),
        "psi0_degenerate": bool(spectrum[0] - spectrum[1] < DEGENERACY_GAP),
    }


def _compare(errors, label, got, want, tol=TOL):
    if not abs(got - want) <= tol:
        errors.append(f"{label}: got {got!r}, expected {want!r}")


_COMPLEX = re.compile(r"([+-]\d+\.\d+)([+-]\d+\.\d+)j")


def parse_analyze(text: str, fmt: str) -> dict:
    """Pull F_lambda, lambda_max, f_tel, N_choi and psi0 out of an output."""
    if fmt == "json":
        rep = json.loads(text)["report"]
        psi0 = [complex(re_, im) for re_, im in rep["psi0"]]
        return {k: float(rep[k]) for k in ("F_lambda", "lambda_max", "f_tel", "N_choi")} | {"psi0": psi0}
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    out = {k: float(fields[k]) for k in ("F_lambda", "lambda_max", "f_tel", "N_choi")}
    out["psi0"] = [complex(float(a), float(b)) for a, b in _COMPLEX.findall(fields["psi0"])]
    return out


def check_analyze(rc: int, text: str, fmt: str, kraus) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        got = parse_analyze(text, fmt)
    except (KeyError, ValueError, TypeError) as exc:
        return [f"unparseable output: {exc!r}"]
    want = reference_values(kraus)
    errors = []
    for key in ("lambda_max", "F_lambda", "f_tel", "N_choi"):
        _compare(errors, key, got[key], want[key])
    if len(got["psi0"]) != 4:
        errors.append(f"psi0 has {len(got['psi0'])} components")
    else:
        _compare(errors, "|psi0|", float(np.linalg.norm(got["psi0"])), 1.0)
    return errors


def check_sweep(rc: int, text: str | None, family: str, columns, steps: int) -> tuple[int, list]:
    """Rows that pass, and the errors, for one sweep CSV."""
    if rc != 0 or text is None:
        return 0, [f"exit code {rc}"]
    lines = text.splitlines()
    if lines[:1] != ["param," + ",".join(columns)]:
        return 0, ["unexpected CSV header"]
    rows = lines[1:]
    errors = [] if len(rows) == steps else [f"{len(rows)} rows, expected {steps}"]
    passed = 0
    for n, line in enumerate(rows):
        row_errors = []
        try:
            values = dict(zip(["param", *columns], (float(x) for x in line.split(","))))
            if len(values) != len(columns) + 1:
                raise ValueError("wrong number of fields")
        except ValueError as exc:
            errors.append(f"row {n}: {exc}")
            continue
        want = reference_values(named_kraus(family, values["param"]))
        _compare(row_errors, "F_lambda", values["F_lambda"], want["F_lambda"])
        _compare(row_errors, "N_choi", values["N_choi"], want["N_choi"])
        if not 0.5 <= values["fstar_choi"] <= values["F_lambda"] + TOL:
            row_errors.append(f"fstar_choi {values['fstar_choi']!r} outside [1/2, F_lambda]")
        if not values["N_channel"] >= values["N_choi"] - TOL:
            row_errors.append(f"N_channel {values['N_channel']!r} below N_choi")
        breaking = want["lambda_max"] <= BREAKING_THRESHOLD
        if math.isnan(values["gap"]) != breaking:
            row_errors.append(f"gap {values['gap']!r} but entanglement_breaking={breaking}")
        if row_errors:
            errors.extend(f"row {n}: {e}" for e in row_errors)
        else:
            passed += 1
    return (passed if len(rows) == steps else 0), errors


def check_audit(rc: int, text: str) -> list:
    errors = [] if rc == 0 else [f"exit code {rc}"]
    if "audit PASSED" not in text.splitlines():
        errors.append("no 'audit PASSED' line")
    return errors
