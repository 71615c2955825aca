import csv
import json
import math

import numpy as np
import pytest

from singletopt import cli, oneshot
from singletopt.channel import (
    channel_from_dict,
    channel_to_dict,
    depolarizing,
    is_unital,
    named_channel,
)
from singletopt.choi import choi
from singletopt.entmetrics import negativity, teleportation_fidelity
from singletopt.locc import fstar


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _text_value(out, key):
    for line in out.splitlines():
        if line.startswith(f"{key}:"):
            return float(line.split(":", 1)[1].split(",")[0])
    raise KeyError(key)


def test_analyze_text(capsys):
    code, out, _ = run(
        ["analyze", "--name", "amplitude_damping", "--param", "p=0.5"], capsys
    )
    assert code == 0
    assert _text_value(out, "F_lambda") == pytest.approx(0.75, abs=1e-12)
    assert _text_value(out, "f_tel") == pytest.approx(5 / 6, abs=1e-12)
    assert _text_value(out, "N_choi") == pytest.approx(0.5, abs=1e-12)
    assert _text_value(out, "psi0_schmidt") == pytest.approx(2 / 3, abs=1e-10)


def test_analyze_identity(capsys):
    code, out, _ = run(["analyze", "--name", "identity"], capsys)
    assert code == 0
    assert _text_value(out, "F_lambda") == pytest.approx(1.0, abs=1e-12)


def test_analyze_json_roundtrip(capsys, tmp_path):
    code, out, _ = run(
        ["analyze", "--name", "amplitude_damping", "--param", "p=0.3",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["F_lambda"] == pytest.approx(0.85, abs=1e-12)

    # Re-analyze the serialized channel: numbers must match to 1e-15 rel.
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(payload["channel"]))
    code, out2, _ = run(["analyze", "--file", str(path), "--format", "json"], capsys)
    assert code == 0
    second = json.loads(out2)
    for key in ("F_lambda", "lambda_max", "f_tel", "N_choi", "F1"):
        a, b = payload["report"][key], second["report"][key]
        assert b == pytest.approx(a, rel=1e-15, abs=1e-15)


def test_analyze_invalid_channel_exits_3(capsys, tmp_path):
    bad = {
        "kraus": [
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        ]
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(["analyze", "--file", str(path)], capsys)
    assert code == 3
    assert "tp_residual" in err


@pytest.mark.parametrize("copies", [4, 5])
def test_analyze_copies_of_identity_exit_3(capsys, tmp_path, copies):
    # sum A^dag A = copies * I.  A list longer than four is compressed to one
    # operator first, and the compressed channel fails validation the same way.
    identity = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    path = tmp_path / "copies.json"
    path.write_text(json.dumps({"kraus": [identity] * copies}))
    code, out, err = run(["analyze", "--file", str(path)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: channel failed CPTP validation: tp_residual=")
    residual = float(err.split("tp_residual=")[1].split(",")[0])
    assert residual == pytest.approx((copies - 1) * np.sqrt(2.0), abs=1e-12)


@pytest.mark.parametrize("scale", [1e155, 1e200])
def test_analyze_overflowing_kraus_exits_3(capsys, tmp_path, scale):
    # Finite entries whose squares overflow: validation must fail cleanly
    # instead of handing a non-finite Choi matrix to an eigensolver.
    spec = {"kraus": [[[[scale, 0.0], [0.0, 0.0]], [[0.0, 0.0], [scale, 0.0]]]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(["analyze", "--file", str(path)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: channel failed CPTP validation: tp_residual=")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("copies", [1, 5])
@pytest.mark.parametrize("scale", [1e150, 1e155, 1e200, 1.7e308])
def test_analyze_overflowing_kraus_lists_exit_3_quietly(capsys, tmp_path, copies, scale):
    # sum A^dag A or the Choi matrix overflows (at 1e150 only the residual's
    # norm does).  A list longer than four is compressed through its Choi
    # matrix first; either way validation must reject the channel (exit 3,
    # one error line) with no numpy warning and no eigensolver error.
    op = [[[scale, 0.0], [0.0, 0.0]], [[0.0, 0.0], [scale, 0.0]]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"kraus": [op] * copies}))
    code, out, err = run(["analyze", "--file", str(path)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: channel failed CPTP validation: tp_residual=")
    assert err.count("\n") == 1


@pytest.mark.parametrize("eps, expected", [(5e-10, 0), (1e-7, 3)])
def test_analyze_near_tp_channel_exits_by_validate(capsys, tmp_path, eps, expected):
    # sum A^dag A = I + eps Z: tp_residual sqrt(2) eps, either side of 1e-9.
    # Accepted channels are analyzed in full; rejected ones end in exit 3.
    diagonal = np.sqrt([1 + eps, 1 - eps])
    spec = {"kraus": [[[[diagonal[0], 0.0], [0.0, 0.0]], [[0.0, 0.0], [diagonal[1], 0.0]]]]}
    path = tmp_path / "near_tp.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(["analyze", "--file", str(path)], capsys)
    assert code == expected
    if expected == 0:
        assert err == ""
        assert "\n  tp: " in out
    else:
        assert out == ""
        assert err.startswith("error: channel failed CPTP validation: tp_residual=")


def test_analyze_validates_each_channel_once(capsys, monkeypatch):
    from singletopt import channel as channel_module

    builds = []
    original = channel_module.choi_matrix

    def counting(c):
        builds.append(c.describe())
        return original(c)

    monkeypatch.setattr(channel_module, "choi_matrix", counting)
    code, _, _ = run(["analyze", "--name", "amplitude_damping", "--param", "p=0.3"], capsys)
    assert code == 0
    assert builds == ["amplitude_damping(p=0.3)"]


def test_analyze_parse_failure_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(["analyze", "--file", str(path)], capsys)
    assert code == 2
    code, _, err = run(["analyze", "--name", "nonsense"], capsys)
    assert code == 2
    code, _, err = run(["analyze"], capsys)
    assert code == 2


def test_analyze_malformed_kraus_json_exits_2(capsys, tmp_path):
    path = tmp_path / "malformed.json"
    for spec in (
        {"kraus": [[1, 0]]},
        {"kraus": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
        {"kraus": [[[[1, 0], [0, 0]], [[0, 0], ["a", 0]]]]},
        {"kraus": 5},
        {"name": ["depolarizing"]},
        {"name": "depolarizing", "params": [0.3]},
    ):
        path.write_text(json.dumps(spec))
        code, _, err = run(["analyze", "--file", str(path)], capsys)
        assert code == 2, spec
        assert err.startswith("error: ")
    path.write_text('{"kraus": [[[[1, 0], [0, 0]], [[0, 0], [NaN, 0]]]]}')
    code, _, err = run(["analyze", "--file", str(path)], capsys)
    assert code == 2 and "finite" in err


def test_sweep_unwritable_out_exits_2(tmp_path, capsys, monkeypatch):
    built = []
    original = cli.named_channel

    def counting(name, params=None):
        built.append(name)
        return original(name, params)

    monkeypatch.setattr(cli, "named_channel", counting)
    for out in (tmp_path / "missing-dir" / "x.csv", tmp_path):
        code, _, err = run(
            ["sweep", "--name", "depolarizing", "--from", "0", "--to", "1",
             "--steps", "2", "--columns", "F_lambda", "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: cannot write --out")
    assert not (tmp_path / "missing-dir").exists()
    assert built == []  # rejected before any row was computed


def test_sweep_failing_row_keeps_existing_out(tmp_path, capsys):
    out = tmp_path / "x.csv"
    out.write_text("old\n")
    code, _, err = run(
        ["sweep", "--name", "depolarizing", "--from", "0", "--to", "2",
         "--steps", "3", "--columns", "F_lambda", "--out", str(out)],
        capsys,
    )
    assert code == 2 and "[0, 1]" in err
    assert out.read_text() == "old\n"


def test_usage_error_exits_2(capsys):
    assert cli.main(["analyze", "--format", "yaml"]) == 2


def test_sweep_basic(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(
        ["sweep", "--name", "amplitude_damping", "--from", "0", "--to", "1",
         "--steps", "11", "--columns", "F_lambda,N_choi,N_channel",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "param,F_lambda,N_choi,N_channel"
    assert len(lines) == 12
    row = dict(zip(lines[0].split(","), lines[6].split(",")))  # p = 0.5
    assert float(row["param"]) == pytest.approx(0.5)
    assert float(row["F_lambda"]) == pytest.approx(0.75, abs=1e-12)
    assert float(row["N_choi"]) == pytest.approx(0.5, abs=1e-12)
    # Best output negativity strictly beats the untouched Choi state.
    assert float(row["N_channel"]) > 0.5 + 1e-4


def test_sweep_two_steps(tmp_path, capsys):
    out = tmp_path / "two.csv"
    code, _, _ = run(
        ["sweep", "--name", "depolarizing", "--from", "0.1", "--to", "0.2",
         "--steps", "2", "--columns", "F_lambda", "--out", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3


def test_sweep_depolarizing_floor(tmp_path, capsys):
    out = tmp_path / "dep.csv"
    code, _, _ = run(
        ["sweep", "--name", "depolarizing", "--from", "0", "--to", "1",
         "--steps", "6", "--columns", "F_lambda,lambda_max", "--out", str(out)],
        capsys,
    )
    assert code == 0
    for line in out.read_text().splitlines()[1:]:
        p, f, lam = (float(x) for x in line.split(","))
        assert lam == pytest.approx(1 - 3 * p / 4, abs=1e-12)
        assert f == pytest.approx(max(0.5, 1 - 3 * p / 4), abs=1e-12)


def test_sweep_unknown_column_exits_2(tmp_path, capsys):
    code, _, err = run(
        ["sweep", "--name", "depolarizing", "--from", "0", "--to", "1",
         "--steps", "2", "--columns", "bogus", "--out", str(tmp_path / "x.csv")],
        capsys,
    )
    assert code == 2
    assert "available" in err and "F_lambda" in err


def test_sweep_byte_identical_across_runs(tmp_path, capsys):
    args = ["sweep", "--name", "amplitude_damping", "--from", "0.05", "--to",
            "0.95", "--steps", "7", "--columns", "F_lambda,N_choi,N_channel,fstar_choi",
            "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def _reference_row(c, seed):
    """Every sweep column of one row, from the per-channel library calls."""
    frac = oneshot.optimal_singlet_fraction(c)
    lam = float(choi(c).eig.eigenvalues[0])
    return {
        "F_lambda": frac.value,
        "lambda_max": frac.lambda_max,
        "entanglement_breaking": float(frac.entanglement_breaking),
        "f_tel": teleportation_fidelity(frac.value),
        "F1": oneshot.preprocessed_fidelity(c),
        "N_choi": negativity(choi(c).matrix),
        "N_channel": oneshot.channel_negativity(c, seed=seed).value,
        "fstar_choi": fstar(choi(c).matrix),
        "gap": math.nan if frac.entanglement_breaking else lam - fstar(choi(c).matrix),
        "schmidt_lambda": float(oneshot.optimal_input_state(c).schmidt.coefficients[0]),
        "unitality_deviation": is_unital(c)[1],
        "negativity_relation_residual": oneshot.negativity_relation_residual(c),
    }


@pytest.mark.parametrize(
    "family", ["amplitude_damping", "depolarizing", "phase_damping", "bit_flip"]
)
def test_sweep_all_columns_match_per_row_reference(family, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    columns = list(cli.SWEEP_COLUMNS)
    code, _, err = run(
        ["sweep", "--name", family, "--from", "0", "--to", "1", "--steps", "21",
         "--columns", ",".join(columns), "--out", str(out), "--seed", "7"],
        capsys,
    )
    assert code == 0, err
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 21 and list(rows[0]) == ["param"] + columns
    for index, (row, p) in enumerate(zip(rows, np.linspace(0.0, 1.0, 21))):
        assert float(row["param"]) == float(p)
        expected = _reference_row(named_channel(family, {"p": float(p)}), 7 + index)
        for column in columns:
            got, want = float(row[column]), expected[column]
            if column == "gap":
                assert math.isnan(got) == (expected["entanglement_breaking"] == 1.0)
                assert math.isnan(got) == math.isnan(want)
                if math.isnan(got):
                    continue
            if column == "N_channel":
                assert got == want, (index, column)
            else:
                assert got == want or abs(got - want) <= 1e-12, (index, column, got, want)


def test_audit_small_run_passes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["audit", "--seed", "42", "--count", "8"], capsys)
    assert code == 0
    assert "audit PASSED" in out
    for row in oneshot.IDENTITIES:
        assert f"  {row.name} " in out


def test_audit_single_channel(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["audit", "--seed", "42", "--count", "1"], capsys)
    assert code == 0


def test_audit_rejects_bad_count(capsys):
    code, _, err = run(["audit", "--count", "0"], capsys)
    assert code == 2


def test_audit_detects_injected_fault(capsys, tmp_path, monkeypatch):
    # Sanity of the harness: corrupt one identity and the audit must fail
    # and write a reproduction file.
    monkeypatch.chdir(tmp_path)
    real = oneshot.pt_spectrum_identity_residual
    monkeypatch.setattr(
        oneshot, "pt_spectrum_identity_residual", lambda m: real(m) + 1e-3
    )
    code, out, err = run(["audit", "--seed", "42", "--count", "4"], capsys)
    assert code == 1
    assert "FAIL" in out
    repro = tmp_path / "audit-failure-pt_spectrum_identity.json"
    assert repro.exists()
    data = json.loads(repro.read_text())
    channel_from_dict(data["channel"])  # must parse back


def test_channel_json_wire_format():
    # {"kraus": [...]} with [re, im] pairs, exactly as documented.
    c = depolarizing(0.5)
    data = channel_to_dict(c)
    assert set(data) == {"kraus"}
    op = np.array(data["kraus"][0])
    assert op.shape == (2, 2, 2)
    rebuilt = channel_from_dict(json.loads(json.dumps(data)))
    assert len(rebuilt.kraus) == len(c.kraus)
