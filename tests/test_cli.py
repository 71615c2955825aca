import json

import numpy as np
import pytest

from singletopt import cli
from singletopt.channel import channel_from_dict, channel_to_dict, depolarizing


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


def test_sweep_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "x.csv"
    code, _, err = run(
        ["sweep", "--name", "depolarizing", "--from", "0", "--to", "1",
         "--steps", "2", "--columns", "F_lambda", "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: ") and not out.exists()


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


def test_sweep_workers_match_serial(tmp_path, capsys):
    args = ["sweep", "--name", "phase_damping", "--from", "0", "--to", "0.8",
            "--steps", "5", "--columns", "F_lambda,N_choi", "--seed", "3"]
    a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b), "--workers", "4"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_audit_small_run_passes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["audit", "--seed", "42", "--count", "8"], capsys)
    assert code == 0
    assert "audit PASSED" in out
    assert "dual_choi_entrywise" in out


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
    real = cli.pt_spectrum_identity_residual
    monkeypatch.setattr(
        cli, "pt_spectrum_identity_residual", lambda m: real(m) + 1e-3
    )
    code, out, err = run(["audit", "--seed", "42", "--count", "4"], capsys)
    assert code == 1
    assert "FAIL" in out
    repro = tmp_path / "audit-failure-pt_spectrum_identity.json"
    assert repro.exists()
    data = json.loads(repro.read_text())
    channel_from_dict(data["channel"])  # must parse back


def test_audit_workers_match_serial(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code_a, out_a, _ = run(["audit", "--seed", "5", "--count", "6"], capsys)
    code_b, out_b, _ = run(
        ["audit", "--seed", "5", "--count", "6", "--workers", "3"], capsys
    )
    assert code_a == code_b == 0
    assert out_a == out_b


def test_channel_json_wire_format():
    # {"kraus": [...]} with [re, im] pairs, exactly as documented.
    c = depolarizing(0.5)
    data = channel_to_dict(c)
    assert set(data) == {"kraus"}
    op = np.array(data["kraus"][0])
    assert op.shape == (2, 2, 2)
    rebuilt = channel_from_dict(json.loads(json.dumps(data)))
    assert len(rebuilt.kraus) == len(c.kraus)
