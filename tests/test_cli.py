import csv
import dataclasses
import importlib
import json
import math
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from singletopt import cli, locc, oneshot
from singletopt.channel import (
    apply,
    channel_from_dict,
    channel_to_dict,
    depolarizing,
    is_unital,
    named_channel,
    random_channel,
    validate,
)
from singletopt.choi import choi
from singletopt.linalg import I2
from singletopt.entmetrics import negativity, teleportation_fidelity
from singletopt.locc import fstar

from conftest import near_tp_channels

# The package re-exports the function ``choi``, which shadows the module.
choi_module = importlib.import_module("singletopt.choi")
channel_module = importlib.import_module("singletopt.channel")
linalg_module = importlib.import_module("singletopt.linalg")


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


@pytest.mark.parametrize(
    "copies, scale", [(4, 1.0), (5, 1.0), (5, 1e-7)], ids=["4", "5", "5-negligible"]
)
def test_analyze_copies_of_identity_exit_3(capsys, tmp_path, copies, scale):
    # sum A^dag A = copies scale^2 I.  A list longer than four is compressed
    # to one operator first (at 1e-7, whose Choi eigenvalues all fall below
    # the cut, the zero operator), and fails validation the same way.
    op = [[[scale, 0.0], [0.0, 0.0]], [[0.0, 0.0], [scale, 0.0]]]
    path = tmp_path / "copies.json"
    path.write_text(json.dumps({"kraus": [op] * copies}))
    code, out, err = run(["analyze", "--file", str(path)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: channel failed CPTP validation: tp_residual=")
    assert err.count("\n") == 1
    residual = float(err.split("tp_residual=")[1].split(",")[0])
    assert residual == pytest.approx(abs(copies * scale**2 - 1) * np.sqrt(2.0), abs=1e-12)


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


@pytest.mark.parametrize("eps, expected, sign", [
    pytest.param(5e-10, 0, -1, id="5e-10-0"), pytest.param(1e-7, 3, -1, id="1e-07-3"),
    pytest.param(5e-10, 0, 1, id="scaled-5e-10-0"), pytest.param(7e-10, 0, 1, id="scaled-7e-10-0"),
])
def test_analyze_near_tp_channel_exits_by_validate(capsys, tmp_path, eps, expected, sign):
    # sum A^dag A = I + eps Z (sign -1) or (1 + eps) I (sign 1): tp_residual
    # sqrt(2) eps, either side of 1e-9.  Accepted channels are analyzed in
    # full, as their exact TP projection, so (1 + eps) I reads F_lambda <= 1
    # while its tp row reads the input's residual; rejected ones end in exit 3.
    diagonal = np.sqrt([1 + eps, 1 + sign * eps])
    spec = {"kraus": [[[[diagonal[0], 0.0], [0.0, 0.0]], [[0.0, 0.0], [diagonal[1], 0.0]]]]}
    path = tmp_path / "near_tp.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(["analyze", "--file", str(path)], capsys)
    assert code == expected
    if expected == 0:
        assert err == ""
        assert "\n  tp: " in out
        fraction = _text_value(out, "F_lambda")
        assert _text_value(out, "f_tel") == (2 * fraction + 1) / 3
        assert fraction <= 1
        assert _text_value(out, "  tp") == pytest.approx(np.sqrt(2.0) * eps, rel=1e-3)
    else:
        assert out == ""
        assert err.startswith("error: channel failed CPTP validation: tp_residual=")


def test_analyze_validates_each_channel_once(capsys, monkeypatch):
    from singletopt import channel as channel_module

    builds = []
    original = channel_module._measure

    def counting(channels):
        builds.extend(c.describe() for c in channels if "validation" not in c._states)
        return original(channels)

    # ``validate`` and the state builder both take the stacked measurement.
    monkeypatch.setattr(channel_module, "_measure", counting)
    monkeypatch.setattr(choi_module, "_measure", counting)
    code, _, _ = run(["analyze", "--name", "amplitude_damping", "--param", "p=0.3"], capsys)
    assert code == 0
    assert builds == ["amplitude_damping(p=0.3)"]


def test_analyze_calls_validate_once(capsys, monkeypatch, tmp_path):
    # The CLI's gate is the one call; every later layer reads its report.
    calls = []
    real = channel_module.validate

    def counting(channel):
        calls.append(channel)
        return real(channel)

    # Every module of the package that holds ``validate`` by name.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "singletopt" and getattr(module, "validate", None) is real:
            monkeypatch.setattr(module, "validate", counting)
    path = tmp_path / "near_tp.json"
    path.write_text(json.dumps(channel_to_dict(near_tp_channels()[0])))
    for argv in (["--name", "amplitude_damping", "--param", "p=0.3"], ["--file", str(path)]):
        for fmt in ("text", "json"):
            calls.clear()
            code, _, _ = run(["analyze", *argv, "--format", fmt], capsys)
            assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("index", [0, 1, 2], ids=["scaled_identity", "scaled_damping", "scaled_rotation"])
def test_analyze_near_tp_file_passes_every_row(capsys, tmp_path, index):
    # The file holds the operators as given; analyze reports their tp
    # residual and every other number from their exact TP projection.
    channel = near_tp_channels()[index]
    path = tmp_path / "near_tp.json"
    path.write_text(json.dumps(channel_to_dict(channel)))
    code, out, err = run(["analyze", "--file", str(path)], capsys)
    assert code == 0 and err == ""
    assert _text_value(out, "F_lambda") <= 1
    tolerance = {row.name: row.tolerance for row in oneshot.IDENTITIES}
    rows = out.split("residuals:\n")[1].splitlines()
    assert {line.split(":")[0].strip() for line in rows} >= {"pt_spectrum_identity", "negativity_relation"}
    for line in rows:
        name, value = line.strip().split(": ")
        assert float(value) <= tolerance[name], line
    assert _text_value(out, "  tp") == float(f"{validate(channel).tp_residual:.3e}")
    code, out, _ = run(["analyze", "--file", str(path), "--format", "json"], capsys)
    payload = json.loads(out)
    assert payload["channel"] == channel_to_dict(channel)
    assert payload["report"]["F_lambda"] <= 1


@pytest.mark.parametrize("spec, key", [
    ({"kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], "params": {"p": 2}}, "params"),
    ({"name": "identity", "paramz": {"p": 1}}, "paramz"),
], ids=["kraus-params", "name-paramz"])
def test_analyze_unknown_spec_key_exits_2(capsys, tmp_path, spec, key):
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(["analyze", "--file", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: unknown channel spec key(s) ['{key}']\n"


def test_analyze_repeated_param_key_exits_2(capsys):
    code, out, err = run(["analyze", "--name", "depolarizing", "--param", "p=0.5",
                          "--param", "p=0.6"], capsys)
    assert (code, out, err) == (2, "", "error: repeated --param key 'p'\n")


@pytest.mark.parametrize("text, key", [
    ('{"name": "depolarizing", "params": {"p": 0.5, "p": 0.7}}', "p"),
    ('{"name": "depolarizing", "name": "bit_flip", "params": {"p": 0.5}}', "name"),
], ids=["params", "top-level"])
def test_analyze_repeated_json_key_exits_2(capsys, tmp_path, text, key):
    path = tmp_path / "repeated.json"
    path.write_text(text)
    code, out, err = run(["analyze", "--file", str(path)], capsys)
    assert (code, out, err) == (2, "", f"error: repeated JSON key '{key}'\n")


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


def test_analyze_deeply_nested_json_exits_2_without_traceback(tmp_path):
    # json raises RecursionError past the interpreter's nesting limit; the
    # console entry point must report it as a parse error, in one line.
    path = tmp_path / "deep.json"
    path.write_text('{"kraus": ' + "[" * 3000)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", "from singletopt.cli import entry; entry()",
         "analyze", "--file", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="platform has no SIGPIPE")
def test_closed_stdout_ends_by_sigpipe_without_traceback():
    # A reader that has gone away (``| head``, a closed pipe) must not turn
    # into exit 1, the code of an identity violation, with a traceback.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "singletopt.cli", "analyze",
             "--name", "amplitude_damping", "--param", "p=0.5"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == -signal.SIGPIPE


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


def test_sweep_empty_column_list_exits_2(tmp_path, capsys):
    out = tmp_path / "s.csv"
    for columns in (",", ",,", ""):
        code, _, err = run(
            ["sweep", "--name", "depolarizing", "--from", "0", "--to", "1",
             "--steps", "3", "--columns", columns, "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert err == "error: no columns given\n"
    assert not out.exists()


@pytest.mark.parametrize("bounds, flag", [
    (("0", "inf"), "--to"), (("-inf", "1"), "--from"), (("nan", "1"), "--from"), (("0", "nan"), "--to"),
])
def test_sweep_non_finite_bound_exits_2(bounds, flag, tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, err = run(
        ["sweep", "--name", "depolarizing", f"--from={bounds[0]}", f"--to={bounds[1]}",
         "--steps", "3", "--columns", "F_lambda", "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert err.count("\n") == 1 and err.startswith(f"error: {flag} must be finite, got ")
    assert not out.exists()


def test_sweep_too_many_steps_to_allocate_exits_2(tmp_path, capsys, monkeypatch):
    # numpy raises a MemoryError subclass for --steps 100000000000; the
    # allocation is faked here so that no large array is ever requested.
    def unallocatable(start, stop, steps):
        raise MemoryError(f"Unable to allocate {8 * steps / 2**30:.0f}. GiB for an array")

    monkeypatch.setattr(np, "linspace", unallocatable)
    out = tmp_path / "s.csv"
    code, stdout, err = run(
        ["sweep", "--name", "depolarizing", "--from", "0", "--to", "1",
         "--steps", "100000000000", "--columns", "F_lambda", "--out", str(out)],
        capsys,
    )
    assert code == 2 and stdout == ""
    assert err == "error: Unable to allocate 745. GiB for an array\n"
    assert not out.exists()


@pytest.mark.parametrize("family, column", [
    ("amplitude_damping", "N_channel"), ("depolarizing", "N_channel"),
    ("amplitude_damping", "F_lambda"), ("depolarizing", "F_lambda"),
])
def test_sweep_negative_seed_exits_2(family, column, tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "named_channel", lambda *args: built.append(args))
    out = tmp_path / "s.csv"
    code, _, err = run(
        ["sweep", "--name", family, "--from", "0", "--to", "1", "--steps", "3",
         "--columns", column, "--seed", "-5", "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert err == "error: --seed must be non-negative, got -5\n"
    assert built == [] and not out.exists()  # rejected before any row was computed


def _stacked_sweep_rows(case):
    """Makers of fresh channel objects for one case: a family at 21 steps
    over [0, 1] or 57 steps over [0.013, 0.987], or 40 random channels."""
    if case == "random":
        return [lambda k=k: random_channel(9000 + k, 1 + k % 4) for k in range(40)]
    family, steps = case.rsplit("-", 1)
    lo, hi = (0.0, 1.0) if steps == "21" else (0.013, 0.987)
    return [
        lambda p=float(p): named_channel(family, {"p": p})
        for p in np.linspace(lo, hi, int(steps))
    ]


@pytest.mark.parametrize("case", [
    f"{family}-{steps}"
    for family in ("amplitude_damping", "depolarizing", "phase_damping", "bit_flip")
    for steps in (21, 57)
] + ["random"])
def test_stacked_sweep_columns_equal_single_channel_functions(case):
    """Each stacked column equals, bit for bit, its one-channel function on
    a channel object built alone."""
    makers = _stacked_sweep_rows(case)
    ctx = oneshot.IdentityContext(make() for make in makers)
    stacked = {
        column: [float(x) for x in fn(ctx)] for column, fn in cli.SWEEP_COLUMNS.items()
    }
    for index, make in enumerate(makers):
        c = make()
        frac = oneshot.optimal_singlet_fraction(c)
        fstar_value = locc.channel_fstar(c)
        single = {
            "F_lambda": frac.value,
            "lambda_max": frac.lambda_max,
            "entanglement_breaking": float(frac.entanglement_breaking),
            "f_tel": teleportation_fidelity(frac.value),
            "F1": oneshot.preprocessed_fidelity(c),
            "N_choi": float(oneshot.choi_negativities([c])[0]),
            "N_channel": oneshot.channel_negativity(c).value,
            "fstar_choi": fstar_value,
            "gap": math.nan if frac.entanglement_breaking else frac.lambda_max - fstar_value,
            "schmidt_lambda": float(oneshot.optimal_input_state(c).schmidt.coefficients[0]),
            "unitality_deviation": is_unital(c)[1],
            "negativity_relation_residual": oneshot.negativity_relation_residual(c),
        }
        assert set(single) == set(stacked)
        for column, value in single.items():
            got = stacked[column][index]
            assert got == value or (math.isnan(got) and math.isnan(value)), (case, index, column)
        # The forms the columns replaced: a Kraus loop and a 4x4 negativity.
        assert stacked["unitality_deviation"][index] == float(np.linalg.norm(apply(c, I2) - I2))
        lam = float(choi(c).eig.eigenvalues[0])
        residual = abs(lam - 0.5 * (1.0 + negativity(choi(c).matrix)))
        assert stacked["negativity_relation_residual"][index] == residual


def test_sweep_builds_every_state_in_one_eigendecomposition(tmp_path, capsys, monkeypatch):
    shapes = []
    original = choi_module.hermitian_eig

    def counting(m, tol=1e-9):
        shapes.append(np.shape(m))
        return original(m, tol)

    monkeypatch.setattr(choi_module, "hermitian_eig", counting)
    code, _, _ = run(
        ["sweep", "--name", "amplitude_damping", "--from", "0", "--to", "1", "--steps", "21",
         "--columns", ",".join(cli.SWEEP_COLUMNS), "--out", str(tmp_path / "s.csv")],
        capsys,
    )
    assert code == 0
    assert shapes == [(42, 4, 4)]


def test_sweep_solves_fstar_and_the_choi_negativities_once(tmp_path, capsys, monkeypatch):
    # fstar_choi and gap share the context's one F* solve; N_choi and
    # negativity_relation_residual share its one negativity call.
    calls = {"fstar": [], "_negativity": []}
    for name, shapes in calls.items():
        def counting(rho, real=getattr(oneshot, name), shapes=shapes):
            shapes.append(np.shape(rho))
            return real(rho)

        monkeypatch.setattr(oneshot, name, counting)
    code, _, _ = run(
        ["sweep", "--name", "amplitude_damping", "--from", "0", "--to", "1", "--steps", "21",
         "--columns", ",".join(cli.SWEEP_COLUMNS), "--out", str(tmp_path / "s.csv")],
        capsys,
    )
    assert code == 0
    assert calls == {"fstar": [(21, 4, 4)], "_negativity": [(21, 4, 4)]}


def test_sweep_byte_identical_across_runs(tmp_path, capsys):
    args = ["sweep", "--name", "amplitude_damping", "--from", "0.05", "--to",
            "0.95", "--steps", "7", "--columns", "F_lambda,N_choi,N_channel,fstar_choi",
            "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def _reference_row(c):
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
        "N_channel": oneshot.channel_negativity(c).value,
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
        expected = _reference_row(named_channel(family, {"p": float(p)}))
        for column in columns:
            got, want = float(row[column]), expected[column]
            if column == "gap":
                assert math.isnan(got) == (expected["entanglement_breaking"] == 1.0)
                assert math.isnan(got) == math.isnan(want)
                if math.isnan(got):
                    continue
            assert got == want, (index, column, got, want)


def test_audit_small_run_passes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["audit", "--seed", "42", "--count", "8"], capsys)
    assert code == 0
    assert "audit PASSED" in out
    for row in oneshot.IDENTITIES:
        assert f"  {row.name} " in out


# The oracle row once fell 1.88e-4 short on the first channel of seed 1400631
# (a unitary channel), and the gap row failed a gap of 9.6e-7 on the fourth
# channel of seed 2800526.
@pytest.mark.parametrize("seed", ["1400631", "2800526"])
def test_audit_passes_on_former_failures(capsys, tmp_path, monkeypatch, seed):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["audit", "--seed", seed, "--count", "4"], capsys)
    assert code == 0
    assert "audit PASSED" in out.splitlines()


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
    real = oneshot._pt_spectrum_identity_residual
    monkeypatch.setattr(
        oneshot, "_pt_spectrum_identity_residual", lambda m: real(m) + 1e-3
    )
    code, out, err = run(["audit", "--seed", "42", "--count", "4"], capsys)
    assert code == 1
    assert "FAIL" in out
    repro = tmp_path / "audit-failure-pt_spectrum_identity.json"
    assert repro.exists()
    data = json.loads(repro.read_text())
    channel_from_dict(data["channel"])  # must parse back


def test_audit_unwritable_repro_exits_1_without_traceback(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    real = oneshot._pt_spectrum_identity_residual
    monkeypatch.setattr(
        oneshot, "_pt_spectrum_identity_residual", lambda m: real(m) + 1e-3
    )
    (tmp_path / "audit-failure-pt_spectrum_identity.json").mkdir()
    code, out, err = run(["audit", "--seed", "42", "--count", "4"], capsys)
    assert code == 1
    assert "error: cannot write audit-failure-pt_spectrum_identity.json: " in err
    assert "Traceback" not in err


def test_audit_fails_on_a_lower_end_the_protocol_does_not_reach(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    real = oneshot._fstar_certificate

    def raised(rho):
        cert = real(rho)
        return dataclasses.replace(cert, lower=cert.lower + 1e-9)

    monkeypatch.setattr(oneshot, "_fstar_certificate", raised)
    code, out, _ = run(["audit", "--seed", "42", "--count", "4"], capsys)
    assert code == 1
    line = next(line for line in out.splitlines() if line.startswith("  fstar_protocol "))
    assert line.endswith("FAIL")
    assert (tmp_path / "audit-failure-fstar_protocol.json").exists()


def test_audit_solves_fstar_once_per_channel(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    solved = []
    real = locc._fstar_certificate

    def counted(rho):
        solved.extend(np.asarray(rho).reshape(-1, 16).tolist())
        return real(rho)

    monkeypatch.setattr(locc, "_fstar_certificate", counted)
    monkeypatch.setattr(oneshot, "_fstar_certificate", counted)
    code, out, _ = run(["audit", "--seed", "42", "--count", "4"], capsys)
    assert code == 0
    assert len(solved) <= 4


def test_audit_solves_fstar_and_runs_the_oracle_once_over_all_channels(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    solved, searched = [], []
    real_solve, real_search = oneshot._fstar_certificate, oneshot.singlet_fraction_oracle

    def solve(rho):
        solved.append(np.shape(rho))
        return real_solve(rho)

    def search(rho, *args, **kwargs):
        searched.append(np.shape(rho))
        return real_search(rho, *args, **kwargs)

    monkeypatch.setattr(oneshot, "_fstar_certificate", solve)
    monkeypatch.setattr(oneshot, "singlet_fraction_oracle", search)
    code, out, _ = run(["audit", "--seed", "42", "--count", "4"], capsys)
    assert code == 0
    assert "audit PASSED" in out.splitlines()
    assert solved == [(4, 4, 4)]
    assert searched == [(4, 4, 4)]


def test_audit_computes_each_stacked_row_in_one_call(capsys, tmp_path, monkeypatch):
    # The rows' singlet fractions (of the Choi states and of the optimal
    # inputs' outputs), the protocol scoring and the partial-transpose
    # spectra each take the whole (4, 4, 4) stack in one call.
    monkeypatch.chdir(tmp_path)
    shapes = {"singlet_fraction": [], "protocol": [], "pt_spectrum": []}

    def recorded(key, real):
        def call(rho, *args):
            shapes[key].append(np.shape(rho))
            return real(rho, *args)
        return call

    def scored(filt, rho):
        shapes["protocol"].append(np.shape(rho))
        return real_scoring(filt, rho)

    real_scoring = locc._filter_protocol
    monkeypatch.setattr(oneshot, "_singlet_fraction",
                        recorded("singlet_fraction", oneshot._singlet_fraction))
    monkeypatch.setattr(locc, "_filter_protocol", scored)
    monkeypatch.setattr(oneshot, "_pt_spectrum_identity_residual",
                        recorded("pt_spectrum", oneshot._pt_spectrum_identity_residual))
    code, out, _ = run(["audit", "--seed", "42", "--count", "4"], capsys)
    assert code == 0
    assert "audit PASSED" in out.splitlines()
    assert shapes == {"singlet_fraction": [(4, 4, 4)] * 2, "protocol": [(4, 4, 4)],
                      "pt_spectrum": [(4, 4, 4)]}


def test_audit_failure_names_the_one_faulty_channel_of_a_stack(capsys, tmp_path, monkeypatch):
    # Only channel 2's entry of the stacked row is corrupted: the repro file
    # must name channel 2, not the stack.
    monkeypatch.chdir(tmp_path)
    real = oneshot._pt_spectrum_identity_residual

    def corrupted(sigma):
        values = real(sigma)
        return values + np.where(np.arange(len(values)) == 2, 1e-3, 0.0)

    monkeypatch.setattr(oneshot, "_pt_spectrum_identity_residual", corrupted)
    code, out, _ = run(["audit", "--seed", "42", "--count", "4"], capsys)
    assert code == 1
    lines = [line for line in out.splitlines() if line.endswith("FAIL")]
    assert len(lines) == 1 and lines[0].startswith("  pt_spectrum_identity ")
    data = json.loads((tmp_path / "audit-failure-pt_spectrum_identity.json").read_text())
    assert data["channel_index"] == 2
    assert data["channel_seed"] == 42 * 1_000_003 + 2
    assert data["residual"] > 1e-3 - 1e-10


def test_audit_decomposes_every_state_once(capsys, tmp_path, monkeypatch):
    # One batched eigendecomposition of the 4 Choi and 4 dual-Choi matrices;
    # the Kraus sets read back from the Choi states reuse their spectra.
    monkeypatch.chdir(tmp_path)
    shapes = []
    original = choi_module.hermitian_eig

    def counting(m, tol=1e-9):
        shapes.append(np.shape(m))
        return original(m, tol)

    for module in (choi_module, channel_module, linalg_module):
        monkeypatch.setattr(module, "hermitian_eig", counting)
    code, out, _ = run(["audit", "--seed", "42", "--count", "4"], capsys)
    assert code == 0
    assert "audit PASSED" in out.splitlines()
    assert shapes == [(8, 4, 4)]


def test_analyze_name_and_kraus_spec_exits_2(capsys, tmp_path):
    path = tmp_path / "both.json"
    kraus = channel_to_dict(depolarizing(0.5))["kraus"]
    spec = {"name": "depolarizing", "params": {"p": 0.5}, "kraus": kraus}
    path.write_text(json.dumps(spec))
    code, out, err = run(["analyze", "--file", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: give either 'name' or 'kraus', not both\n"


def test_channel_json_wire_format():
    # {"kraus": [...]} with [re, im] pairs, exactly as documented.
    c = depolarizing(0.5)
    data = channel_to_dict(c)
    assert set(data) == {"kraus"}
    op = np.array(data["kraus"][0])
    assert op.shape == (2, 2, 2)
    rebuilt = channel_from_dict(json.loads(json.dumps(data)))
    assert len(rebuilt.kraus) == len(c.kraus)
