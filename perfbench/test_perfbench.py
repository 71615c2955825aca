"""Tests of the benchmark itself: inputs, tracer and output checks.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

import checks
import run
from tracer import Tracer, public_functions
from workloads import SWEEP_COLUMNS, SWEEP_STEPS, WORKLOADS, Op, build_ops

CLI = run.load_program()


def _snapshot(workdir, workload, seed):
    workdir.mkdir()
    ops = build_ops(workload, seed, workdir)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    argv = [[a.replace(str(workdir), "<dir>") for a in op.argv] for op in ops]
    return argv, files


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_deterministic_for_a_seed(tmp_path, workload):
    first, second, other = (
        _snapshot(tmp_path / name, workload, seed) for name, seed in (("a", 7), ("b", 7), ("c", 8))
    )
    assert first == second
    assert first != other


def test_analyze_mix_covers_ranks_and_boundaries(tmp_path):
    ops = build_ops("analyze", 3, tmp_path)
    ranks = [len(op.kraus) for op in ops if op.argv[1] == "--file"]
    assert sorted(set(ranks)) == [1, 2, 3, 4] and len(set(ranks.count(r) for r in ranks)) == 1
    assert 0.7 <= len(ranks) / len(ops) <= 0.8
    named = {" ".join(op.argv[2:5]) for op in ops if op.argv[1] == "--name"}
    assert "depolarizing --param p=1.0" in named and "amplitude_damping --param p=0.0" in named
    assert {op.fmt for op in ops[:2]} == {"text", "json"}


# -- tracer ------------------------------------------------------------------


def _namespaces():
    """Every binding a traced function could hide behind, by identity."""
    seen = {}
    for key, module in sys.modules.items():
        if key == "singletopt" or key.startswith("singletopt."):
            for attr, value in vars(module).items():
                seen[(key, attr)] = id(value)
                if isinstance(value, dict) and not attr.startswith("__"):
                    for item_key, item in value.items():
                        seen[(key, attr, item_key)] = id(item)
    return seen


def test_tracer_covers_every_public_function_reached_and_restores(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ops = build_ops("analyze", 5, tmp_path)[:8] + build_ops("audit", 5, tmp_path)[:1]
    ops.append(Op(["sweep", "--name", "amplitude_damping", "--from", "0.2", "--to", "0.8",
                   "--steps", "2", "--columns", ",".join(SWEEP_COLUMNS),
                   "--out", str(tmp_path / "s.csv")], 2, "sweep"))
    ops.append(Op(["analyze", "--file", str(tmp_path / "missing.json")], 1, "analyze"))

    public = public_functions()
    by_code = {fn.__code__: name for name, fn in public.items()}
    before = _namespaces()
    reached = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in by_code:
            reached.add(by_code[frame.f_code])

    tracer = Tracer()
    tracer.install()
    try:
        sys.setprofile(profile)
        try:
            for op in ops:
                run.call(CLI, op.argv)
        finally:
            sys.setprofile(None)
    finally:
        tracer.uninstall()

    traced = set(tracer.function_stats())
    assert {"cli.main", "locc.fstar", "oneshot.report", "optimize.compass_search",
            "channel.channel_from_dict", "entmetrics.singlet_fraction_oracle"} <= reached
    assert reached <= traced, sorted(reached - traced)
    assert _namespaces() == before
    for name, fn in public_functions().items():
        assert fn is public[name] and not hasattr(fn, "__traced__")


def test_tracer_self_time_and_parents():
    tracer = Tracer()
    tracer.install()
    try:
        run.call(CLI, run.WARMUP_ARGV)
    finally:
        tracer.uninstall()
    stats = tracer.function_stats()
    a = tracer.arrays()
    assert stats["cli.main"]["calls"] == 1 and a["parent"][0] == -1
    assert (a["parent"][1:] >= 0).all() and (a["self"] >= -1e-9).all()
    total_self = sum(entry["self_s"] for entry in stats.values())
    assert total_self == pytest.approx(stats["cli.main"]["busy_s"], rel=1e-9)
    assert stats["choi.choi"]["calls"] + stats["choi.dual_choi"]["calls"] == 8


def test_kernel_samples_leave_the_spans_they_interrupted():
    class Sampler:  # one 1 s kernel sample inside both spans; machine at half speed
        at, took = [3.0], [1.0]

        def factor(self, start, end):
            return 0.5

    tracer = Tracer()
    outer, inner = tracer._intern("m.outer"), tracer._intern("m.inner")
    tracer.current_op = 0
    i = tracer._open(outer)
    j = tracer._open(inner)
    tracer._close(j, inner, 2.0, 6.0)
    tracer._close(i, outer, 0.0, 10.0)
    dur = run.reference_durations(tracer, Sampler(), [(0.0, 10.0)])
    assert dur.tolist() == [4.5, 1.5]
    stats = tracer.function_stats(dur)
    assert stats["m.outer"]["self_s"] == 3.0 and stats["m.inner"]["self_s"] == 1.5


def test_layer_metrics_match_benchmark_json():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    tracer = Tracer()
    tracer.install()
    try:
        run.call(CLI, run.WARMUP_ARGV)
    finally:
        tracer.uninstall()
    metrics, _ = run.layer_metrics(tracer, tracer.arrays()["dur"], 1, 1.0)
    assert {name: unit for name, (_, unit) in metrics.items()} == {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize(
    "kwargs, expected",
    [
        ({"max_evals": None, "max_iters": 400}, "tol"),
        ({"max_evals": 60, "max_iters": 400}, "budget"),
        ({"max_evals": None, "max_iters": 3}, "max_iters"),
    ],
)
def test_stop_reason_is_inferred(kwargs, expected):
    optimize = sys.modules["singletopt.optimize"]
    spec = optimize.SearchSpec.build(2)
    x0 = np.array([[0.3, -0.2], [1.0, 1.0]])
    peak = (lambda x: -((x - 0.5) ** 2).sum(axis=1)) if expected != "max_iters" else (lambda x: x.sum(axis=1))
    tracer = Tracer()
    tracer.install()
    try:
        optimize.compass_search(peak, x0, spec, **kwargs)
    finally:
        tracer.uninstall()
    ((_, evals, reason),) = tracer.searches
    assert reason == expected
    assert evals == 2 + 8 * (tracer.function_stats()["optimize.compass_search.objective"]["calls"] - 1)


# -- output checks -----------------------------------------------------------


def _analyze(tmp_path, fmt):
    op = next(op for op in build_ops("analyze", 11, tmp_path) if op.fmt == fmt and len(op.kraus) == 3)
    rc, out, _, _ = run.call(CLI, op.argv)
    assert rc == 0
    return op, out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_analyze_check_rejects_shifted_f_lambda(tmp_path, fmt):
    op, out = _analyze(tmp_path, fmt)
    assert checks.check_analyze(0, out, fmt, op.kraus) == []
    value = checks.parse_analyze(out, fmt)["F_lambda"]
    if fmt == "json":
        payload = json.loads(out)
        payload["report"]["F_lambda"] = value + 1e-6
        tampered = json.dumps(payload)
    else:
        tampered = out.replace(f"F_lambda: {value!r}", f"F_lambda: {value + 1e-6!r}")
    assert tampered != out
    assert checks.check_analyze(0, tampered, fmt, op.kraus)
    assert checks.check_analyze(2, out, fmt, op.kraus)


def test_sweep_check_rejects_changed_byte(tmp_path):
    op = build_ops("sweep", 4, tmp_path)[1]  # depolarizing: has entanglement-breaking rows
    rc, _, _, _ = run.call(CLI, op.argv)
    text = (tmp_path / "sweep-depolarizing.csv").read_text()
    assert rc == 0
    assert checks.check_sweep(0, text, op.family, SWEEP_COLUMNS, SWEEP_STEPS) == (SWEEP_STEPS, [])

    row = text.splitlines()[3].split(",")
    digits = row[1]  # F_lambda; change its 1e-5 digit
    row[1] = digits[:6] + ("1" if digits[6] != "1" else "2") + digits[7:]
    lines = text.splitlines()
    lines[3] = ",".join(row)
    tampered = "\n".join(lines) + "\n"
    assert sum(a != b for a, b in zip(tampered, text)) == 1
    passed, errors = checks.check_sweep(0, tampered, op.family, SWEEP_COLUMNS, SWEEP_STEPS)
    assert errors and passed < SWEEP_STEPS

    # A changed byte anywhere in a repeated call fails the byte-identity check.
    unchecked = text[:-2] + ("0" if text[-2] != "0" else "1") + "\n"
    checker = run.Checker()
    for csv_text in (text, unchecked):
        (tmp_path / "sweep-depolarizing.csv").write_text(csv_text)
        checker.check(op, 0, "", "")
    assert (checker.passed, checker.failed) == (SWEEP_STEPS, 1)
    assert checks.check_sweep(0, "\n".join(text.splitlines()[:-1]) + "\n", op.family,
                              SWEEP_COLUMNS, SWEEP_STEPS)[0] == 0


def test_failed_first_sweep_does_not_fail_later_calls(tmp_path):
    op = build_ops("sweep", 4, tmp_path)[0]
    checker = run.Checker()
    checker.check(op, 1, "", "")
    for _ in range(2):
        assert run.call(CLI, op.argv)[0] == 0
        checker.check(op, 0, "", "")
    assert (checker.passed, checker.failed) == (2 * SWEEP_STEPS, 1)


def test_audit_check_requires_pass_line(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    op = build_ops("audit", 9, tmp_path)[0]
    rc, out, _, _ = run.call(CLI, op.argv)
    assert checks.check_audit(rc, out) == []
    assert checks.check_audit(rc, out.replace("audit PASSED", "audit FAILED"))
    assert checks.check_audit(1, out)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) == (None, None)
    value, pct = run.tail(list(range(100)))
    assert value == 89 and pct == pytest.approx(90.0)
