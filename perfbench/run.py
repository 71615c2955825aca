"""singletopt benchmark: closed-loop workloads through ``cli.main``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One client drives ``singletopt.cli.main(argv)`` in-process, serially, at the
default ``--workers 1``: each operation starts when the previous one ends.
Inputs come from ``--seed`` only (see ``workloads.py``).  Every output is
checked against an independent numpy computation (``checks.py``) right
after its call, outside its timed span; a failed check counts against the
run and never stops it, and only counts are kept.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end ones; with ``--trace 1`` the same workload runs under the
outside-in tracer (``tracer.py``) and the metrics are per layer.  Lines
before it, starting with ``#``, give the same numbers for people, plus the
tail latency, failure ratio, workload mix and environment.  ``--workload
all`` runs every workload untraced and traced in child processes, prints
one table with the tracing overhead and writes ``perfbench/out/``.

The program is always imported from ``src/`` next to this directory; the
run fails (nonzero exit, no result line) when that source is missing.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: the operations are 4x4 matrices, and a thread pool on a
# shared machine would measure the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
from tracer import OBJECTIVE_SPAN, ROOT_SPAN, TRACED_MODULES, Tracer  # noqa: E402
from workloads import SWEEP_COLUMNS, SWEEP_STEPS, WORKLOADS, build_ops, named_kraus  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
WARMUP_ARGV = ["analyze", "--name", "amplitude_damping", "--param", "p=0.5"]
WALL_CAP = 1.4  # no new pass over the inputs starts after this many times --seconds of wall time


def load_program():
    """Import ``singletopt.cli`` from this checkout's ``src/`` and nowhere else."""
    package = SRC / "singletopt"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: singletopt sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import singletopt.cli

    if Path(singletopt.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported singletopt from {singletopt.__file__}, not {package}")
    return singletopt.cli


def call(cli, argv):
    """Run ``cli.main(argv)``; returns (exit code or None, stdout, error, (start, end))."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t = time.perf_counter()
        try:
            rc = cli.main(argv)
            error = None
        except Exception as exc:  # an operation that raises is a failed operation
            rc, error = None, repr(exc)
        end = time.perf_counter()
    return rc, out.getvalue(), error or err.getvalue(), (t, end)


def set_up(workload: str, seed: int):
    """Import the program, write the inputs, make one untimed warm-up call."""
    cli = load_program()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT))
    ops = build_ops(workload, seed, workdir)
    rc, _, error, _ = call(cli, WARMUP_ARGV)
    if rc != 0:
        shutil.rmtree(workdir, ignore_errors=True)
        raise SystemExit(f"error: warm-up analyze failed (exit {rc}): {error}")
    return cli, ops, workdir


def measure_setup(workload: str, seed: int) -> tuple[list, list]:
    """Set-up time of fresh processes, from script start to the first timed
    operation: (times at reference speed, raw times)."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
        wall, at_reference = proc.stdout.split()[-2:]
        raw.append(float(wall))
        scaled.append(float(at_reference))
    return scaled, raw


class Checker:
    """Checks each output as it arrives and keeps only the counts, so the
    process does not grow with the number of operations."""

    def __init__(self):
        self.passed = 0  # items
        self.failed = 0  # operations
        self.messages = []  # the first few failures
        self.first_csv = {}  # sweep argv -> bytes of its first passing CSV

    def check(self, op, rc, out, error) -> None:
        items = 0
        if rc is None:
            errors = [error]
        elif op.kind == "analyze":
            errors = checks.check_analyze(rc, out, op.fmt, op.kraus)
            items = 0 if errors else 1
        elif op.kind == "sweep":
            csv_text = Path(op.out).read_text(encoding="utf-8") if rc == 0 else None
            items, errors = checks.check_sweep(rc, csv_text, op.family, SWEEP_COLUMNS, SWEEP_STEPS)
            if not errors and self.first_csv.setdefault(tuple(op.argv), csv_text) != csv_text:
                errors.append("CSV bytes differ from the first call with the same argv")
                items = 0
        else:
            errors = checks.check_audit(rc, out)
            items = 0 if errors else op.items
        if errors:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{' '.join(op.argv[:3])}: {errors[0]}")
        self.passed += items


def run_ops(cli, ops, seconds: float, period: int, tracer=None):
    """Closed loop: start operations until they have taken ``seconds`` at
    the reference speed (see ``speed.py``), so a run does the same work
    however fast the shared machine happens to be, and then until a whole
    number of ``period`` operations has run, so every run has the same mix.
    Each output is checked right after its call, outside its timed span.

    Returns the checker, how often each operation ran, the flat (start,
    end) pairs of the operations, the wall time of the loop and the sampler.
    """
    checker = Checker()
    counts = Counter()
    spans = array("d")
    with speed.Sampler() as sampler:
        start = time.perf_counter()
        deadline = start + WALL_CAP * seconds
        done = 0.0
        i = 0
        while i == 0 or i % period or (done < seconds and time.perf_counter() < deadline):
            k = i % len(ops)
            op = ops[k]
            if op.out:
                Path(op.out).unlink(missing_ok=True)  # a CSV left by an earlier call must not pass
            if tracer is not None:
                tracer.current_op = i
            rc, out, error, span = call(cli, op.argv)
            spans.extend(span)
            done += sampler.at_reference(*span)
            checker.check(op, rc, out, error)
            counts[k] += 1
            i += 1
        elapsed = time.perf_counter() - start
        time.sleep(speed.WINDOW_S)  # let the sampler cover the last operation's window
    return checker, counts, spans, elapsed, sampler


def workload_mix(ops, counts) -> dict:
    """Share of checked items by the properties later claims may depend on."""
    rows = []  # (source, kraus operators, times run)
    for k, n in sorted(counts.items()):
        op = ops[k]
        if op.kind == "analyze":
            rows.append((op.argv[1], op.kraus, n))
        elif op.kind == "sweep":
            rows += [(op.family, named_kraus(op.family, p), n) for p in np.linspace(0.0, 1.0, SWEEP_STEPS)]
        else:
            random_channel = sys.modules["singletopt.channel"].random_channel
            audit_seed, count = int(op.argv[2]), int(op.argv[4])
            for j in range(count):  # the channels cli audit derives from its --seed
                chan_seed = (audit_seed * 1_000_003 + j) % (2**63)
                rows.append(("random", random_channel(chan_seed, j % 4 + 1).kraus, n))
    tally = Counter()
    for source, kraus, n in rows:
        props = checks.channel_properties(kraus)
        tally[f"kraus_rank_{props['kraus_rank']}"] += n
        for flag in ("unital", "entanglement_breaking", "psi0_degenerate"):
            tally[flag] += n * props[flag]
        tally[f"source_{source.lstrip('-')}"] += n
    total = sum(n for *_, n in rows)
    return {"items": total} | {k: round(v / total, 4) for k, v in sorted(tally.items())}


def tail(latencies_ms):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    n = len(latencies_ms)
    if n <= TAIL_BEYOND:
        return None, None
    ordered = sorted(latencies_ms)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def reference_durations(tracer: Tracer, sampler, spans) -> np.ndarray:
    """Each traced span's duration at the reference speed, without the
    kernel samples that ran inside it, so a function's time moves only with
    its own cost.  ``spans`` holds each operation's (start, end)."""
    start, end = tracer.bounds()
    dur = end - start
    for at, took in zip(sampler.at, sampler.took):
        dur[(start <= at) & (end >= at + took)] -= took
    factor = np.array([sampler.factor(a, b) for a, b in spans])
    return dur * factor[np.asarray(tracer.op, dtype=np.int64)]


def layer_metrics(tracer: Tracer, dur: np.ndarray, items: int, items_per_s: float) -> tuple[dict, dict]:
    """Per-layer metrics for the result line, and the full per-function table.

    Times are milliseconds at the reference speed and counts are per item,
    so each figure moves only with its own function's cost or call count,
    not with how many operations fit in the run.
    """
    stats = tracer.function_stats(dur)
    searches = tracer.search_stats()

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def ms_per_item(name, key):
        return (1000.0 * get(name, key) / items, "ms")

    def per_item(count):
        return (count / items, "count")

    def evals_per_call(caller):
        entry = searches.get(caller)
        return (entry["evals"] / entry["calls"] if entry else 0.0, "count")

    total = Counter()
    for entry in searches.values():
        total.update(entry)
    m = {
        "traced.items_per_s": (items_per_s, "1/s"),
        "cli.self_ms_per_item": ms_per_item(ROOT_SPAN, "self_s"),
        "choi.builds_per_item": per_item(get("choi.choi", "calls") + get("choi.dual_choi", "calls")),
        "channel.apply_to_half.calls_per_item": per_item(get("channel.apply_to_half", "calls")),
        "locc.fstar.calls_per_item": per_item(get("locc.fstar", "calls")),
        "locc.postprocessing_gap.calls_per_item": per_item(get("locc.postprocessing_gap", "calls")),
        "oneshot.channel_negativity.evals_per_call": evals_per_call("oneshot.channel_negativity"),
        "locc.fstar_filter_oracle.evals_per_call": evals_per_call("locc.fstar_filter_oracle"),
        "optimize.compass_search.evals_per_item": per_item(total["evals"]),
        "optimize.compass_search.stop_budget_per_item": per_item(total["budget"]),
        "optimize.compass_search.stop_max_iters_per_item": per_item(total["max_iters"]),
        "optimize.compass_search.stop_tol_per_item": per_item(total["tol"]),
        "optimize.compass_search.objective_ms_per_item": ms_per_item(OBJECTIVE_SPAN, "busy_s"),
        "optimize.compass_search.engine_self_ms_per_item": ms_per_item("optimize.compass_search", "self_s"),
    }
    for fn in ("linalg.hermitian_eig", "linalg.tensor_product"):
        m[f"{fn}.calls_per_item"] = per_item(get(fn, "calls"))
        m[f"{fn}.busy_ms_per_item"] = ms_per_item(fn, "busy_s")
    for fn in ("linalg.hermitian_eig", "linalg.tensor_product", "channel.apply_to_half",
               "channel.validate", "channel.channel_from_dict", "oneshot.report", "locc.fstar",
               "oneshot.channel_negativity", "locc.fstar_filter_oracle",
               "entmetrics.singlet_fraction_oracle"):
        m[f"{fn}.self_ms_per_item"] = ms_per_item(fn, "self_s")
    for fn in ("oneshot.report", "locc.fstar", "optimize.compass_search"):
        m[f"{fn}.busy_ms_per_item"] = ms_per_item(fn, "busy_s")
    # The objective compass_search evaluates counts in the optimize layer.
    by_module = Counter()
    for name, entry in stats.items():
        by_module[name.split(".", 1)[0]] += entry["self_s"]
    for module in TRACED_MODULES:
        m[f"layer.{module}.self_ms_per_item"] = (1000.0 * by_module[module] / items, "ms")
    # Shares of the operations' time, for reading which layer dominates.
    wall = get(ROOT_SPAN, "busy_s") or 1.0
    shares = {f"layer.{module}.self": 100.0 * by_module[module] / wall for module in TRACED_MODULES}
    shares |= {f"{name}.busy": 100.0 * entry["busy_s"] / wall for name, entry in stats.items()}
    shares |= {f"{name}.self": 100.0 * entry["self_s"] / wall for name, entry in stats.items()}
    return m, {"functions": stats, "searches": searches, "shares_pct": dict(sorted(shares.items()))}


def env_record() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
        "src_lines": src_lines,
    }


def emit(metrics: dict, attempted: int, failed: int) -> None:
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(line))


def run_workload(args) -> int:
    setup_scaled, setup_raw = measure_setup(args.workload, args.seed) if not args.trace else ([], [])
    cli, ops, workdir = set_up(args.workload, args.seed)
    # Whole passes over the cyclic inputs; audit inputs are each a balanced mix.
    period = 1 if args.workload == "audit" else len(ops)
    tracer = Tracer() if args.trace else None
    cwd = os.getcwd()
    os.chdir(workdir)  # audit writes any failure repro into its working directory
    try:
        if tracer is not None:
            tracer.install()
        try:
            trace_origin = time.perf_counter()
            checker, counts, spans, elapsed, sampler = run_ops(cli, ops, args.seconds, period, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    spans = list(zip(spans[::2], spans[1::2]))
    attempted = len(spans)
    items = sum(ops[k].items * n for k, n in counts.items())
    raw_ms = [1000.0 * (b - a) for a, b in spans]
    latencies = [1000.0 * sampler.at_reference(a, b) for a, b in spans]
    tail_ms, tail_pct = tail(latencies)
    # Per second of operation time at the reference speed.
    items_per_s = 1000.0 * checker.passed / sum(latencies)
    human = {
        "setup_s": statistics.median(setup_scaled) if setup_scaled else None,
        "items_per_s": items_per_s,
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_ms,
        "failed_ratio": checker.failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = human | {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "operations": attempted, "items": items, "items_passed": checker.passed,
        "latency_tail_percentile": tail_pct, "latency_samples": attempted,
        "kernel_ms_median": 1000.0 * statistics.median(sampler.passes), "kernel_samples": len(sampler.passes),
        "raw": {
            "setup_s": statistics.median(setup_raw) if setup_raw else None,
            "items_per_s": 1000.0 * checker.passed / sum(raw_ms),
            "latency_p50_ms": statistics.median(raw_ms),
            "timed_s": elapsed,
        },
        "setup_probes_s": setup_scaled,
        "mix": workload_mix(ops, counts), "env": env_record(), "errors": checker.messages,
    }
    if tracer is None:
        metrics = {
            "setup_s": (human["setup_s"], "s"),
            "items_per_s": (items_per_s, "1/s"),
            "latency_p50_ms": (human["latency_p50_ms"], "ms"),
            "peak_rss_mb": (human["peak_rss_mb"], "MB"),
        }
    else:
        dur = reference_durations(tracer, sampler, spans)
        metrics, detail["layers"] = layer_metrics(tracer, dur, items, items_per_s)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        detail["spans_file"] = str(spans.relative_to(ROOT))
        detail["spans"] = tracer.write_spans(spans, trace_origin)
    for name, value in human.items():
        print(f"# {name}: {value}")
    if tail_ms is not None:
        print(f"#   tail is p{tail_pct:.2f} of {attempted} samples")
    print(f"# raw (wall clock, not speed-corrected): {json.dumps(detail['raw'])}")
    for message in checker.messages:
        print(f"# FAILED {message}")
    print("# detail " + json.dumps(detail, default=float))
    emit(metrics, attempted, checker.failed)
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, in child processes."""
    summary = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600, cwd=ROOT,
            )
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            detail = json.loads(next(l for l in lines if l.startswith("# detail "))[len("# detail "):])
            result = json.loads(lines[-1])
            entry["traced" if trace else "untraced"] = {"result": result, "detail": detail}
        plain = entry["untraced"]["result"]["metrics"]["items_per_s"]["value"]
        traced = entry["traced"]["result"]["metrics"]["traced.items_per_s"]["value"]
        entry["tracing_overhead_pct"] = 100.0 * (plain - traced) / plain
        summary["workloads"][workload] = entry
        summary["env"] = entry["untraced"]["detail"]["env"]

    print(f"# env {json.dumps(summary['env'])}")
    header = ("workload", "setup_s", "items_per_s", "latency_p50_ms", "latency_tail_ms",
              "failed_ratio", "peak_rss_mb", "trace_overhead_%")
    print("# " + "  ".join(f"{h:>15s}" for h in header))
    print("# " + "  ".join(f"{u:>15s}" for u in ("", "s", "1/s", "ms", "ms", "ratio", "MB", "%")))
    for workload, entry in summary["workloads"].items():
        d = entry["untraced"]["detail"]
        m = entry["untraced"]["result"]["metrics"]
        tail_text = "n/a" if d["latency_tail_ms"] is None else f"{d['latency_tail_ms']:.2f}@p{d['latency_tail_percentile']:.1f}"
        cells = (workload, f"{m['setup_s']['value']:.4f}", f"{m['items_per_s']['value']:.3f}",
                 f"{m['latency_p50_ms']['value']:.3f}", tail_text, f"{d['failed_ratio']:.4f}",
                 f"{m['peak_rss_mb']['value']:.1f}", f"{entry['tracing_overhead_pct']:.1f}")
        print("# " + "  ".join(f"{c:>15s}" for c in cells))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"summary-seed{args.seed}.json"
    path.write_text(json.dumps(summary, indent=1, sort_keys=True, default=float), encoding="utf-8")
    print(f"# summary written to {path.relative_to(ROOT)}")
    failed = sum(e["untraced"]["result"]["failed"] + e["traced"]["result"]["failed"] for e in summary["workloads"].values())
    attempted = sum(e["untraced"]["result"]["attempted"] + e["traced"]["result"]["attempted"] for e in summary["workloads"].values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "tracing_overhead_pct": {w: e["tracing_overhead_pct"] for w, e in summary["workloads"].items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        # Samples from here on give the speed the whole set-up ran at.
        with speed.Sampler(interval=0.03) as sampler:
            _, _, workdir = set_up(args.workload, args.seed)
            end = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        print(f"{end - T0!r} {sampler.at_reference_total(T0, end)!r}")
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
