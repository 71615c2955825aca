"""Command-line front end.

Three subcommands:

* ``analyze`` prints the full report for one channel (text or JSON),
* ``sweep`` writes a CSV of requested quantities over a parameter range,
* ``audit`` drives every identity the library is built on over a batch of
  seeded random channels and fails loudly on any violation.

Exit codes: 0 ok, 1 identity violation, 2 usage or parse error, 3 channel
failed CPTP validation.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .channel import (
    KrausChannel,
    apply_to_half,
    channel_from_dict,
    channel_to_dict,
    choi_matrix,
    is_unital,
    kraus_from_choi,
    named_channel,
    random_channel,
    validate,
)
from .choi import choi, dual_choi, eigenvector_correspondence_check
from .entmetrics import (
    negativity,
    pt_spectrum_identity_residual,
    singlet_fraction,
    singlet_fraction_oracle,
)
from .linalg import swap_conjugate
from .locc import fstar, fstar_filter_oracle
from .oneshot import (
    ENTANGLEMENT_BREAKING_THRESHOLD,
    channel_negativity,
    classify,
    negativity_relation_residual,
    optimal_input_state,
    optimal_singlet_fraction,
    preprocessed_fidelity,
    report,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INVALID = 3


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips, locale independent."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _parse_params(items) -> dict:
    params = {}
    for item in items or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ValueError(f"expected --param key=value, got '{item}'")
        params[key] = float(value)
    return params


def _load_channel(args) -> KrausChannel:
    if args.file and args.name:
        raise ValueError("give either --name or --file, not both")
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            return channel_from_dict(json.load(fh))
    if args.name:
        return named_channel(args.name, _parse_params(args.param))
    raise ValueError("a channel is required: --name <constructor> or --file <json>")


def _render_text(channel: KrausChannel, rep) -> str:
    lines = [
        f"channel: {rep.label}",
        f"unital: {'yes' if rep.unital else 'no'} (deviation={_fmt(rep.unitality_deviation)})",
        f"entanglement_breaking: {'yes' if rep.entanglement_breaking else 'no'}",
        f"F_lambda: {_fmt(rep.F_lambda)}",
        f"lambda_max: {_fmt(rep.lambda_max)}",
        f"f_tel: {_fmt(rep.f_tel)}",
        f"F1: {_fmt(rep.F1)}",
        f"N_choi: {_fmt(rep.N_choi)}",
        "psi0: "
        + "  ".join(f"{z.real:+.12f}{z.imag:+.12f}j" for z in rep.psi0)
        + ("  (degenerate top eigenvalue)" if rep.psi0_degenerate else ""),
        "psi0_schmidt: " + ", ".join(_fmt(x) for x in rep.psi0_schmidt),
        "residuals:",
    ]
    for key, value in sorted(rep.residuals.items()):
        lines.append(f"  {key}: {value:.3e}")
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    try:
        channel = _load_channel(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    check = validate(channel)
    if not check.ok:
        print(
            "error: channel failed CPTP validation: "
            f"tp_residual={check.tp_residual!r}, "
            f"cp_min_eigenvalue={check.cp_min_eigenvalue!r}",
            file=sys.stderr,
        )
        return EXIT_INVALID
    rep = report(channel)
    if args.format == "json":
        payload = {"channel": channel_to_dict(channel), "report": rep.to_dict()}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(_render_text(channel, rep))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


class _RowContext:
    """One sweep row: its channel, its search seed and its ``fstar`` solve.

    The Choi states live on the channel object itself; ``fstar`` is computed
    on the Choi matrix, so the row keeps the one solve its columns share.
    """

    def __init__(self, channel: KrausChannel, seed: int):
        self.channel = channel
        self.seed = seed
        self._fstar = None

    @property
    def fstar(self) -> float:
        if self._fstar is None:
            self._fstar = fstar(choi(self.channel).matrix)
        return self._fstar


def _column_gap(ctx: _RowContext) -> float:
    # Same value as postprocessing_gap(ctx.channel), with the row's fstar.
    fraction = optimal_singlet_fraction(ctx.channel)
    if fraction.entanglement_breaking:
        return float("nan")
    return fraction.lambda_max - ctx.fstar


SWEEP_COLUMNS = {
    "F_lambda": lambda ctx: optimal_singlet_fraction(ctx.channel).value,
    "lambda_max": lambda ctx: optimal_singlet_fraction(ctx.channel).lambda_max,
    "entanglement_breaking": lambda ctx: float(
        optimal_singlet_fraction(ctx.channel).entanglement_breaking
    ),
    "f_tel": lambda ctx: (2 * optimal_singlet_fraction(ctx.channel).value + 1) / 3,
    "F1": lambda ctx: preprocessed_fidelity(ctx.channel),
    "N_choi": lambda ctx: negativity(choi(ctx.channel).matrix),
    "N_channel": lambda ctx: channel_negativity(ctx.channel, seed=ctx.seed).value,
    "fstar_choi": lambda ctx: ctx.fstar,
    "gap": _column_gap,
    "schmidt_lambda": lambda ctx: float(
        optimal_input_state(ctx.channel).schmidt.coefficients[0]
    ),
    "unitality_deviation": lambda ctx: is_unital(ctx.channel)[1],
    "negativity_relation_residual": lambda ctx: negativity_relation_residual(
        ctx.channel
    ),
}


def _check_writable(path: str) -> None:
    """Raise OSError unless ``path`` can be created or overwritten as a file."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, "no such directory", parent)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, "is a directory", path)
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise PermissionError(errno.EACCES, "permission denied", path)


def _cmd_sweep(args) -> int:
    columns = [c for c in args.columns.split(",") if c]
    unknown = [c for c in columns if c not in SWEEP_COLUMNS]
    if unknown:
        print(
            f"error: unknown column(s) {', '.join(unknown)}; "
            f"available: {', '.join(sorted(SWEEP_COLUMNS))}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.steps < 2:
        print("error: --steps must be at least 2", file=sys.stderr)
        return EXIT_USAGE
    if args.start > args.stop:
        print("error: --from must not exceed --to", file=sys.stderr)
        return EXIT_USAGE
    # Checked before any row is computed; the file itself is opened only
    # after every row succeeded, so a failing row leaves an old file intact.
    try:
        _check_writable(args.out)
    except OSError as exc:
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        return EXIT_USAGE

    values = np.linspace(args.start, args.stop, args.steps)

    def run_row(index_value):
        index, value = index_value
        channel = named_channel(args.name, {args.param: float(value)})
        ctx = _RowContext(channel, seed=args.seed + index)
        return [float(value)] + [float(SWEEP_COLUMNS[c](ctx)) for c in columns]

    try:
        jobs = list(enumerate(values))
        if args.workers and args.workers > 1:
            with ThreadPoolExecutor(max_workers=args.workers) as pool:
                rows = list(pool.map(run_row, jobs))
        else:
            rows = [run_row(job) for job in jobs]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    lines = ["param," + ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    text = "\n".join(lines) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

# (name, tolerance) for every identity the audit drives.
AUDIT_CHECKS = [
    ("dual_choi_entrywise", 1e-12),
    ("dual_choi_spectrum", 1e-10),
    ("pt_spectrum_identity", 1e-10),
    ("negativity_relation", 1e-10),
    ("optimal_input_achievement", 1e-9),
    ("classification_consistent", 0.5),
    ("eigenvector_correspondence", 1e-9),
    ("kraus_trace_orthogonality", 1e-9),
    ("choi_roundtrip", 1e-9),
    ("gap_nonnegative", 1e-9),
    ("gap_unital", 1e-6),
    ("gap_nonunital_strict", 0.5),
    ("singlet_fraction_oracle", 1e-4),
    ("fstar_oracle", 1e-4),
]


def _audit_channel(channel: KrausChannel, seed: int) -> dict:
    """Residual of every applicable identity for one channel."""
    out = {}
    forward = choi(channel)
    backward = dual_choi(channel)
    j = forward.matrix
    lam = float(forward.eig.eigenvalues[0])
    breaking = lam <= ENTANGLEMENT_BREAKING_THRESHOLD
    unital, deviation = is_unital(channel)

    out["dual_choi_entrywise"] = float(
        np.abs(backward.matrix - swap_conjugate(j)).max()
    )
    out["dual_choi_spectrum"] = float(
        np.abs(backward.eig.eigenvalues - forward.eig.eigenvalues).max()
    )
    out["pt_spectrum_identity"] = abs(pt_spectrum_identity_residual(j))
    out["eigenvector_correspondence"] = eigenvector_correspondence_check(channel)

    if not breaking:
        out["negativity_relation"] = negativity_relation_residual(channel)

    inp = optimal_input_state(channel)
    if not inp.degenerate:
        achieved, _ = singlet_fraction(apply_to_half(channel, inp.state))
        out["optimal_input_achievement"] = abs(achieved - lam)
        verdict = classify(channel).verdict
        out["classification_consistent"] = 0.0 if verdict == "consistent" else 1.0

    extracted = kraus_from_choi(forward)
    weights = [p for p in forward.eig.eigenvalues if p > 1e-12]
    gram = np.array(
        [
            [np.trace(a.conj().T @ b) for b in extracted.kraus]
            for a in extracted.kraus
        ]
    )
    expected = np.diag([2.0 * p for p in weights])
    out["kraus_trace_orthogonality"] = float(np.abs(gram - expected).max())
    out["choi_roundtrip"] = float(np.abs(choi_matrix(extracted) - j).max())

    # One fstar solve serves the gap checks and the oracle comparison.
    fs = fstar(j)
    if not breaking:
        gap = lam - fs
        out["gap_nonnegative"] = max(0.0, -gap)
        if unital:
            out["gap_unital"] = abs(gap)
        elif deviation > 1e-2:
            out["gap_nonunital_strict"] = 0.0 if gap > 1e-6 else 1.0

    closed, _ = singlet_fraction(j)
    out["singlet_fraction_oracle"] = abs(
        closed - singlet_fraction_oracle(j, resolution_deg=4.0)
    )
    out["fstar_oracle"] = abs(
        fs - fstar_filter_oracle(j, restarts=16, seed=seed).fstar_value
    )
    return out


def _cmd_audit(args) -> int:
    if args.count < 1:
        print("error: --count must be at least 1", file=sys.stderr)
        return EXIT_USAGE

    channels = []
    for k in range(args.count):
        rank = k % 4 + 1
        chan_seed = (args.seed * 1_000_003 + k) % (2**63)
        channels.append((k, random_channel(chan_seed, rank), chan_seed))

    def run(item):
        _, channel, chan_seed = item
        return _audit_channel(channel, chan_seed)

    if args.workers and args.workers > 1:
        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(run, channels))
    else:
        results = [run(item) for item in channels]

    worst = {}  # check -> (residual, channel index)
    counts = {name: 0 for name, _ in AUDIT_CHECKS}
    for (index, _, _), residuals in zip(channels, results):
        for name, value in residuals.items():
            counts[name] += 1
            if name not in worst or value > worst[name][0]:
                worst[name] = (value, index)

    print(f"audit: {args.count} random channels, seed {args.seed}")
    print(f"  {'identity':32s} {'n':>4s} {'max residual':>14s} {'tolerance':>10s}  status")
    failed = []
    for name, tol in AUDIT_CHECKS:
        if counts[name] == 0:
            print(f"  {name:32s} {0:4d} {'-':>14s} {tol:10.1e}  SKIP")
            continue
        value, index = worst[name]
        ok = value <= tol
        status = "PASS" if ok else "FAIL"
        print(f"  {name:32s} {counts[name]:4d} {value:14.3e} {tol:10.1e}  {status}")
        if not ok:
            failed.append((name, index, value))

    if failed:
        for name, index, value in failed:
            _, channel, chan_seed = channels[index]
            path = f"audit-failure-{name}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(
                    {
                        "check": name,
                        "residual": value,
                        "channel_index": index,
                        "channel_seed": chan_seed,
                        "channel": channel_to_dict(channel),
                    },
                    fh,
                    sort_keys=True,
                )
            print(f"audit FAILED: {name} (repro written to {path})", file=sys.stderr)
        return EXIT_VIOLATION
    print("audit PASSED")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (it holds no state)."""
    parser = argparse.ArgumentParser(
        prog="singletopt",
        description="Optimal singlet fraction and entanglement metrics for qubit channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="report all quantities for one channel")
    analyze.add_argument("--name", help="named constructor, e.g. amplitude_damping")
    analyze.add_argument(
        "--param", action="append", metavar="K=V", help="constructor parameter"
    )
    analyze.add_argument("--file", help="channel JSON file")
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.set_defaults(func=_cmd_analyze)

    sweep = sub.add_parser("sweep", help="CSV of quantities over a parameter range")
    sweep.add_argument("--name", required=True, help="named constructor")
    sweep.add_argument("--param", default="p", help="parameter to sweep (default p)")
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument(
        "--columns", required=True, help="comma separated column names"
    )
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--workers", type=int, default=1)
    sweep.set_defaults(func=_cmd_sweep)

    audit = sub.add_parser("audit", help="randomized identity audit")
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--count", type=int, default=100)
    audit.add_argument("--workers", type=int, default=1)
    audit.set_defaults(func=_cmd_audit)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
