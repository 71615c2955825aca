"""Command-line front end.

Three subcommands:

* ``analyze`` prints the full report for one channel (text or JSON),
* ``sweep`` writes a CSV of requested quantities over a parameter range,
* ``audit`` drives every identity the library is built on over a batch of
  seeded random channels and fails loudly on any violation.

Exit codes: 0 ok, 1 identity violation, 2 usage or parse error, 3 channel
failed CPTP validation.  The console script ends on a closed stdout as
``cat`` does, by SIGPIPE, where the platform has it.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import signal
import sys

import numpy as np

from .channel import (
    KrausChannel,
    channel_from_dict,
    channel_to_dict,
    named_channel,
    random_channel,
    validate,
)
from .entmetrics import teleportation_fidelity
from .oneshot import (
    IDENTITIES,
    IdentityContext,
    _relation_residual,
    channel_negativities,
    channel_residuals,
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
        if key in params:
            raise ValueError(f"repeated --param key '{key}'")
        params[key] = float(value)
    return params


def _unique_keys(pairs) -> dict:
    """A JSON object from its (key, value) pairs; a repeated key is an error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated JSON key '{key}'")
        obj[key] = value
    return obj


def _load_channel(args) -> KrausChannel:
    if args.file and args.name:
        raise ValueError("give either --name or --file, not both")
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            return channel_from_dict(json.load(fh, object_pairs_hook=_unique_keys))
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
    # json raises RecursionError on input nested past the interpreter's limit.
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    check = validate(channel)
    if not check.ok:
        print(f"error: channel failed CPTP validation: {check.numbers()}", file=sys.stderr)
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


# Each column maps the rows' IdentityContext to one value per row, in one
# stacked call; F* and N_choi are the context's, solved once for all rows.
SWEEP_COLUMNS = {
    "F_lambda": lambda ctx: np.maximum(0.5, ctx.lambda_max),
    "lambda_max": lambda ctx: ctx.lambda_max,
    "entanglement_breaking": lambda ctx: np.where(ctx.entanglement_breaking, 1.0, 0.0),
    "f_tel": lambda ctx: teleportation_fidelity(SWEEP_COLUMNS["F_lambda"](ctx)),
    "F1": lambda ctx: [state.eig.eigenvalues[0] for state in ctx.dual_states],
    "N_choi": lambda ctx: ctx.negativities,
    "N_channel": lambda ctx: [search.value for search in channel_negativities(ctx.channels)],
    "fstar_choi": lambda ctx: ctx.fstars,
    # NaN on entanglement-breaking rows, where neither side is meaningful.
    "gap": lambda ctx: np.where(ctx.entanglement_breaking, np.nan, ctx.lambda_max - ctx.fstars),
    "schmidt_lambda": lambda ctx: [inp.schmidt.coefficients[0] for inp in ctx.optimal_inputs],
    "unitality_deviation": lambda ctx: ctx.unitality_deviation,
    "negativity_relation_residual": lambda ctx: _relation_residual(
        ctx.lambda_max, ctx.negativities),
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
    if not columns:
        print("error: no columns given", file=sys.stderr)
        return EXIT_USAGE
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
    # --seed is deprecated: it changes no output, but stays accepted and
    # validated so existing command lines keep working.
    if args.seed < 0:
        print(f"error: --seed must be non-negative, got {args.seed}", file=sys.stderr)
        return EXIT_USAGE
    for flag, value in (("--from", args.start), ("--to", args.stop)):
        if not np.isfinite(value):
            print(f"error: {flag} must be finite, got {value!r}", file=sys.stderr)
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

    try:
        params = [float(v) for v in np.linspace(args.start, args.stop, args.steps)]
        # Every row's states, in one batched pass.
        ctx = IdentityContext(named_channel(args.name, {args.param: value}) for value in params)
        table = [SWEEP_COLUMNS[c](ctx) for c in columns]
    except (ValueError, MemoryError) as exc:  # a MemoryError: more --steps than fit
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    lines = ["param," + ",".join(columns)]
    for row in zip(params, *table):
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


def _cmd_audit(args) -> int:
    if args.count < 1:
        print("error: --count must be at least 1", file=sys.stderr)
        return EXIT_USAGE

    channels = []
    for index in range(args.count):
        chan_seed = (args.seed * 1_000_003 + index) % (2**63)
        channels.append((random_channel(chan_seed, index % 4 + 1), chan_seed))
    worst = {}  # identity -> (residual, channel index)
    counts = {row.name: 0 for row in IDENTITIES}
    # One pass builds every channel's states; every stacked row (F*, the oracle,
    # singlet fractions, protocol and dual checks, Kraus read-backs) is one
    # call over all channels, each value read back per channel.
    for index, values in enumerate(channel_residuals([channel for channel, _ in channels])):
        for name, value in values.items():
            counts[name] += 1
            if name not in worst or value > worst[name][0]:
                worst[name] = (value, index)

    print(f"audit: {args.count} random channels, seed {args.seed}")
    print(f"  {'identity':32s} {'n':>4s} {'max residual':>14s} {'tolerance':>10s}  status")
    failed = []
    for row in IDENTITIES:
        name, tol = row.name, row.tolerance
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
            channel, chan_seed = channels[index]
            path = f"audit-failure-{name}.json"
            record = {
                "check": name,
                "residual": value,
                "channel_index": index,
                "channel_seed": chan_seed,
                "channel": channel_to_dict(channel),
            }
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(record, fh, sort_keys=True)
                note = f"repro written to {path}"
            except OSError as exc:
                print(f"error: cannot write {path}: {exc}", file=sys.stderr)
                note = "no repro written"
            print(f"audit FAILED: {name} ({note})", file=sys.stderr)
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
    sweep.add_argument("--seed", type=int, default=0, help="deprecated; changes no output")
    sweep.set_defaults(func=_cmd_sweep)

    audit = sub.add_parser("audit", help="randomized identity audit")
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--count", type=int, default=100)
    audit.set_defaults(func=_cmd_audit)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    return args.func(args)


def entry() -> None:
    # Python ignores SIGPIPE, so a write to a closed stdout would raise
    # BrokenPipeError and exit 1, the code of an identity violation.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
