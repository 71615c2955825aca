"""The named channels at the ends of their parameter range, p in {0, 1}.

Every sweep column and every identity row must behave there: depolarizing,
amplitude and phase damping end entanglement breaking at p = 1, and every
family starts at the identity channel.
"""

import csv
import math

import pytest

from singletopt import cli
from singletopt.channel import identity, named_channel
from singletopt.oneshot import IDENTITIES, IdentityContext, optimal_singlet_fraction, residuals

FAMILIES = ("depolarizing", "amplitude_damping", "phase_damping", "bit_flip")
TOLERANCES = {row.name: row.tolerance for row in IDENTITIES}


def _boundary_channels():
    yield "identity", identity()
    for name in FAMILIES:
        for p in (0.0, 1.0):
            yield f"{name}({p:g})", named_channel(name, {"p": p})


def _check_row(values, breaking):
    for column, value in values.items():
        if column == "gap":
            assert math.isnan(value) == breaking, (column, value)
        else:
            assert math.isfinite(value), (column, value)


@pytest.mark.parametrize("name", FAMILIES)
def test_sweep_all_columns_at_the_ends(name, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    columns = list(cli.SWEEP_COLUMNS)
    code = cli.main(
        ["sweep", "--name", name, "--from", "0", "--to", "1", "--steps", "2",
         "--columns", ",".join(columns), "--out", str(out), "--seed", "5"]
    )
    assert code == 0, capsys.readouterr().err
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["param"]) for r in rows] == [0.0, 1.0]
    for row in rows:
        values = {c: float(row[c]) for c in columns}
        assert values["entanglement_breaking"] in (0.0, 1.0)
        _check_row(values, values["entanglement_breaking"] == 1.0)


def test_identity_channel_sweep_columns():
    # The identity constructor takes no parameter, so the sweep command
    # cannot reach it; its columns are the functions the sweep calls, here
    # on a single row.
    c = identity()
    ctx = IdentityContext([c])
    values = {name: float(fn(ctx)[0]) for name, fn in cli.SWEEP_COLUMNS.items()}
    assert values["entanglement_breaking"] == 0.0
    _check_row(values, breaking=False)


@pytest.mark.parametrize("label, channel", list(_boundary_channels()))
def test_every_identity_row_holds_at_the_ends(label, channel):
    found = residuals(channel)
    assert found, label
    for name, value in found.items():
        assert value <= TOLERANCES[name], (label, name, value)
    breaking = optimal_singlet_fraction(channel).entanglement_breaking
    assert ("negativity_relation" in found) == (not breaking), label
