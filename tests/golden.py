"""The preset outputs against recorded reference data.

`data/preset_sweeps.json` holds `sweep.txt` and the full-precision records
of `spinswap sweep --preset fig2|fig3 --workers 1` as written by the
sampled-trajectory pipeline (commit 658e6b6).  `data/preset_programs.json`
holds the `program.json` text of `spinswap simulate --preset fig2|fig3`
as written by commit 3391033, before the drive carrier was removed.
`data/preset_reports.json` holds the `report.json` text of the same runs as
written by commit 8e72a30, before the program channel was kept as a Pauli
transfer matrix.  `data/preset_trajectories.json` holds the header, the
row count and every 64th row of the `trajectory.txt` of the same runs as
written by commit a131da3, before window generators were exponentiated on
their diagonal blocks.  All four are reference data: never regenerate them
from the code under test.

Each check raises `Mismatch` with the first difference it finds.  The
tests in `test_preset_regression.py` call them, and so does the command
line, which checks the files a run wrote into a directory:

    python tests/golden.py sweep PRESET DIR      # sweep.txt, sweep_summary.json
    python tests/golden.py simulate PRESET DIR   # program.json, trajectory.txt, report.json

It exits 0 when every file matches and 1 with the difference otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data"
PRESETS = ("fig2", "fig3")
METRIC_TOL = 1e-12
# report.json values that may move in the last digits with the operation
# order; every other key (the echo, transfer time, clip count and minimum
# eigenvalue) must stay exact
REPORT_METRICS = ("fidelity", "concurrence_23", "efficiency", "choi_min")
# recorded under the column-stacking definition of the defect; both read
# rounding only on a trace-preserving channel
TP_DEFECT_MAX = 1e-13
# the unnormalized Choi matrix has trace 8: well inside the CP cone
CHOI_MIN_FLOOR = 0.05


class Mismatch(AssertionError):
    """An output differs from the recorded reference data."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


@cache
def recorded(name: str) -> dict:
    """The presets' entries of `data/preset_<name>.json`."""
    return json.loads((DATA / f"preset_{name}.json").read_text())["presets"]


def check_sweep_txt(preset: str, text: str) -> None:
    _expect(text == recorded("sweeps")[preset]["sweep_txt"],
            f"{preset} sweep.txt differs from tests/data/preset_sweeps.json")


def check_sweep_records(preset: str, records: list) -> None:
    want = recorded("sweeps")[preset]["records"]
    _expect(len(records) == len(want) == 12,
            f"{preset} sweep has {len(records)} records, recorded {len(want)}")
    for n, (got, ref) in enumerate(zip(records, want)):
        for key in ("omega1", "omegaD", "tauc", "status"):
            _expect(got[key] == ref[key],
                    f"{preset} record {n} {key} {got[key]!r}, recorded {ref[key]!r}")
        for key in ("fidelity", "concurrence_23", "efficiency"):
            _expect(abs(got[key] - ref[key]) <= METRIC_TOL,
                    f"{preset} record {n} {key} {got[key]!r}, recorded {ref[key]!r}")
        _expect(got["tp_defect"] <= TP_DEFECT_MAX,
                f"{preset} record {n} tp_defect {got['tp_defect']!r}")
        _expect(got["choi_min"] >= CHOI_MIN_FLOOR,
                f"{preset} record {n} choi_min {got['choi_min']!r}")


def check_program_json(preset: str, text: str) -> None:
    _expect(text == recorded("programs")[preset],
            f"{preset} program.json differs from tests/data/preset_programs.json")


def check_trajectory(preset: str, text: str) -> None:
    """The header and row count exact, each recorded row's time exact and
    its state entries and fidelity within METRIC_TOL: the bits of
    rounding-level entries depend on the order in which the BLAS sums."""
    want = recorded("trajectories")[preset]
    lines = text.splitlines()
    _expect(lines[:2] == want["header"], f"{preset} trajectory.txt header differs")
    _expect(len(lines) - 2 == want["rows"],
            f"{preset} trajectory.txt has {len(lines) - 2} rows, recorded {want['rows']}")
    got = np.loadtxt(lines[2:][::want["every"]], delimiter=",", ndmin=2)
    ref = np.loadtxt(want["sample"], delimiter=",", ndmin=2)
    _expect(got.shape == ref.shape, f"{preset} trajectory.txt rows have another width")
    _expect(np.array_equal(got[:, 0], ref[:, 0]),
            f"{preset} trajectory.txt sample times differ")
    dev = np.abs(got[:, 1:] - ref[:, 1:]).max()
    _expect(dev <= METRIC_TOL,
            f"{preset} trajectory.txt entries differ by {dev:.3e} > {METRIC_TOL:.0e}")


def check_report(preset: str, doc: dict) -> None:
    want = json.loads(recorded("reports")[preset])
    _expect(list(doc) == list(want), f"{preset} report.json keys {list(doc)}")
    for key, value in want.items():
        if key in REPORT_METRICS:
            ok = abs(doc[key] - value) <= METRIC_TOL
        elif key == "tp_defect":
            ok = doc[key] <= TP_DEFECT_MAX
        else:
            ok = doc[key] == value
        _expect(ok, f"{preset} report.json {key} {doc[key]!r}, recorded {value!r}")


def check_sweep_dir(preset: str, out: Path) -> None:
    check_sweep_txt(preset, (out / "sweep.txt").read_text())
    check_sweep_records(
        preset, json.loads((out / "sweep_summary.json").read_text())["records"])


def check_simulate_dir(preset: str, out: Path) -> None:
    check_program_json(preset, (out / "program.json").read_text())
    check_trajectory(preset, (out / "trajectory.txt").read_text())
    check_report(preset, json.loads((out / "report.json").read_text()))


COMMANDS = {"sweep": check_sweep_dir, "simulate": check_simulate_dir}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="check a preset run's output files against tests/data")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("preset", choices=PRESETS)
    parser.add_argument("out", type=Path, help="the run's output directory")
    args = parser.parse_args(argv)
    try:
        COMMANDS[args.command](args.preset, args.out)
    except Mismatch as exc:
        print(f"{args.out}: {exc}", file=sys.stderr)
        return 1
    print(f"{args.out}: {args.command} --preset {args.preset} matches the recorded data")
    return 0


if __name__ == "__main__":
    sys.exit(main())
