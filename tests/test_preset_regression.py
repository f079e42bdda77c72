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
"""

import json
from pathlib import Path

import numpy as np
import pytest

from spinswap.cli import main
from spinswap.config import load_preset
from spinswap.sequences import program_to_json, transport_protocol

DATA = json.loads((Path(__file__).parent / "data" / "preset_sweeps.json").read_text())
PROGRAMS = json.loads((Path(__file__).parent / "data" / "preset_programs.json").read_text())
REPORTS = json.loads((Path(__file__).parent / "data" / "preset_reports.json").read_text())
TRAJECTORIES = json.loads(
    (Path(__file__).parent / "data" / "preset_trajectories.json").read_text())
METRIC_TOL = 1e-12
# report.json values that may move in the last digits with the operation
# order; every other key (the echo, transfer time, clip count and minimum
# eigenvalue) must stay exact
REPORT_METRICS = ("fidelity", "concurrence_23", "efficiency", "choi_min")


@pytest.mark.parametrize("preset", ["fig2", "fig3"])
def test_preset_sweep_reproduces_recorded_rows(tmp_path, preset):
    expected = DATA["presets"][preset]
    assert main(["sweep", "--preset", preset, "--workers", "1",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sweep.txt").read_text() == expected["sweep_txt"]
    records = json.loads((tmp_path / "sweep_summary.json").read_text())["records"]
    assert len(records) == len(expected["records"]) == 12
    for got, want in zip(records, expected["records"]):
        for key in ("omega1", "omegaD", "tauc", "status"):
            assert got[key] == want[key]
        for key in ("fidelity", "concurrence_23", "efficiency"):
            assert abs(got[key] - want[key]) <= METRIC_TOL
        # the program channel: trace preserving and well inside the CP cone
        # (unnormalized Choi matrix, trace 8)
        assert got["tp_defect"] <= 1e-13
        assert got["choi_min"] >= 0.05


@pytest.mark.parametrize("preset", ["fig2", "fig3"])
def test_preset_program_json_reproduces_recorded_bytes(preset):
    cfg = load_preset(preset)
    program = transport_protocol(cfg.chain, cfg.omega1, refocus=cfg.refocusing)
    assert program_to_json(program) == PROGRAMS["presets"][preset]


@pytest.mark.parametrize("preset", ["fig2", "fig3"])
def test_preset_report_reproduces_recorded_values(tmp_path, preset):
    want = json.loads(REPORTS["presets"][preset])
    assert main(["simulate", "--preset", preset, "--out", str(tmp_path)]) == 0
    got = json.loads((tmp_path / "report.json").read_text())
    assert list(got) == list(want)
    for key, value in want.items():
        if key in REPORT_METRICS:
            assert abs(got[key] - value) <= METRIC_TOL, key
        elif key == "tp_defect":
            # recorded under the column-stacking definition; both read
            # rounding only on a trace-preserving channel
            assert got[key] <= 1e-13
        else:
            assert got[key] == value, key


@pytest.mark.parametrize("preset", ["fig2", "fig3"])
def test_preset_trajectory_reproduces_recorded_rows(tmp_path, preset):
    # the header and row count exact, each recorded row's time exact and
    # its state entries and fidelity within METRIC_TOL: the bits of
    # rounding-level entries depend on the order in which the BLAS sums
    want = TRAJECTORIES["presets"][preset]
    assert main(["simulate", "--preset", preset, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "trajectory.txt").read_text().splitlines()
    assert lines[:2] == want["header"]
    assert len(lines) - 2 == want["rows"]
    got = np.loadtxt(lines[2:][::want["every"]], delimiter=",", ndmin=2)
    ref = np.loadtxt(want["sample"], delimiter=",", ndmin=2)
    assert got.shape == ref.shape
    np.testing.assert_array_equal(got[:, 0], ref[:, 0])
    np.testing.assert_allclose(got[:, 1:], ref[:, 1:], rtol=0, atol=METRIC_TOL)
