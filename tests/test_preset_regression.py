"""The preset sweeps against rows recorded before sweeps read the channel.

`data/preset_sweeps.json` holds `sweep.txt` and the full-precision records
of `spinswap sweep --preset fig2|fig3 --workers 1` as written by the
sampled-trajectory pipeline (commit 658e6b6).  It is reference data: never
regenerate it from the code under test.
"""

import json
from pathlib import Path

import pytest

from spinswap.cli import main

DATA = json.loads((Path(__file__).parent / "data" / "preset_sweeps.json").read_text())
METRIC_TOL = 1e-12


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
