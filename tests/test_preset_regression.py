"""The preset outputs against recorded reference data.

The data and the checks, with their tolerances, live in `golden.py`; the
CI workflow runs the same checks on the installed command's output files.
"""

import json

import pytest

import golden
from spinswap.cli import main
from spinswap.config import load_preset
from spinswap.sequences import program_to_json, transport_protocol


@pytest.mark.parametrize("preset", ["fig2", "fig3"])
def test_preset_sweep_reproduces_recorded_rows(tmp_path, preset):
    assert main(["sweep", "--preset", preset, "--workers", "1",
                 "--out", str(tmp_path)]) == 0
    golden.check_sweep_dir(preset, tmp_path)


@pytest.mark.parametrize("preset", ["fig2", "fig3"])
def test_preset_program_json_reproduces_recorded_bytes(preset):
    cfg = load_preset(preset)
    program = transport_protocol(cfg.chain, cfg.omega1, refocus=cfg.refocusing)
    golden.check_program_json(preset, program_to_json(program))


@pytest.mark.parametrize("preset", ["fig2", "fig3"])
def test_preset_report_reproduces_recorded_values(tmp_path, preset):
    assert main(["simulate", "--preset", preset, "--out", str(tmp_path)]) == 0
    golden.check_report(preset, json.loads((tmp_path / "report.json").read_text()))


@pytest.mark.parametrize("preset", ["fig2", "fig3"])
def test_preset_trajectory_reproduces_recorded_rows(tmp_path, preset):
    assert main(["simulate", "--preset", preset, "--out", str(tmp_path)]) == 0
    golden.check_trajectory(preset, (tmp_path / "trajectory.txt").read_text())


@pytest.mark.parametrize("preset", ["fig2", "fig3"])
def test_simulate_output_directory_passes_the_command_line_check(tmp_path, preset):
    # the entry point the CI workflow calls on the installed command's output
    assert main(["simulate", "--preset", preset, "--out", str(tmp_path)]) == 0
    assert golden.main(["simulate", preset, str(tmp_path)]) == 0
    (tmp_path / "report.json").write_text(json.dumps(
        dict(json.loads((tmp_path / "report.json").read_text()), clip_count=1)))
    assert golden.main(["simulate", preset, str(tmp_path)]) == 1
