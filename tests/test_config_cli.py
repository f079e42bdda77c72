import json

import numpy as np
import pytest

from spinswap.cli import main
from spinswap.config import (
    ConfigError,
    load_preset,
    parse_config,
    parse_quantity,
)
from spinswap.model import Regime, SecularMode, default_coarse_grain_dt

FIG2_DOC = {
    "chain": {
        "larmor": ["2*pi*10000 kHz", "2*pi*1000 kHz", "2*pi*500 kHz"],
        "couplings": [
            {"pair": [0, 2], "j": "150 kHz"},
            {"pair": [0, 1], "j": "150 kHz"},
            {"pair": [1, 2], "j": "150 kHz"},
        ],
    },
    "bath": {"omega_se": "2*pi*100 kHz", "tau_c": "0.1/(2*pi*1e5) s"},
    "drive": {"omega1": "2*pi*150 kHz"},
    "protocol": "transport",
}


class TestQuantities:
    def test_angular_frequency_with_two_pi(self):
        np.testing.assert_allclose(
            parse_quantity("2*pi*150 kHz", "angular_frequency", "x"),
            2 * np.pi * 1.5e5,
        )

    def test_plain_frequency(self):
        np.testing.assert_allclose(parse_quantity("150 kHz", "frequency", "x"), 1.5e5)

    def test_time_units(self):
        np.testing.assert_allclose(parse_quantity("2.5 us", "time", "x"), 2.5e-6)
        np.testing.assert_allclose(parse_quantity("1.6e-7 s", "time", "x"), 1.6e-7)

    def test_missing_unit_names_field(self):
        with pytest.raises(ConfigError, match="bath.tau_c"):
            parse_quantity("1.6e-7", "time", "bath.tau_c")

    def test_bare_number_rejected(self):
        with pytest.raises(ConfigError):
            parse_quantity(150000.0, "frequency", "x")

    def test_disallowed_syntax_rejected(self):
        with pytest.raises(ConfigError):
            parse_quantity("__import__('os') s", "time", "x")
        with pytest.raises(ConfigError):
            parse_quantity("tau*2 s", "time", "x")


class TestParseConfig:
    def test_reference_document(self):
        cfg = parse_config(FIG2_DOC)
        np.testing.assert_allclose(cfg.chain.larmor[0], 2 * np.pi * 1e7)
        np.testing.assert_allclose(cfg.bath.omega_se, 2 * np.pi * 1e5)
        np.testing.assert_allclose(cfg.bath.omega_se * cfg.bath.tau_c, 0.1)
        np.testing.assert_allclose(cfg.omega1, 2 * np.pi * 1.5e5)
        assert cfg.grid is None

    def test_grid_axes(self):
        doc = dict(FIG2_DOC)
        doc["grid"] = {
            "omega1": {"log_points": 5, "min": "2*pi*10 kHz", "max": "2*pi*1000 kHz"},
            "omegaD": ["2*pi*150 kHz"],
            "tau_c": ["0.1/(2*pi*1e5) s"],
        }
        cfg = parse_config(doc)
        assert len(cfg.grid.omega1_values) == 5
        np.testing.assert_allclose(cfg.grid.omega1_values[0], 2 * np.pi * 1e4)
        np.testing.assert_allclose(cfg.grid.omega1_values[-1], 2 * np.pi * 1e6)

    def test_window_resolved_once_at_load(self):
        # no coarse_grain_dt: the default window comes from the bath and the
        # drive's omega_1, and the grid shares the run's mode
        doc = dict(FIG2_DOC)
        doc["grid"] = {
            "omega1": ["2*pi*10 kHz", "2*pi*10000 kHz"],
            "omegaD": ["2*pi*150 kHz"],
            "tau_c": ["0.1/(2*pi*1e5) s"],
        }
        cfg = parse_config(doc)
        assert cfg.mode == SecularMode(
            Regime.AUTO, default_coarse_grain_dt(cfg.bath, cfg.omega1))
        assert cfg.grid.mode == cfg.mode
        doc["regime"] = {"mode": "ising_only", "coarse_grain_dt": "4.11e-7 s"}
        cfg = parse_config(doc)
        assert cfg.mode == SecularMode(Regime.ISING_ONLY, 4.11e-7)
        assert cfg.grid.mode == cfg.mode

    def test_missing_fields_diagnosed(self):
        with pytest.raises(ConfigError, match="chain"):
            parse_config({"bath": {}, "drive": {}})
        doc = json.loads(json.dumps(FIG2_DOC))
        del doc["bath"]["tau_c"]
        with pytest.raises(ConfigError, match="bath"):
            parse_config(doc)

    def test_bad_regime_rejected(self):
        doc = dict(FIG2_DOC)
        doc["regime"] = {"mode": "sideways"}
        with pytest.raises(ConfigError, match="regime.mode"):
            parse_config(doc)
        doc["regime"] = {"mode": "auto", "coarse_grain_dt": "0 s"}
        with pytest.raises(ConfigError, match="regime.coarse_grain_dt"):
            parse_config(doc)


class TestPresets:
    def test_fig2_values(self):
        cfg = load_preset("fig2")
        np.testing.assert_allclose(
            cfg.chain.larmor, (2 * np.pi * 1e7, 2 * np.pi * 1e6, 2 * np.pi * 5e5)
        )
        np.testing.assert_allclose(cfg.bath.omega_se, 2 * np.pi * 1e5)
        np.testing.assert_allclose(cfg.chain.coupling_j((0, 2)), 1.5e5)
        assert cfg.grid is not None and len(cfg.grid.omega1_values) == 12

    def test_fig3_identical_end_spins(self):
        cfg = load_preset("fig3")
        assert cfg.chain.larmor[0] == cfg.chain.larmor[2]
        np.testing.assert_allclose(cfg.chain.larmor[1], 2 * np.pi * 1e6)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_preset("fig9")


class TestCli:
    def _write_config(self, tmp_path, doc):
        p = tmp_path / "run.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def test_validate_ok(self, tmp_path, capsys):
        path = self._write_config(tmp_path, FIG2_DOC)
        assert main(["validate", "--config", path]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_rejects_other_protocols(self, tmp_path, capsys):
        doc = dict(FIG2_DOC, protocol="swap")
        path = self._write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 1
        assert "protocol" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["refocusing", "grid.scale_to_omega_se"])
    def test_validate_rejects_string_booleans(self, tmp_path, capsys, field):
        # bool("false") is True: only JSON true/false may set a flag
        doc = json.loads(json.dumps(FIG2_DOC))
        doc["grid"] = {"omega1": ["2*pi*150 kHz"], "omegaD": ["2*pi*150 kHz"],
                       "tau_c": ["0.1/(2*pi*1e5) s"]}
        section, _, key = field.rpartition(".")
        (doc[section] if section else doc)[key] = "false"
        path = self._write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["2.5", 2.5, True, 0])
    def test_validate_rejects_non_integer_workers(self, tmp_path, capsys, workers):
        path = self._write_config(tmp_path, dict(FIG2_DOC, workers=workers))
        assert main(["validate", "--config", path]) == 1
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["chain", "bath", "drive", "regime", "grid"])
    def test_validate_rejects_non_object_sections(self, tmp_path, capsys, field):
        path = self._write_config(tmp_path, dict(FIG2_DOC, **{field: []}))
        assert main(["validate", "--config", path]) == 1
        assert f"{field}: expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("grid.omega1.log_points", 2.7),
        ("grid.omega1.log_points", "3"),
        ("grid.omega1.log_points", True),
        ("chain.couplings[0].pair", [0.9, 2]),
        ("chain.couplings[0].pair", ["0", 2]),
        ("chain.couplings[0].pair", [0, 1, 2]),
    ])
    def test_validate_rejects_non_integer_fields(self, tmp_path, capsys, field, value):
        # int() would truncate 2.7 to a 2-point axis and 0.9 to site 0
        doc = json.loads(json.dumps(FIG2_DOC))
        doc["grid"] = {"omega1": {"log_points": 3, "min": "2*pi*10 kHz",
                                  "max": "2*pi*1000 kHz"},
                       "omegaD": ["2*pi*150 kHz"], "tau_c": ["0.1/(2*pi*1e5) s"]}
        if field.startswith("grid"):
            doc["grid"]["omega1"]["log_points"] = value
        else:
            doc["chain"]["couplings"][0]["pair"] = value
        path = self._write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("pair", [[2, 0], [0, 2]], ids=["reversed", "same-order"])
    def test_validate_rejects_repeated_coupling_pair(self, tmp_path, capsys, pair):
        doc = json.loads(json.dumps(FIG2_DOC))
        doc["chain"]["couplings"].append({"pair": pair, "j": "150 kHz"})
        path = self._write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 1
        assert f"chain: coupling pair ({pair[0]},{pair[1]}) listed twice" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field, value", [("tau_c", "0 s"), ("kappa", "0 1/sqrt(s)"),
                                              ("tau_c", "-1.6e-7 s"),
                                              ("kappa", "-3.5e3 1/sqrt(s)")])
    def test_validate_rejects_nonpositive_tau_c_or_kappa(self, tmp_path, capsys,
                                                         field, value):
        doc = json.loads(json.dumps(FIG2_DOC))
        del doc["bath"]["tau_c"]
        doc["bath"][field] = value
        path = self._write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 1
        assert f"bath: {field} must be positive" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field, value, bad", [("kappa", "1e200 1/sqrt(s)", "tau_c"),
                                                   ("tau_c", "1e-320 s", "kappa")])
    def test_validate_rejects_out_of_range_derived_tau_c_or_kappa(
            self, tmp_path, capsys, field, value, bad):
        doc = json.loads(json.dumps(FIG2_DOC))
        del doc["bath"]["tau_c"]
        doc["bath"][field] = value
        path = self._write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 1
        assert f"bath: {bad} must be positive and finite" in capsys.readouterr().err

    def test_validate_rejects_missing_units(self, tmp_path, capsys):
        doc = json.loads(json.dumps(FIG2_DOC))
        doc["bath"]["tau_c"] = "1.6e-7"
        path = self._write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 1
        assert "bath.tau_c" in capsys.readouterr().err

    def test_gate_check_fig2(self, tmp_path, capsys):
        assert main(["gate-check", "--preset", "fig2"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3
        assert "-0.25" in out  # phase reported as -pi/4

    def test_gate_check_fig3(self, capsys):
        assert main(["gate-check", "--preset", "fig3"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3
        assert "-0.75" in out  # phase reported as -3pi/4

    def test_gate_check_resolves_regime_as_simulate(self, tmp_path, capsys):
        # no pinned coarse_grain_dt: the default window (from tau_c and
        # omega_1) puts end spins 1.5 MHz apart in the zero-quantum regime
        doc = json.loads(json.dumps(FIG2_DOC))
        doc["chain"]["larmor"][2] = "2*pi*10000 + 1500 kHz"
        path = self._write_config(tmp_path, doc)
        assert main(["gate-check", "--config", path]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3
        assert "-0.75" in out  # phase reported as -3pi/4
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", path, "--out", str(sim)]) == 0
        program = json.loads((sim / "program.json").read_text())
        assert program["meta"]["regime"] == "zero_quantum"

    def test_simulate_writes_outputs(self, tmp_path, capsys):
        doc = json.loads(json.dumps(FIG2_DOC))
        path = self._write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["fidelity"] <= 1.0
        assert "config" in report
        traj = (out / "trajectory.txt").read_text()
        assert traj.startswith("# config:")
        assert "fidelity" in traj.split("\n")[1]

    def test_simulate_bath_off_reaches_unit_fidelity(self, tmp_path):
        doc = json.loads(json.dumps(FIG2_DOC))
        doc["bath"] = {"omega_se": "0 Hz", "tau_c": "1e-18 s"}
        # pin the coarse-graining window: the default formula degenerates
        # as tau_c -> 0 and would reshuffle the pair regimes
        doc["regime"] = {"mode": "auto", "coarse_grain_dt": "4.11e-7 s"}
        path = self._write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["fidelity"] >= 1 - 1e-6

    def test_sweep_and_worker_determinism(self, tmp_path):
        doc = json.loads(json.dumps(FIG2_DOC))
        doc["grid"] = {
            "omega1": ["2*pi*100 kHz", "2*pi*150 kHz"],
            "omegaD": ["2*pi*150 kHz"],
            "tau_c": ["0.1/(2*pi*1e5) s"],
        }
        path = self._write_config(tmp_path, doc)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["sweep", "--config", path, "--out", str(out1), "--workers", "1"]) == 0
        assert main(["sweep", "--config", path, "--out", str(out2), "--workers", "2"]) == 0
        t1 = (out1 / "sweep.txt").read_bytes()
        t2 = (out2 / "sweep.txt").read_bytes()
        assert t1 == t2
        summary = json.loads((out1 / "sweep_summary.json").read_text())
        assert len(summary["records"]) == 2
        assert summary["argmax"] is not None

    def test_sweep_keeps_failure_message(self, tmp_path, monkeypatch):
        import spinswap.sweep as sweep

        original = sweep.evaluate_point

        def flaky(chain, bath, mode, omega1, *args):
            if omega1 < 2 * np.pi * 1.2e5:
                raise ValueError("boom, x")
            return original(chain, bath, mode, omega1, *args)

        monkeypatch.setattr(sweep, "evaluate_point", flaky)
        doc = json.loads(json.dumps(FIG2_DOC))
        doc["grid"] = {
            "omega1": ["2*pi*100 kHz", "2*pi*150 kHz"],
            "omegaD": ["2*pi*150 kHz"],
            "tau_c": ["0.1/(2*pi*1e5) s"],
        }
        path = self._write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out", str(out), "--workers", "1"]) == 0
        rows = (out / "sweep.txt").read_text().strip().split("\n")[2:]
        # the message holds a comma, so the table carries only the type
        assert [r.split(", ")[-1] for r in rows] == ["failed(ValueError)", "ok"]
        assert all(len(r.split(", ")) == 10 for r in rows)
        records = json.loads((out / "sweep_summary.json").read_text())["records"]
        assert [r["error"] for r in records] == ["boom, x", ""]

    def test_sweep_records_point_warnings(self, tmp_path):
        flagged = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["sweep", "--preset", "fig2", "--out", str(out),
                         "--workers", workers]) == 0
            records = json.loads((out / "sweep_summary.json").read_text())["records"]
            flagged.append([
                r["omega1"] for r in records
                if any(w.startswith("TimescaleSeparationWarning: omega_1 * tau_c = ")
                       for w in r["warnings"])
            ])
        out_of_domain = [r["omega1"] for r in records if r["omega1"] * r["tauc"] >= 1]
        assert len(out_of_domain) == 4
        assert flagged == [out_of_domain, out_of_domain]

    def test_simulate_matches_sweep_point(self, tmp_path):
        from importlib import resources

        doc = json.loads(
            resources.files("spinswap.presets").joinpath("fig2.json").read_text()
        )
        # the simulate parameters of the preset as a one-point grid
        doc["grid"] = {
            "omega1": [doc["drive"]["omega1"]],
            "omegaD": ["2*pi*150 kHz"],
            "tau_c": [doc["bath"]["tau_c"]],
        }
        path = self._write_config(tmp_path, doc)
        sim, swp = tmp_path / "sim", tmp_path / "sweep"
        assert main(["simulate", "--preset", "fig2", "--out", str(sim)]) == 0
        assert main(["sweep", "--config", path, "--out", str(swp)]) == 0
        report = json.loads((sim / "report.json").read_text())
        (record,) = json.loads((swp / "sweep_summary.json").read_text())["records"]
        assert record["status"] == "ok"
        for key in ("fidelity", "concurrence_23", "efficiency", "tp_defect", "choi_min"):
            assert report[key] == record[key]
        assert (report["omega1_rad_s"], report["omegaD_rad_s"], report["tau_c_s"]) == (
            record["omega1"], record["omegaD"], record["tauc"])

    def test_sweep_requires_grid(self, tmp_path):
        path = self._write_config(tmp_path, FIG2_DOC)
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "x")]) == 1

    def test_config_and_preset_are_exclusive(self):
        assert main(["validate", "--preset", "fig2", "--config", "x.json"]) == 1

    def test_requires_some_config(self):
        assert main(["validate"]) == 1


def test_repeated_runs_are_byte_identical(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(FIG2_DOC))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(out2)]) == 0
    for name in ("report.json", "trajectory.txt", "program.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_nonphysical_grid_point_rejected_at_validation(tmp_path):
    doc = json.loads(json.dumps(FIG2_DOC))
    doc["grid"] = {
        "omega1": ["2*pi*150 kHz"],
        "omegaD": ["2*pi*150 kHz"],
        "tau_c": ["0 s"],
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(path)]) == 1


def test_bath_via_kappa():
    doc = json.loads(json.dumps(FIG2_DOC))
    del doc["bath"]["tau_c"]
    doc["bath"]["kappa"] = "3544.9 1/sqrt(s)"
    cfg = parse_config(doc)
    np.testing.assert_allclose(cfg.bath.tau_c, 2.0 / 3544.9**2, rtol=1e-12)
