import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinswap.cli import build_parser, main
from spinswap.config import (
    ConfigError,
    load_preset,
    parse_config,
    parse_quantity,
)
import spinswap.cli as cli
import spinswap.config as config
import spinswap.model as model
import spinswap.sequences as sequences
from spinswap.model import Regime, default_coarse_grain_dt, resolve_regime
from spinswap.sweep import run_sweep, run_transport

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
        # a boolean is not a number, although bool subclasses int
        with pytest.raises(ConfigError, match="drive.omega1"):
            parse_quantity("True*2 kHz", "angular_frequency", "drive.omega1")


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
        # end spins 1.5e6 rad/s apart: the default window (from the bath and
        # the drive's omega_1) makes that pair zero-quantum, a pinned window
        # of 1 us makes it Ising; the chain records each pair's form and the
        # grid sweeps that same chain
        doc = json.loads(json.dumps(FIG2_DOC))
        doc["chain"]["larmor"][2] = "2*pi*10000 + 1500 kHz"
        doc["grid"] = {
            "omega1": ["2*pi*10 kHz", "2*pi*10000 kHz"],
            "omegaD": ["2*pi*150 kHz"],
            "tau_c": ["0.1/(2*pi*1e5) s"],
        }
        ising, zq = Regime.ISING_ONLY, Regime.ZERO_QUANTUM
        for regime, want in [
            ({}, [zq, ising, ising]),
            ({"mode": "auto", "coarse_grain_dt": "1 us"}, [ising, ising, ising]),
            ({"mode": "zero_quantum", "coarse_grain_dt": "4.11e-7 s"}, [zq, zq, zq]),
        ]:
            doc["regime"] = regime
            cfg = parse_config(doc)
            assert [c[3] for c in cfg.chain.couplings] == want
            assert cfg.grid.chain is cfg.chain
        dt = default_coarse_grain_dt(cfg.bath, cfg.omega1)
        larmor = cfg.chain.larmor
        assert [resolve_regime(Regime.AUTO, larmor[a], larmor[b], dt)
                for a, b, _, _ in cfg.chain.couplings] == [zq, ising, ising]

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


def test_preset_choices_are_the_preset_files():
    # --preset and load_preset both read the package's presets/*.json
    files = sorted(p.stem for p in (Path(config.__file__).parent / "presets").glob("*.json"))
    assert config.preset_names() == files
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command in sub.choices.values():
        preset = next(a for a in command._actions if "--preset" in a.option_strings)
        assert list(preset.choices) == files


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

    @pytest.mark.parametrize("expr", ["10**400", "1/0", "(-8)**0.5", "9**9**9"])
    def test_validate_rejects_failed_arithmetic(self, tmp_path, capsys, expr):
        # overflow, division by zero and a non-real value are configuration
        # errors; float operands keep 9**9**9 from building a huge integer
        doc = json.loads(json.dumps(FIG2_DOC))
        doc["drive"]["omega1"] = f"{expr} kHz"
        path = self._write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 1
        assert "drive.omega1" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("refocusing", "false"),
                                              ("grid.scale_to_omega_se", "false"),
                                              ("grid.scale_to_omega_se", False)])
    def test_validate_rejects_string_booleans(self, tmp_path, capsys, field, value):
        # bool("false") is True: only JSON true/false may set a flag, and
        # the sweep's ratio columns are always scaled (only true is accepted)
        doc = json.loads(json.dumps(FIG2_DOC))
        doc["grid"] = {"omega1": ["2*pi*150 kHz"], "omegaD": ["2*pi*150 kHz"],
                       "tau_c": ["0.1/(2*pi*1e5) s"]}
        section, _, key = field.rpartition(".")
        (doc[section] if section else doc)[key] = value
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

    @pytest.mark.parametrize("section, key, value, message", [
        ("chain", "larmor", None, "chain: missing field 'larmor'"),
        ("chain", "couplings", 5, "chain: 'int' object is not iterable"),
        ("bath", "omega_se", None, "bath: missing field 'omega_se'"),
        ("bath", "kappa", "1 1/sqrt(s)",
         "bath: tau_c and kappa inconsistent with tau_c = 2/kappa^2"),
        ("drive", "omega1", None, "drive: missing field 'omega1'"),
        ("regime", "coarse_grain_dt", "0 s",
         "regime.coarse_grain_dt: coarse_grain_dt must be positive"),
        ("chain", "j", "-1 Hz",
         "chain: coupling J of pair (0,2) must be finite and >= 0, got -1.0"),
        ("grid", "omegaD", None, "grid: missing field 'omegaD'"),
        ("grid", "tau_c", ["1 ns", "1 ns"], "grid: tauc_values must be strictly increasing"),
        ("chain.couplings[1]", "j", None, "chain.couplings[1]: missing field 'j'"),
        ("chain.couplings", 1, 5, "chain.couplings[1]: expected a JSON object, got 5"),
    ], ids=["no-larmor", "int-couplings", "no-omega_se", "inconsistent-kappa",
            "no-omega1", "zero-coarse-grain", "negative-j", "no-omegaD", "repeated-tau_c",
            "no-coupling-j", "int-coupling"])
    def test_validate_names_the_section(self, tmp_path, capsys, section, key, value,
                                        message):
        # every error read through one section prints "<section>: ..."
        doc = json.loads(json.dumps(FIG2_DOC))
        doc["regime"] = {}
        doc["grid"] = {"omega1": ["2*pi*150 kHz"], "omegaD": ["2*pi*150 kHz"],
                       "tau_c": ["0.1/(2*pi*1e5) s"]}
        couplings = doc["chain"]["couplings"]
        if section == "chain.couplings":
            part = couplings
        elif section == "chain.couplings[1]":
            part = couplings[1]
        else:
            part = couplings[0] if key == "j" else doc[section]
        if value is None:
            del part[key]
        else:
            part[key] = value
        path = self._write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    @pytest.mark.parametrize("section, key, misspelt", [
        ("", None, "refocussing"),
        ("chain", "larmor", "Larmor"),
        ("chain.couplings[0]", "j", "J"),
        ("bath", "omega_se", "omega_SE"),
        ("drive", "omega1", "omega_1"),
        ("regime", "coarse_grain_dt", "coarse_grain"),
        ("grid", "omegaD", "omega_d"),
        ("grid.omega1", "min", "Min"),
    ], ids=["top-level", "chain", "coupling", "bath", "drive", "regime", "grid",
            "range-spec"])
    def test_validate_names_an_unknown_field(self, tmp_path, capsys, section, key, misspelt):
        # a misspelt key is never ignored: "refocussing": false would run a
        # refocused protocol, and a misspelt required key reads as unknown,
        # not missing
        doc = json.loads(json.dumps(FIG2_DOC))
        doc["regime"] = {"mode": "auto", "coarse_grain_dt": "4e-7 s"}
        doc["grid"] = {"omega1": {"log_points": 3, "min": "2*pi*10 kHz",
                                  "max": "2*pi*1000 kHz"},
                       "omegaD": ["2*pi*150 kHz"], "tau_c": ["0.1/(2*pi*1e5) s"]}
        part = dict(doc, **{"": doc, "chain.couplings[0]": doc["chain"]["couplings"][0],
                            "grid.omega1": doc["grid"]["omega1"]})[section]
        value = part.pop(key) if key else False
        part[misspelt] = value
        path = self._write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 1
        where = section or "top level"
        assert capsys.readouterr().err == (
            f"configuration error: {where}: unknown field {misspelt!r}\n")

    @pytest.mark.parametrize("pair", [[2, 0], [0, 2]], ids=["reversed", "same-order"])
    def test_validate_rejects_repeated_coupling_pair(self, tmp_path, capsys, pair):
        doc = json.loads(json.dumps(FIG2_DOC))
        doc["chain"]["couplings"].append({"pair": pair, "j": "150 kHz"})
        path = self._write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 1
        assert f"chain: coupling pair ({pair[0]},{pair[1]}) listed twice" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["auto", "ising_only"])
    def test_validate_rejects_pair_outside_chain(self, tmp_path, capsys, mode):
        # the pair is named by ChainSpec, never resolved against a missing spin
        doc = json.loads(json.dumps(FIG2_DOC))
        doc["chain"]["couplings"].append({"pair": [1, 3], "j": "150 kHz"})
        doc["regime"] = {"mode": mode}
        path = self._write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 1
        assert "chain: coupling pair (1,3) invalid for 3 sites" in capsys.readouterr().err

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
        # omega_1) puts end spins 1.5e6 rad/s apart in the zero-quantum regime
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
        program = json.loads((out / "program.json").read_text())
        duration = sum(seg.get("duration_s", 0.0) for seg in program["segments"])
        assert report["transfer_time_s"] == pytest.approx(duration, rel=1e-14)
        assert report["transfer_time_s"] > 0
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

        def flaky(chain, bath, omega1, *args):
            if omega1 < 2 * np.pi * 1.2e5:
                raise ValueError("boom, x")
            return original(chain, bath, omega1, *args)

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

    def _two_point_sweep(self, tmp_path):
        doc = json.loads(json.dumps(FIG2_DOC))
        doc["grid"] = {
            "omega1": ["2*pi*100 kHz", "2*pi*150 kHz"],
            "omegaD": ["2*pi*150 kHz"],
            "tau_c": ["0.1/(2*pi*1e5) s"],
        }
        return self._write_config(tmp_path, doc)

    def test_sweep_prints_the_summary_argmax(self, tmp_path, capsys):
        path = self._two_point_sweep(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out", str(out), "--workers", "1"]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        best = summary["argmax"]
        assert best == max(summary["records"], key=lambda r: r["fidelity"])
        assert capsys.readouterr().out.splitlines() == [
            f"2 points -> {out / 'sweep.txt'}",
            f"argmax fidelity {best['fidelity']:.6f} at omega1 = {best['omega1']:.6g} "
            f"rad/s, omegaD = {best['omegaD']:.6g} rad/s, tau_c = {best['tauc']:.6g} s",
        ]

    def test_sweep_with_every_point_failed_exits_3(self, tmp_path, capsys, monkeypatch):
        import spinswap.sweep as sweep

        def fail(*args):
            raise RuntimeError("no point")

        monkeypatch.setattr(sweep, "evaluate_point", fail)
        path = self._two_point_sweep(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out", str(out), "--workers", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "all sweep points failed\n"
        assert captured.out == ""
        assert json.loads((out / "sweep_summary.json").read_text())["argmax"] is None
        rows = (out / "sweep.txt").read_text().strip().split("\n")[2:]
        assert [r.split(", ")[-1] for r in rows] == ["failed(RuntimeError)"] * 2

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
        for key in ("fidelity", "concurrence_23", "efficiency", "tp_defect", "choi_min",
                    "transfer_time_s"):
            assert report[key] == record[key]
        assert (report["omega1_rad_s"], report["omegaD_rad_s"], report["tau_c_s"]) == (
            record["omega1"], record["omegaD"], record["tauc"])

    @pytest.mark.parametrize("preset", ["fig2", "fig3"])
    def test_report_echoes_the_config(self, tmp_path, preset):
        out = tmp_path / preset
        assert main(["simulate", "--preset", preset, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert list(report) == [
            "fidelity", "concurrence_23", "efficiency", "omega1_rad_s",
            "omegaD_rad_s", "tau_c_s", "omega_se_rad_s", "transfer_time_s",
            "clip_count", "min_eigenvalue", "tp_defect", "choi_min", "config",
        ]
        cfg = load_preset(preset)
        assert report["omega1_rad_s"] == cfg.omega1
        assert report["omegaD_rad_s"] == 2 * np.pi * cfg.chain.coupling_j((0, 2))
        assert report["tau_c_s"] == cfg.bath.tau_c
        assert report["omega_se_rad_s"] == cfg.bath.omega_se
        # chain.geometry selects nothing but is echoed with the rest
        assert report["config"] == cfg.physics_echo()
        assert report["config"]["chain"]["geometry"] in ("z-chain", "x-chain")

    def test_sweep_requires_grid(self, tmp_path):
        path = self._write_config(tmp_path, FIG2_DOC)
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "x")]) == 1

    def test_config_and_preset_are_exclusive(self):
        assert main(["validate", "--preset", "fig2", "--config", "x.json"]) == 1

    def test_requires_some_config(self):
        assert main(["validate"]) == 1

    @pytest.mark.parametrize("command", ["validate", "simulate", "gate-check"])
    @pytest.mark.parametrize("case, message", [
        ("four-spins", "chain: transport protocol needs a 3-spin chain"),
        ("uncoupled-ends", "chain: chain must couple spins 1 and 3 (sites 0 and 2)"),
    ])
    def test_chain_the_transport_cannot_run_rejected(self, tmp_path, capsys, command,
                                                     case, message):
        # a fourth spin, or no coupling between the end spins, is a
        # configuration error for every command, not a runtime failure of
        # simulate or a gate check of another pair
        doc = json.loads(json.dumps(FIG2_DOC))
        if case == "four-spins":
            doc["chain"]["larmor"].append("2*pi*250 kHz")
        else:
            doc["chain"]["couplings"] = [c for c in doc["chain"]["couplings"]
                                         if c["pair"] != [0, 2]]
        path = self._write_config(tmp_path, doc)
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "[PASS]" not in captured.out

    @pytest.mark.parametrize("argv, field", [
        (["validate", "--preset", "fig9"], "--preset"),
        (["sweep", "--preset", "fig2", "--workers", "-4"], "--workers"),
        (["sweep", "--preset", "fig2", "--workers", "two"], "--workers"),
        (["frobnicate"], "command"),
    ], ids=["unknown-preset", "negative-workers", "non-integer-workers", "unknown-command"])
    def test_usage_error_exits_with_the_config_code(self, capsys, argv, field):
        # exit code 2 is a failed physics check; a usage error is 1
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert f"argument {field}" in capsys.readouterr().err

    def test_help_exits_0_and_zero_workers_reads_the_config(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        assert "--workers" in capsys.readouterr().out
        assert build_parser().parse_args(["sweep", "--workers", "0"]).workers == 0


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


@pytest.mark.parametrize("preset", ["fig2", "fig3"])
def test_regime_resolved_only_at_load(tmp_path, monkeypatch, preset):
    # loading a config resolves each coupling once; a simulate run and the
    # points of a serial sweep read the resolved chain and resolve nothing
    calls = []
    real = model.resolve_regime

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(model, "resolve_regime", counting)
    monkeypatch.setattr(config, "resolve_regime", counting)
    cfg = load_preset(preset)
    ncouplings = len(cfg.chain.couplings)
    assert ncouplings == 3 and len(calls) == ncouplings
    run_transport(cfg.chain, cfg.bath, cfg.omega1, cfg.refocusing, sampled=True)
    records = run_sweep(cfg.grid, workers=1)
    assert all(r.status == "ok" for r in records)
    assert len(calls) == ncouplings
    # each command loads the config once, and resolves nothing after it
    assert main(["simulate", "--preset", preset, "--out", str(tmp_path / "sim")]) == 0
    assert len(calls) == 2 * ncouplings
    assert main(["sweep", "--preset", preset, "--workers", "1",
                 "--out", str(tmp_path / "sweep")]) == 0
    assert len(calls) == 3 * ncouplings


@pytest.mark.parametrize("preset, regime, builder", [
    ("fig2", Regime.ISING_ONLY, "swap_nonidentical"),
    ("fig3", Regime.ZERO_QUANTUM, "swap_identical"),
])
def test_one_swap_builder_per_regime(monkeypatch, preset, regime, builder):
    # the mapping's builder for the chain's (0, 2) form records that form,
    # and transport_protocol and gate-check both build through it
    cfg = load_preset(preset)
    assert cfg.chain.coupling((0, 2))[3] == regime
    build = sequences.SWAP_BUILDERS[regime]
    assert build.__name__ == builder
    assert build((0, 2), 1.5e5, cfg.omega1).meta["regime"] == regime.value
    seen = []
    for r, b in list(sequences.SWAP_BUILDERS.items()):
        monkeypatch.setitem(sequences.SWAP_BUILDERS, r,
                            lambda *args, b=b: seen.append(b) or b(*args))
    program = sequences.transport_protocol(cfg.chain, cfg.omega1, cfg.refocusing)
    assert program.meta["regime"] == regime.value and seen == [build]
    seen.clear()
    assert all(passed for _, passed, _ in cli._gate_checks(cfg))
    # the transport program that names the pair, then the pair's own SWAP
    assert seen == [build, build]


def test_runtime_imports_no_scipy(tmp_path):
    # scipy is a test dependency only; the test process has it loaded, so
    # the run goes through a fresh interpreter
    code = (
        "import sys\n"
        "from spinswap.cli import main\n"
        f"assert main(['simulate', '--preset', 'fig3', '--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.json").is_file()
    assert proc.stdout.splitlines()[-1] == "[]"
