"""Command-line front end.

Commands: simulate (single run, trajectory + report), gate-check (closed
system SWAP verification), sweep (parameter grid, heatmap-ready table),
validate (configuration check only).

Exit codes: 0 success, 1 validation or usage error, 2 physics-check
failure, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_config, load_preset, preset_names
from .evolve import export_trajectory
from .linalg import max_norm
from .model import ChainSpec
from .sequences import (
    SWAP_BUILDERS,
    U_SWAP,
    ideal_propagator,
    program_to_json,
    transport_protocol,
)
from .sweep import format_table, run_sweep, run_transport, summary_dict

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PHYSICS = 2
EXIT_RUNTIME = 3

GATE_UNITARY_TOL = 1e-10
GATE_PHASE_TOL = 1e-10
GATE_DELAY_REL_TOL = 1e-12


def _resolve_config(args) -> RunConfig:
    if args.preset and args.config:
        raise ConfigError("give either --config or --preset, not both")
    if args.preset:
        return load_preset(args.preset)
    if args.config:
        return load_config(args.config)
    raise ConfigError("a configuration is required (--config PATH or --preset NAME)")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_banner(cfg: RunConfig) -> str:
    return "# config: " + json.dumps(cfg.physics_echo(), sort_keys=True)


def cmd_validate(args) -> int:
    cfg = _resolve_config(args)
    print(f"config ok: {cfg.chain.nsites}-spin chain, protocol transport, "
          f"grid {'present' if cfg.grid else 'absent'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    out = _outdir(args)
    program, traj, rep = run_transport(cfg.chain, cfg.bath, cfg.omega1,
                                       cfg.refocusing, sampled=True)
    j = cfg.chain.coupling_j(program.meta["pair"])

    traj_path = out / "trajectory.txt"
    with open(traj_path, "w") as fh:
        fh.write(_config_banner(cfg) + "\n")
        export_trajectory(traj, program.meta["target_state"], fh)
    rep_doc = {
        "fidelity": rep.fidelity,
        "concurrence_23": rep.concurrence_23,
        "efficiency": rep.efficiency,
        "omega1_rad_s": cfg.omega1,
        "omegaD_rad_s": 2 * np.pi * j,
        "tau_c_s": cfg.bath.tau_c,
        "omega_se_rad_s": cfg.bath.omega_se,
        "transfer_time_s": rep.transfer_time_s,
        "clip_count": traj.clip_count,
        "min_eigenvalue": traj.min_eigenvalue,
        "tp_defect": rep.tp_defect,
        "choi_min": rep.choi_min,
        "config": cfg.physics_echo(),
    }
    (out / "report.json").write_text(json.dumps(rep_doc, indent=2))
    (out / "program.json").write_text(program_to_json(program))
    print(f"fidelity       {rep.fidelity:.6f}")
    print(f"concurrence_23 {rep.concurrence_23:.6f}")
    print(f"efficiency     {rep.efficiency:.6f}")
    print(f"wrote {traj_path} and {out / 'report.json'}")
    return EXIT_OK


def _gate_checks(cfg: RunConfig):
    """Yield (name, passed, detail) for the pair the transport program swaps.

    The gate is evaluated on the pair subspace alone (couplings to the
    bystander are the transport protocol's concern, not the gate's).  The
    pair keeps the coupling form the chain records for it, so gate-check
    and simulate use one sequence.
    """
    pair = transport_protocol(cfg.chain, cfg.omega1, cfg.refocusing).meta["pair"]
    _, _, j, regime = cfg.chain.coupling(pair)
    pair_chain = ChainSpec((cfg.chain.larmor[pair[0]], cfg.chain.larmor[pair[1]]),
                           ((0, 1, j, regime),))
    prog2 = SWAP_BUILDERS[regime]((0, 1), j, cfg.omega1)
    expected_phase = prog2.meta["global_phase"]
    u = ideal_propagator(prog2, pair_chain)
    phase = float(np.angle(u[0, 0]))
    mismatch = max_norm(u - np.exp(1j * phase) * U_SWAP)
    yield ("unitary match up to global phase", mismatch < GATE_UNITARY_TOL,
           f"max-norm deviation {mismatch:.3e}")
    phase_err = abs(np.exp(1j * phase) - np.exp(1j * expected_phase))
    yield (f"global phase = {expected_phase / np.pi:+.2f} pi",
           phase_err < GATE_PHASE_TOL,
           f"reported phase {phase / np.pi:+.6f} pi")
    budget, delays = prog2.meta["delay_budget"], prog2.delay_total
    yield ("delay budget 7/(2J)", abs(delays - budget) <= GATE_DELAY_REL_TOL * budget,
           f"delays total {delays:.9e} s vs 7/(2J) = {budget:.9e} s")


def cmd_gate_check(args) -> int:
    cfg = _resolve_config(args)
    failures = 0
    for name, passed, detail in _gate_checks(cfg):
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
        failures += 0 if passed else 1
    return EXIT_OK if failures == 0 else EXIT_PHYSICS


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    if cfg.grid is None:
        raise ConfigError("grid: required for the sweep command")
    out = _outdir(args)
    workers = args.workers if args.workers else cfg.workers
    records = run_sweep(cfg.grid, workers=workers)
    table = _config_banner(cfg) + "\n" + format_table(records)
    (out / "sweep.txt").write_text(table)
    summary = summary_dict(records, config_echo=cfg.echo)
    (out / "sweep_summary.json").write_text(json.dumps(summary, indent=2))
    best = summary["argmax"]
    if best is None:
        print("all sweep points failed", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"{len(records)} points -> {out / 'sweep.txt'}")
    print(
        f"argmax fidelity {best['fidelity']:.6f} at omega1 = {best['omega1']:.6g} rad/s, "
        f"omegaD = {best['omegaD']:.6g} rad/s, tau_c = {best['tauc']:.6g} s"
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_CONFIG on a usage error, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _worker_count(text: str) -> int:
    """--workers: an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinswap",
        description="SWAP-gate entanglement transport on dissipative dipolar chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    presets = preset_names()
    for name, fn in (
        ("simulate", cmd_simulate),
        ("gate-check", cmd_gate_check),
        ("sweep", cmd_sweep),
        ("validate", cmd_validate),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a JSON configuration")
        p.add_argument("--preset", choices=presets,
                       help="bundled reference configuration")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--workers", type=_worker_count, default=0,
                       help="parallel workers for sweeps (0 = from config)")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
