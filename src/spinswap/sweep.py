"""Grid sweeps of (omega_1, omega_D, tau_c) over the transport protocol.

Points are embarrassingly parallel: each one runs an independent
protocol -> compile -> channel pass -> report pipeline (`run_transport`,
which the simulate command shares) from immutable inputs.  Results are
gathered into deterministic row-major grid order (omega_1 outermost, tau_c
innermost) regardless of worker count, and a failed point yields a marked
record instead of aborting the sweep.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .evolve import Trajectory, channel_pass, propagate
from .linalg import ket2dm
from .metrics import TransferReport, report
from .model import BathSpec, ChainSpec, SecularMode
from .sequences import PulseProgram, compile_program, transport_protocol

TABLE_HEADER = (
    "omega1_rad_s, omegaD_rad_s, tauc_s, omega1_over_omegaSE, "
    "omegaD_over_omegaSE, tauc_times_omegaSE, fidelity, concurrence_23, "
    "efficiency, status"
)


@dataclass(frozen=True)
class GridSpec:
    """Sweep axes (raw values) and the fixed protocol parameters.

    Axis lists must be nonempty, strictly increasing and positive.  The
    chain's couplings are rescaled so every pair carries J = omega_D/2pi at
    each grid point; omega_SE is fixed by `bath` and tau_c is overridden
    per point.  `mode` (with its coarse-graining window) is the same at
    every point: a sweep corresponds to one figure, whose pulse sequence,
    hence the resolved regime of every pair, is fixed while omega_1,
    omega_D and tau_c vary.
    """

    omega1_values: tuple[float, ...]  # rad/s
    omegaD_values: tuple[float, ...]  # rad/s
    tauc_values: tuple[float, ...]  # s
    chain: ChainSpec
    bath: BathSpec
    mode: SecularMode
    refocus: bool = True
    scale_to_omega_se: bool = True

    def __post_init__(self):
        for name in ("omega1_values", "omegaD_values", "tauc_values"):
            vals = tuple(float(v) for v in getattr(self, name))
            object.__setattr__(self, name, vals)
            if not vals:
                raise ValueError(f"{name} must be nonempty")
            if any(v <= 0 for v in vals):
                raise ValueError(f"{name} must be positive")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError(f"{name} must be strictly increasing")

    def points(self):
        """Row-major order: omega_1 outermost, tau_c innermost."""
        for w1 in self.omega1_values:
            for wd in self.omegaD_values:
                for tc in self.tauc_values:
                    yield (w1, wd, tc)


@dataclass(frozen=True)
class SweepRecord:
    omega1: float
    omegaD: float
    tauc: float
    omega1_scaled: float
    omegaD_scaled: float
    tauc_scaled: float
    fidelity: float
    concurrence_23: float
    efficiency: float
    status: str
    wall_time: float
    error: str = ""  # exception message of a failed point
    warnings: tuple[str, ...] = ()  # unique "Category: message" raised by the point
    tp_defect: float = float("nan")  # program channel checks; NaN for a failed point
    choi_min: float = float("nan")


def run_transport(chain: ChainSpec, bath: BathSpec, mode: SecularMode,
                  omega1: float, omega_d: float, refocus: bool = True,
                  sampled: bool = False,
                  ) -> tuple[PulseProgram, Trajectory | None, TransferReport]:
    """Run the transport pipeline once: protocol, compile, channel pass, report.

    The report reads the final state and the channel of `evolve.channel_pass`.
    With `sampled` (simulate), `propagate` also records the sampled
    trajectory alongside that pass; without it (a sweep point) no state is
    sampled and the trajectory is None.  The protocol builder and the
    compiler resolve every pair's coupling form from the same `mode`.
    omega_d is echoed in the report only; the couplings are the chain's own.
    """
    program = transport_protocol(chain, omega1, mode, refocus=refocus)
    windows = compile_program(program, chain, bath, mode)
    rho0 = ket2dm(program.meta["initial_state"])
    if sampled:
        traj = propagate(rho0, windows, meta=program.meta)
        run = traj.channel_pass
    else:
        traj, run = None, channel_pass(rho0, windows, meta=program.meta)
    rep = report(run, chain, omega1=omega1, omega_d=omega_d,
                 tau_c=bath.tau_c, omega_se=bath.omega_se)
    return program, traj, rep


def evaluate_point(chain: ChainSpec, bath: BathSpec, mode: SecularMode,
                   omega1: float, omegaD: float, tauc: float,
                   refocus: bool = True) -> TransferReport:
    """Run the transport pipeline at one parameter point.

    Every coupling of the chain is rescaled to J = omega_D/2pi and the
    bath's tau_c is replaced by `tauc`.
    """
    j = omegaD / (2.0 * np.pi)
    chain_pt = replace(
        chain, couplings=tuple((a, b, j) for a, b, _ in chain.couplings)
    )
    bath_pt = BathSpec(omega_se=bath.omega_se, tau_c=tauc)
    return run_transport(chain_pt, bath_pt, mode, omega1, omegaD, refocus)[2]


def _point_record(args) -> SweepRecord:
    grid, w1, wd, tc = args
    wse = grid.bath.omega_se
    scale_w = 1.0 / wse if (grid.scale_to_omega_se and wse > 0) else 1.0
    scale_t = wse if grid.scale_to_omega_se else 1.0
    t0 = time.perf_counter()
    error = ""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rep = evaluate_point(grid.chain, grid.bath, grid.mode, w1, wd,
                                 tc, grid.refocus)
            fid, conc, eff, tp, choi, status = (
                rep.fidelity, rep.concurrence_23, rep.efficiency,
                rep.tp_defect, rep.choi_min, "ok",
            )
        except Exception as exc:  # failure containment: mark, never abort
            fid = conc = eff = tp = choi = float("nan")
            status = f"failed({type(exc).__name__})"
            error = str(exc)
    return SweepRecord(
        omega1=w1,
        omegaD=wd,
        tauc=tc,
        omega1_scaled=w1 * scale_w,
        omegaD_scaled=wd * scale_w,
        tauc_scaled=tc * scale_t,
        fidelity=fid,
        concurrence_23=conc,
        efficiency=eff,
        status=status,
        wall_time=time.perf_counter() - t0,
        error=error,
        warnings=tuple(dict.fromkeys(
            f"{w.category.__name__}: {w.message}" for w in caught)),
        tp_defect=tp,
        choi_min=choi,
    )


def run_sweep(grid: GridSpec, workers: int = 1) -> list[SweepRecord]:
    """Evaluate every grid point; output order is grid order always."""
    jobs = [(grid, w1, wd, tc) for (w1, wd, tc) in grid.points()]
    if workers <= 1:
        return [_point_record(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_point_record, jobs))


def argmax_report(records) -> SweepRecord:
    """Record with maximal fidelity; ties go to smaller omega_1, then tau_c."""
    ok = [r for r in records if r.status == "ok" and np.isfinite(r.fidelity)]
    if not ok:
        raise ValueError("all sweep points failed")
    return max(ok, key=lambda r: (r.fidelity, -r.omega1, -r.tauc, -r.omegaD))


def format_table(records) -> str:
    """Columnar text table, 12 significant digits, one row per grid point."""
    lines = [TABLE_HEADER]
    for r in records:
        lines.append(
            ", ".join(
                [
                    f"{r.omega1:.12g}",
                    f"{r.omegaD:.12g}",
                    f"{r.tauc:.12g}",
                    f"{r.omega1_scaled:.12g}",
                    f"{r.omegaD_scaled:.12g}",
                    f"{r.tauc_scaled:.12g}",
                    f"{r.fidelity:.12g}",
                    f"{r.concurrence_23:.12g}",
                    f"{r.efficiency:.12g}",
                    r.status,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def summary_dict(records, config_echo: dict | None = None) -> dict:
    """Machine-readable summary: records, argmax block, config echo."""
    best = None
    try:
        best = asdict(argmax_report(records))
    except ValueError:
        pass
    return {
        "records": [asdict(r) for r in records],
        "argmax": best,
        "config": config_echo or {},
    }
