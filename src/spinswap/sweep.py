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
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .evolve import Trajectory, channel_pass, propagate
from .linalg import ket2dm
from .metrics import TransferReport, report
from .model import BathSpec, ChainSpec, _check_positive_finite
from .sequences import PulseProgram, compile_program, transport_protocol

# the numeric columns of the sweep table: (header, SweepRecord field);
# the status column follows them
_NUMERIC_COLUMNS = (
    ("omega1_rad_s", "omega1"),
    ("omegaD_rad_s", "omegaD"),
    ("tauc_s", "tauc"),
    ("omega1_over_omegaSE", "omega1_scaled"),
    ("omegaD_over_omegaSE", "omegaD_scaled"),
    ("tauc_times_omegaSE", "tauc_scaled"),
    ("fidelity", "fidelity"),
    ("concurrence_23", "concurrence_23"),
    ("efficiency", "efficiency"),
)
TABLE_HEADER = ", ".join([name for name, _ in _NUMERIC_COLUMNS] + ["status"])


@dataclass(frozen=True)
class GridSpec:
    """Sweep axes (raw values) and the fixed protocol parameters.

    Axis lists must be nonempty, strictly increasing, positive and finite.
    The chain's couplings are rescaled so every pair carries J = omega_D/2pi
    at each grid point, each in the coupling form the chain records for it: a
    sweep corresponds to one figure, whose pulse sequence is fixed while
    omega_1, omega_D and tau_c vary.  omega_SE is fixed by `bath` and tau_c
    is overridden per point.
    """

    omega1_values: tuple[float, ...]  # rad/s
    omegaD_values: tuple[float, ...]  # rad/s
    tauc_values: tuple[float, ...]  # s
    chain: ChainSpec
    bath: BathSpec
    refocus: bool = True

    def __post_init__(self):
        for name in ("omega1_values", "omegaD_values", "tauc_values"):
            vals = tuple(float(v) for v in getattr(self, name))
            object.__setattr__(self, name, vals)
            if not vals:
                raise ValueError(f"{name} must be nonempty")
            for v in vals:
                _check_positive_finite(name, v)
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
    transfer_time_s: float = float("nan")  # protocol duration; NaN for a failed point


def run_transport(chain: ChainSpec, bath: BathSpec, omega1: float,
                  refocus: bool = True, sampled: bool = False,
                  ) -> tuple[PulseProgram, Trajectory | None, TransferReport]:
    """Run the transport pipeline once: protocol, compile, channel pass, report.

    The report reads the final state and the channel of `evolve.channel_pass`.
    With `sampled` (simulate), `propagate` also records the sampled
    trajectory alongside that pass; without it (a sweep point) no state is
    sampled and the trajectory is None.  The protocol builder and the
    compiler read every pair's coupling form from the chain.
    """
    program = transport_protocol(chain, omega1, refocus=refocus)
    windows = compile_program(program, chain, bath)
    rho0 = ket2dm(program.meta["initial_state"])
    if sampled:
        traj = propagate(rho0, windows)
        run = traj.channel_pass
    else:
        traj, run = None, channel_pass(rho0, windows)
    rep = report(run, program, chain)
    return program, traj, rep


def evaluate_point(chain: ChainSpec, bath: BathSpec, omega1: float,
                   omegaD: float, tauc: float, refocus: bool = True) -> TransferReport:
    """Run the transport pipeline at one parameter point.

    Every coupling of the chain is rescaled to J = omega_D/2pi, keeping its
    regime, and the bath's tau_c is replaced by `tauc`.
    """
    j = omegaD / (2.0 * np.pi)
    chain_pt = replace(chain, couplings=tuple((a, b, j, r)
                                              for a, b, _, r in chain.couplings))
    bath_pt = BathSpec(omega_se=bath.omega_se, tau_c=tauc)
    return run_transport(chain_pt, bath_pt, omega1, refocus)[2]


def _point_record(args) -> SweepRecord:
    """The point's record: the report's fields (NaN for a failed point) and
    the axis values over omega_SE (NaN ratios at omega_SE = 0)."""
    grid, w1, wd, tc = args
    wse = grid.bath.omega_se
    scale_w = 1.0 / wse if wse > 0 else float("nan")
    t0 = time.perf_counter()
    error = ""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rep = evaluate_point(grid.chain, grid.bath, w1, wd, tc, grid.refocus)
            observed, status = asdict(rep), "ok"
        except Exception as exc:  # failure containment: mark, never abort
            observed = {f.name: float("nan") for f in fields(TransferReport)}
            status = f"failed({type(exc).__name__})"
            error = str(exc)
    return SweepRecord(
        omega1=w1,
        omegaD=wd,
        tauc=tc,
        omega1_scaled=w1 * scale_w,
        omegaD_scaled=wd * scale_w,
        tauc_scaled=tc * wse,
        status=status,
        wall_time=time.perf_counter() - t0,
        error=error,
        warnings=tuple(dict.fromkeys(
            f"{w.category.__name__}: {w.message}" for w in caught)),
        **observed,
    )


def run_sweep(grid: GridSpec, workers: int = 1) -> list[SweepRecord]:
    """Evaluate every grid point; output order is grid order always.  At
    most one worker process per point, since a pool starts all of its
    workers up front; one worker, or one point, runs in this process."""
    jobs = [(grid, w1, wd, tc) for (w1, wd, tc) in grid.points()]
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [_point_record(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_point_record, jobs))


def argmax_report(records) -> SweepRecord:
    """Record with maximal fidelity; ties go to smaller omega_1, then
    tau_c, then omega_D."""
    ok = [r for r in records if r.status == "ok" and np.isfinite(r.fidelity)]
    if not ok:
        raise ValueError("all sweep points failed")
    return max(ok, key=lambda r: (r.fidelity, -r.omega1, -r.tauc, -r.omegaD))


def format_table(records) -> str:
    """Columnar text table, 12 significant digits, one row per grid point."""
    lines = [TABLE_HEADER]
    for r in records:
        cells = [f"{getattr(r, name):.12g}" for _, name in _NUMERIC_COLUMNS]
        lines.append(", ".join(cells + [r.status]))
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
