"""Window-by-window propagation of the density matrix.

Generators are piecewise constant by construction, so each window is
applied as a matrix exponential in Liouville space (exact up to expm
accuracy, independent of the trajectory sampling step); zero-duration
segments are exact unitary conjugations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import clip_to_density, conjugation_superop, dagger, expm, unvec, vec
from .master import assemble
from .sequences import UnitaryWindow

TRACE_TOL = 1e-9
HERM_TOL = 1e-9
EIG_FLOOR = -1e-8


class PositivityError(RuntimeError):
    """State left the density-matrix cone beyond tolerance."""

    def __init__(self, time: float, eigenvalue: float):
        super().__init__(
            f"state eigenvalue {eigenvalue:.3e} below floor {EIG_FLOOR:.0e} "
            f"at t = {time:.6e} s"
        )
        self.time = time
        self.eigenvalue = eigenvalue


@dataclass
class Trajectory:
    """Sampled states along a propagation.

    times: sample times in seconds (starting at 0).
    states: density matrices at those times (validated and clipped).
    meta: program metadata (initial/target labels and kets).
    clip_count: number of samples whose tiny negative eigenvalues were
        floored at zero; min_eigenvalue is the worst value seen pre-clip.
    channel: Liouville-space superoperator of the whole propagation, the
        product of the window propagators in program order.
    """

    times: np.ndarray
    states: list[np.ndarray]
    meta: dict = field(default_factory=dict)
    clip_count: int = 0
    min_eigenvalue: float = 0.0
    channel: np.ndarray | None = None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _checked(rho: np.ndarray, t: float, stats: dict) -> np.ndarray:
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise RuntimeError(f"trace drifted to {tr:.12f} at t = {t:.6e} s")
    if np.max(np.abs(rho - dagger(rho))) > HERM_TOL:
        raise RuntimeError(f"state lost Hermiticity at t = {t:.6e} s")
    wmin = float(np.linalg.eigvalsh(0.5 * (rho + dagger(rho))).min())
    stats["min_eig"] = min(stats["min_eig"], wmin)
    if wmin < EIG_FLOOR:
        raise PositivityError(t, wmin)
    if wmin < 0.0:
        stats["clips"] += 1
        return clip_to_density(rho)
    return rho


def propagate(rho0: np.ndarray, windows, sample_dt: float | None = None,
              meta: dict | None = None) -> Trajectory:
    """Propagate a density matrix through compiled windows.

    One pass gives both the sampled trajectory and the program channel:
    each generator window is assembled once and exponentiated over the
    full window (a factor of the channel) and over the sampling step (the
    recorded states).  sample_dt controls trajectory recording only
    (default: each window is subdivided into 50 samples); the final state
    is independent of it.  Raises PositivityError if any sampled state
    develops an eigenvalue below -1e-8; smaller negatives are clipped
    silently and counted.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    stats = {"clips": 0, "min_eig": 0.0}
    t = 0.0
    times = [0.0]
    states = [_checked(rho0, 0.0, stats)]
    v = vec(rho0)
    channel = None
    for w in windows:
        if isinstance(w, UnitaryWindow):
            full = conjugation_superop(w.unitary)
            v = full @ v
            # zero duration: overwrite the current sample point
            times.append(t)
            states.append(_checked(unvec(v), t, stats))
        elif w.duration == 0.0:
            continue
        else:
            nsub = 50 if sample_dt is None else max(1, int(np.ceil(w.duration / sample_dt)))
            gen = assemble(w.spec).gen
            full = expm(gen, w.duration)
            step = expm(gen, w.duration / nsub)
            for _ in range(nsub):
                v = step @ v
                t += w.duration / nsub
                times.append(t)
                states.append(_checked(unvec(v), t, stats))
        channel = full if channel is None else full @ channel
    if channel is None:
        channel = np.eye(v.size, dtype=complex)
    return Trajectory(
        np.array(times),
        states,
        dict(meta or {}),
        clip_count=stats["clips"],
        min_eigenvalue=stats["min_eig"],
        channel=channel,
    )


def export_trajectory(traj: Trajectory, target: np.ndarray | None = None) -> str:
    """Columnar text export: time, Re/Im of every entry (row-major), and the
    instantaneous fidelity when a target ket is attached."""
    if target is None:
        target = traj.meta.get("target_state")
    d = traj.states[0].shape[0]
    cols = ["time_s"]
    for i in range(d):
        for j in range(d):
            cols += [f"re_rho_{i}{j}", f"im_rho_{i}{j}"]
    if target is not None:
        cols.append("fidelity")
    lines = [", ".join(cols)]
    for t, rho in zip(traj.times, traj.states):
        row = [f"{t:.12g}"]
        for i in range(d):
            for j in range(d):
                row += [f"{rho[i, j].real:.12g}", f"{rho[i, j].imag:.12g}"]
        if target is not None:
            fid = float(np.real(np.conj(target) @ rho @ target))
            row.append(f"{fid:.12g}")
        lines.append(", ".join(row))
    return "\n".join(lines) + "\n"
