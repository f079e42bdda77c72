"""Window-by-window propagation of the density matrix.

Generators are piecewise constant by construction, so each window is
applied as a matrix exponential in Liouville space (exact up to expm
accuracy, independent of the trajectory sampling step); zero-duration
segments are exact unitary conjugations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import clip_to_density, conjugation_superop, expm, vec
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


def _checked(rhos: np.ndarray, times, stats: dict) -> list[np.ndarray]:
    """Validate a time-ordered stack of sampled states, shape (m, d, d).

    Each sample must have unit trace, be Hermitian and be positive, checked
    in that order; the first failing sample in time order raises.  Samples
    whose smallest eigenvalue lies in [EIG_FLOOR, 0) are clipped one by one
    and counted.
    """
    adj = rhos.conj().transpose(0, 2, 1)
    tr = np.trace(rhos, axis1=1, axis2=2)
    bad_trace = np.abs(tr - 1.0) > TRACE_TOL
    bad_herm = np.abs(rhos - adj).max(axis=(1, 2)) > HERM_TOL
    wmin = np.linalg.eigvalsh(0.5 * (rhos + adj)).min(axis=1)
    bad = bad_trace | bad_herm | (wmin < EIG_FLOOR)
    if bad.any():
        k = int(np.argmax(bad))
        t = times[k]
        if bad_trace[k]:
            raise RuntimeError(f"trace drifted to {tr[k]:.12f} at t = {t:.6e} s")
        if bad_herm[k]:
            raise RuntimeError(f"state lost Hermiticity at t = {t:.6e} s")
        raise PositivityError(t, float(wmin[k]))
    stats["min_eig"] = min(stats["min_eig"], float(wmin.min()))
    states = []
    for rho, w in zip(rhos, wmin):
        if w < 0.0:
            stats["clips"] += 1
            rho = clip_to_density(rho)
        states.append(rho)
    return states


def propagate(rho0: np.ndarray, windows, sample_dt: float | None = None,
              meta: dict | None = None) -> Trajectory:
    """Propagate a density matrix through compiled windows.

    One pass gives both the sampled trajectory and the program channel:
    each distinct generator is assembled once and exponentiated, once per
    distinct window duration, over the full window (a factor of the
    channel) and over the sampling step (the recorded states).  sample_dt
    controls trajectory recording only (default: each window is subdivided
    into 50 samples); the final state is independent of it.  Raises
    PositivityError if any sampled state develops an eigenvalue below
    -1e-8; smaller negatives are clipped silently and counted.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[0]
    stats = {"clips": 0, "min_eig": 0.0}
    t = 0.0
    times = [0.0]
    states = _checked(rho0[None], times, stats)
    v = vec(rho0)
    channel = None
    # Windows that share a spec object share a generator (see
    # compile_program): assemble each once, and exponentiate each
    # (generator, duration, nsub) once.  The spec is stored with its
    # generator so its id stays unique for the whole pass.
    generators: dict[int, tuple] = {}
    propagators: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    for w in windows:
        if isinstance(w, UnitaryWindow):
            full = conjugation_superop(w.unitary)
            v = full @ v
            # zero duration: a second sample at the current time holds the
            # state right after the unitary, so the jump stays visible
            new_times = [t]
            vs = v[None]
        elif w.duration == 0.0:
            continue
        else:
            nsub = 50 if sample_dt is None else max(1, int(np.ceil(w.duration / sample_dt)))
            key = (id(w.spec), w.duration, nsub)
            if key not in propagators:
                if id(w.spec) not in generators:
                    generators[id(w.spec)] = (w.spec, assemble(w.spec).gen)
                gen = generators[id(w.spec)][1]
                propagators[key] = (expm(gen, w.duration), expm(gen, w.duration / nsub))
            full, step = propagators[key]
            new_times = []
            vs = np.empty((nsub, v.size), dtype=complex)
            for k in range(nsub):
                v = step @ v
                vs[k] = v
                t += w.duration / nsub
                new_times.append(t)
        times.extend(new_times)
        # each row unvec'd (column stacking): a (len, d, d) stack of views
        states.extend(_checked(vs.reshape(-1, d, d).transpose(0, 2, 1), new_times, stats))
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


def export_trajectory(traj: Trajectory) -> str:
    """Columnar text export: time, Re/Im of every entry (row-major), and the
    instantaneous fidelity when the metadata carry a target ket."""
    target = traj.meta.get("target_state")
    states = np.asarray(traj.states, dtype=complex)
    m, d = states.shape[:2]
    cols = ["time_s"] + [f"{part}_rho_{i}{j}" for i in range(d) for j in range(d)
                         for part in ("re", "im")]
    # one float table: time, Re/Im interleaved per entry, fidelity
    table = [np.asarray(traj.times, dtype=float)[:, None],
             states.reshape(m, -1).view(float)]
    if target is not None:
        cols.append("fidelity")
        fid = [float(np.real(np.conj(target) @ rho @ target)) for rho in traj.states]
        table.append(np.array(fid)[:, None])
    row = ", ".join(["%.12g"] * len(cols))
    # rows become Python floats one at a time, and the trailing "" gives the
    # final newline without a second copy of the text
    lines = [", ".join(cols)] + [row % tuple(r.tolist()) for r in np.hstack(table)]
    lines.append("")
    return "\n".join(lines)
