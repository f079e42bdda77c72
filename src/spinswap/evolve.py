"""Window-by-window propagation of the density matrix.

Generators are piecewise constant by construction, so each window is
applied as a matrix exponential in Liouville space (exact up to expm
accuracy, independent of the trajectory sampling step); zero-duration
segments are exact unitary conjugations.  `channel_pass` gives the program
channel and the final state with one full-window exponential per distinct
window and checks the channel (trace preservation, complete positivity);
`propagate` adds the sampled trajectory on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import choi_matrix, clip_to_density, conjugation_superop, expm, vec
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


class ChannelError(RuntimeError):
    """The program channel is not trace preserving or not completely positive."""


@dataclass(frozen=True)
class ChannelPass:
    """The program channel and the final state of one propagation.

    channel: Liouville-space superoperator of the whole program, the product
        of the window propagators in program order (identity for no windows).
    final_state: the initial state stepped through every window boundary
        (validated and clipped like a sampled state).
    meta: program metadata (initial/target labels and kets).
    tp_defect: trace-preservation defect max |vec(I)^dag S - vec(I)^dag|.
    choi_min: smallest eigenvalue of the unnormalized Choi matrix
        sum_ij |i><j| (x) S(|i><j|), whose trace is the dimension d (8 for
        three spins) when S is trace preserving; S is completely positive
        iff choi_min >= 0 (Choi, Linear Algebra Appl. 10, 285 (1975)).
    """

    channel: np.ndarray
    final_state: np.ndarray
    meta: dict
    tp_defect: float
    choi_min: float


@dataclass
class Trajectory:
    """Sampled states along a propagation.

    times: sample times in seconds (starting at 0).
    states: density matrices at those times (validated and clipped).
    meta: program metadata (initial/target labels and kets).
    clip_count: number of samples whose tiny negative eigenvalues were
        floored at zero; min_eigenvalue is the worst value seen pre-clip.
    channel_pass: the channel pass the samples were stepped alongside.
    """

    times: np.ndarray
    states: list[np.ndarray]
    meta: dict = field(default_factory=dict)
    clip_count: int = 0
    min_eigenvalue: float = 0.0
    channel_pass: ChannelPass | None = None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def channel(self) -> np.ndarray:
        return self.channel_pass.channel


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


def _unvec_rows(vs: np.ndarray, d: int) -> np.ndarray:
    """Rows of vectorized states as a (m, d, d) stack of views (column
    stacking)."""
    return vs.reshape(-1, d, d).transpose(0, 2, 1)


def _generator(spec, generators: dict) -> np.ndarray:
    """The generator of `spec`, assembled once per spec object.

    Windows that share a spec object share a generator (see
    compile_program).  The spec is stored with its generator so its id
    stays unique while `generators` lives.
    """
    if id(spec) not in generators:
        generators[id(spec)] = (spec, assemble(spec).gen)
    return generators[id(spec)][1]


def channel_pass(rho0: np.ndarray, windows, meta: dict | None = None,
                 generators: dict | None = None) -> ChannelPass:
    """The program channel and the final state, with no sampled states.

    Each distinct generator is assembled once and exponentiated once per
    distinct window duration, over the full window; the initial state is
    stepped through the window boundaries.  Raises ChannelError if the
    channel's trace-preservation defect exceeds TRACE_TOL or its Choi
    minimum lies below EIG_FLOOR, and the errors of the state checks
    (trace, Hermiticity, PositivityError) if a boundary state fails them.
    `generators` (by spec id, see `_generator`) may be passed in to reuse
    the assembled generators after the pass.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[0]
    generators = {} if generators is None else generators
    propagators: dict[tuple, np.ndarray] = {}
    t = 0.0
    times = [0.0]
    v = vec(rho0)
    vs = [v]
    channel = None
    for w in windows:
        if isinstance(w, UnitaryWindow):
            full = conjugation_superop(w.unitary)
        elif w.duration == 0.0:
            continue
        else:
            key = (id(w.spec), w.duration)
            if key not in propagators:
                propagators[key] = expm(_generator(w.spec, generators), w.duration)
            full = propagators[key]
            t += w.duration
        v = full @ v
        vs.append(v)
        times.append(t)
        channel = full if channel is None else full @ channel
    if channel is None:
        channel = np.eye(v.size, dtype=complex)
    trace_row = vec(np.eye(d)).conj()
    tp_defect = float(np.abs(trace_row @ channel - trace_row).max())
    if tp_defect > TRACE_TOL:
        raise ChannelError(f"channel not trace preserving: defect {tp_defect:.3e} "
                           f"above {TRACE_TOL:.0e}")
    choi = choi_matrix(channel)
    choi_min = float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min())
    if choi_min < EIG_FLOOR:
        raise ChannelError(f"channel not completely positive: Choi eigenvalue "
                           f"{choi_min:.3e} below floor {EIG_FLOOR:.0e}")
    states = _checked(_unvec_rows(np.array(vs), d), times, {"clips": 0, "min_eig": 0.0})
    return ChannelPass(channel, states[-1], dict(meta or {}), tp_defect, choi_min)


def propagate(rho0: np.ndarray, windows, sample_dt: float | None = None,
              meta: dict | None = None) -> Trajectory:
    """Propagate a density matrix through compiled windows, sampling states.

    The channel comes from `channel_pass`, whose assembled generators are
    reused here: each distinct (generator, duration, nsub) is exponentiated
    once more, over the sampling step, to record the states.  sample_dt
    controls trajectory recording only (default: each window is subdivided
    into 50 samples).  Raises PositivityError if any sampled state develops
    an eigenvalue below -1e-8; smaller negatives are clipped silently and
    counted.
    """
    generators: dict[int, tuple] = {}
    result = channel_pass(rho0, windows, meta, generators)
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[0]
    stats = {"clips": 0, "min_eig": 0.0}
    t = 0.0
    times = [0.0]
    states = _checked(rho0[None], times, stats)
    v = vec(rho0)
    steps: dict[tuple, np.ndarray] = {}
    for w in windows:
        if isinstance(w, UnitaryWindow):
            v = conjugation_superop(w.unitary) @ v
            # zero duration: a second sample at the current time holds the
            # state right after the unitary, so the jump stays visible
            new_times = [t]
            vs = v[None]
        elif w.duration == 0.0:
            continue
        else:
            nsub = 50 if sample_dt is None else max(1, int(np.ceil(w.duration / sample_dt)))
            key = (id(w.spec), w.duration, nsub)
            if key not in steps:
                steps[key] = expm(_generator(w.spec, generators), w.duration / nsub)
            step = steps[key]
            new_times = []
            vs = np.empty((nsub, v.size), dtype=complex)
            for k in range(nsub):
                v = step @ v
                vs[k] = v
                t += w.duration / nsub
                new_times.append(t)
        times.extend(new_times)
        states.extend(_checked(_unvec_rows(vs, d), new_times, stats))
    return Trajectory(
        np.array(times),
        states,
        dict(meta or {}),
        clip_count=stats["clips"],
        min_eigenvalue=stats["min_eig"],
        channel_pass=result,
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
