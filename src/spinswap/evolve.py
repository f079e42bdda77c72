"""Window-by-window propagation of the density matrix.

Generators are piecewise constant by construction, so each window is
applied as a matrix exponential in Liouville space (exact up to expm
accuracy, independent of the trajectory sampling); zero-duration segments
are exact unitary conjugations.  `channel_pass` gives the program channel
and the final state with one full-window exponential per distinct window
and checks the channel (trace preservation, complete positivity);
`propagate` samples the trajectory in the same walk over the windows.

The walk runs in real arithmetic on Pauli transfer matrices and Pauli
coordinates: every generator preserves Hermiticity, so each is real in the
Pauli basis, and so are its exponentials, the channel and the states.
`master.assemble` gives each generator in that basis already, so the walk
converts no generator.  The channel stays a Pauli transfer matrix, checked
and read in that basis; only the states are converted back to column
stacking, once, at the end of the walk, and checked there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (choi_matrix, clip_to_density, expm, pauli_to_vecs,
                     single_blas_thread, trace_defect, vec, vecs_to_pauli)
from .master import assemble
from .sequences import UnitaryWindow

TRACE_TOL = 1e-9
HERM_TOL = 1e-9
EIG_FLOOR = -1e-8
SAMPLES_PER_WINDOW = 50


def rounding_floor(d: int) -> float:
    """d times machine epsilon: how far below zero rounding alone takes the
    smallest eigenvalue of a d x d state (a pure state has d - 1 zero
    eigenvalues).  States above minus this are not clipped."""
    return d * np.finfo(float).eps


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

    channel: real (float64) Pauli transfer matrix R_ij = Tr(P_i S(P_j)) of
        the program's channel S over `linalg.pauli_strings`: the product of
        the window propagators in program order (identity for no windows).
    final_state: the initial state stepped through every window boundary
        (validated and clipped like a sampled state).
    tp_defect: trace-preservation defect max_j |R_0j - delta_0j|.
    choi_min: smallest eigenvalue of the unnormalized Choi matrix
        sum_ij |i><j| (x) S(|i><j|), whose trace is the dimension d (8 for
        three spins) when S is trace preserving; S is completely positive
        iff choi_min >= 0 (Choi, Linear Algebra Appl. 10, 285 (1975)).
    """

    channel: np.ndarray
    final_state: np.ndarray
    tp_defect: float
    choi_min: float


@dataclass
class Trajectory:
    """Sampled states along a propagation.

    times: sample times in seconds (starting at 0).
    states: density matrices at those times (validated and clipped).
    clip_count: number of samples whose small negative eigenvalues (below
        minus `rounding_floor`) were floored at zero; min_eigenvalue is the
        worst value seen pre-clip, rounding-level ones included.
    channel_pass: the channel pass the samples were stepped alongside.
    """

    times: np.ndarray
    states: list[np.ndarray]
    clip_count: int = 0
    min_eigenvalue: float = 0.0
    channel_pass: ChannelPass | None = None


def _checked(rhos: np.ndarray, times, stats: dict) -> list[np.ndarray]:
    """Validate a time-ordered stack of sampled states, shape (m, d, d).

    Each sample must have unit trace, be Hermitian and be positive, checked
    in that order; the first failing sample in time order raises.  Samples
    whose smallest eigenvalue lies in [EIG_FLOOR, -rounding_floor(d)) are
    clipped one by one and counted; those in [-rounding_floor(d), 0) stay
    as they are and only reach stats["min_eig"].
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
    floor = -rounding_floor(rhos.shape[-1])
    for rho, w in zip(rhos, wmin):
        if w < floor:
            stats["clips"] += 1
            rho = clip_to_density(rho)
        states.append(rho)
    return states


def _unvec_rows(vs: np.ndarray, d: int) -> np.ndarray:
    """Rows of vectorized states as a (m, d, d) stack of views (column
    stacking)."""
    return vs.reshape(-1, d, d).transpose(0, 2, 1)


@single_blas_thread()
def _walk(rho0: np.ndarray, windows,
          sampled: bool) -> tuple[ChannelPass, Trajectory | None]:
    """One walk over the windows: the channel pass, and with `sampled` the
    sampled trajectory alongside it.

    Windows that share a spec object share a generator (see
    compile_program): each distinct generator is assembled once, as its real
    Pauli transfer matrix, and each distinct (generator, duration)
    exponentiated once over the full window and, with `sampled`, once over
    the sampling step duration / SAMPLES_PER_WINDOW.  Both are keyed by spec
    id, which stays unique because `windows` is a sequence that holds every
    spec for the whole walk.  Unitary windows bring their cached transfer
    matrices.  The sampled chain keeps its own state and clock, so its
    samples do not depend on the full-window propagators.  The channel, the
    boundary states and the samples are stepped as real Pauli coordinates;
    only the states are converted back to column stacking after the walk,
    the initial state kept as given.  The checks then run: the channel
    first, then the boundary states, then the samples, each in time order.  Every walk,
    whoever calls it, holds OpenBLAS at one thread
    (`linalg.single_blas_thread`): the 64x64 operands are too small to
    split.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[0]
    generators: dict[int, np.ndarray] = {}
    propagators: dict[tuple, tuple] = {}
    channel = None
    t = 0.0
    v0 = vec(rho0)
    r = vecs_to_pauli(v0)
    times, rs = [0.0], [r]
    t_sample = 0.0
    u = r
    # one (states, times) block per window, so each check stays small
    blocks = []
    for w in windows:
        if isinstance(w, UnitaryWindow):
            # zero duration: one sample at the current time holds the state
            # right after the unitary, so the jump stays visible
            full = step = w.transfer
            nsub, dt = 1, 0.0
        elif w.duration == 0.0:
            continue
        else:
            nsub, dt = SAMPLES_PER_WINDOW, w.duration / SAMPLES_PER_WINDOW
            key = (id(w.spec), w.duration)
            if key not in propagators:
                if id(w.spec) not in generators:
                    generators[id(w.spec)] = assemble(w.spec)
                gen = generators[id(w.spec)]
                propagators[key] = (expm(gen, w.duration),
                                    expm(gen, dt) if sampled else None)
            full, step = propagators[key]
            t += w.duration
        r = full @ r
        rs.append(r)
        times.append(t)
        channel = full if channel is None else full @ channel
        if sampled:
            us, ts = np.empty((nsub, u.size)), []
            for k in range(nsub):
                u = step @ u
                us[k] = u
                t_sample += dt
                ts.append(t_sample)
            blocks.append((us, ts))
    if channel is None:
        channel = np.eye(v0.size)
    tp_defect = trace_defect(channel)
    if tp_defect > TRACE_TOL:
        raise ChannelError(f"channel not trace preserving: defect {tp_defect:.3e} "
                           f"above {TRACE_TOL:.0e}")
    choi = choi_matrix(channel)
    choi_min = float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min())
    if choi_min < EIG_FLOOR:
        raise ChannelError(f"channel not completely positive: Choi eigenvalue "
                           f"{choi_min:.3e} below floor {EIG_FLOOR:.0e}")
    vs = pauli_to_vecs(np.array(rs))
    vs[0] = v0
    states = _checked(_unvec_rows(vs, d), times, {"clips": 0, "min_eig": 0.0})
    result = ChannelPass(channel, states[-1], tp_defect, choi_min)
    if not sampled:
        return result, None
    stats = {"clips": 0, "min_eig": 0.0}
    states = _checked(_unvec_rows(v0[None], d), [0.0], stats)
    sample_times = [0.0]
    for us, ts in blocks:
        states += _checked(_unvec_rows(pauli_to_vecs(us), d), ts, stats)
        sample_times += ts
    return result, Trajectory(np.array(sample_times), states, clip_count=stats["clips"],
                              min_eigenvalue=stats["min_eig"], channel_pass=result)


def channel_pass(rho0: np.ndarray, windows) -> ChannelPass:
    """The program channel and the final state, with no sampled states.

    The initial state is stepped through the window boundaries.  Raises
    ChannelError if the channel's trace-preservation defect exceeds
    TRACE_TOL or its Choi minimum lies below EIG_FLOOR, and the errors of
    the state checks (trace, Hermiticity, PositivityError) if a boundary
    state fails them.
    """
    return _walk(rho0, windows, sampled=False)[0]


def propagate(rho0: np.ndarray, windows) -> Trajectory:
    """The channel pass plus SAMPLES_PER_WINDOW sampled states per generator
    window and one per unitary window.

    Raises what `channel_pass` raises, then PositivityError if a sampled
    state has an eigenvalue below EIG_FLOOR; smaller negatives beyond the
    rounding floor are clipped and counted.
    """
    return _walk(rho0, windows, sampled=True)[1]


def export_trajectory(traj: Trajectory, target: np.ndarray) -> str:
    """Columnar text export: time, Re/Im of every entry (row-major), and the
    instantaneous fidelity against the `target` ket."""
    states = np.asarray(traj.states, dtype=complex)
    m, d = states.shape[:2]
    cols = ["time_s"] + [f"{part}_rho_{i}{j}" for i in range(d) for j in range(d)
                         for part in ("re", "im")] + ["fidelity"]
    fid = [float(np.real(np.conj(target) @ rho @ target)) for rho in traj.states]
    # one float table: time, Re/Im interleaved per entry, fidelity
    table = [np.asarray(traj.times, dtype=float)[:, None],
             states.reshape(m, -1).view(float), np.array(fid)[:, None]]
    row = ", ".join(["%.12g"] * len(cols))
    # rows become Python floats one at a time, and the trailing "" gives the
    # final newline without a second copy of the text
    lines = [", ".join(cols)] + [row % tuple(r.tolist()) for r in np.hstack(table)]
    lines.append("")
    return "\n".join(lines)
