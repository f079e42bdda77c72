"""Window-by-window propagation of the density matrix.

Generators are piecewise constant by construction, so each window is
applied as a matrix exponential of its generator (exact up to expm
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
and read in that basis; only the states are converted back to row-major
d x d matrices (`linalg.from_pauli`), once per window, and checked as one
stack at the end of the walk.  A state whose Gershgorin discs all lie
above CERT_MARGIN is certified positive without an eigenvalue call; only
the others go to `eigvalsh`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .linalg import (choi_matrix, clip_to_density, expm, from_pauli,
                     single_blas_thread, to_pauli, trace_defect)
from .master import GeneratorSpec, assemble
from .sequences import IdealPi, VirtualZ, segment_transfer

TRACE_TOL = 1e-9
HERM_TOL = 1e-9
EIG_FLOOR = -1e-8
SAMPLES_PER_WINDOW = 50
# a state whose Gershgorin lower bound exceeds this is positive beyond the
# backward error of eigvalsh on a trace-1 state (a few d * eps), so its
# eigvalsh minimum would be positive: it could not lower min_eig (which
# starts at 0), be clipped or fail
CERT_MARGIN = 1e-12


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
    states: density matrices at those times (validated and clipped), one
        (m, d, d) complex array, each matrix row-major.
    clip_count: number of samples whose small negative eigenvalues (below
        minus `rounding_floor`) were floored at zero; min_eigenvalue is the
        worst value seen pre-clip, rounding-level ones included.
    channel_pass: the channel pass the samples were stepped alongside.
    """

    times: np.ndarray
    states: np.ndarray
    clip_count: int = 0
    min_eigenvalue: float = 0.0
    channel_pass: ChannelPass | None = None


def _gershgorin_lower(h: np.ndarray) -> np.ndarray:
    """Per matrix of a Hermitian stack, min_i (h_ii - sum_{j != i} |h_ij|):
    a lower bound on its smallest eigenvalue (Gershgorin discs)."""
    diag = h.diagonal(axis1=1, axis2=2).real
    return (diag + np.abs(diag) - np.abs(h).sum(axis=2)).min(axis=1)


def _checked(rhos: np.ndarray, times, stats: dict) -> np.ndarray:
    """Validate a time-ordered stack of sampled states, shape (m, d, d), and
    return a copy in the same memory layout with the clipped states
    replaced.

    Each sample must have finite entries, unit trace, be Hermitian and be
    positive, checked in that order; the first failing sample in time order
    raises.  Positivity is read from `eigvalsh` of the symmetrized state,
    except where the Gershgorin bound certifies it (above CERT_MARGIN), which
    changes no result.  Samples whose smallest eigenvalue lies in
    [EIG_FLOOR, -rounding_floor(d)) are clipped (`clip_to_density`) and
    counted in stats["clips"]; those in [-rounding_floor(d), 0) stay as
    they are and only reach stats["min_eig"].
    """
    nonfinite = ~np.isfinite(rhos).all(axis=(1, 2))
    # only the samples before the first non-finite one are checked further
    m = int(np.argmax(nonfinite)) if nonfinite.any() else len(rhos)
    head = rhos[:m]
    adj = head.conj().transpose(0, 2, 1)
    tr = np.trace(head, axis1=1, axis2=2)
    bad_trace = np.abs(tr - 1.0) > TRACE_TOL
    bad_herm = np.abs(head - adj).max(axis=(1, 2), initial=0.0) > HERM_TOL
    h = 0.5 * (head + adj)
    # certified samples keep their (positive) bound; a NaN bound certifies
    # nothing
    wmin = _gershgorin_lower(h)
    todo = ~(wmin > CERT_MARGIN)
    wmin[todo] = np.linalg.eigvalsh(h[todo]).min(axis=1)
    bad = bad_trace | bad_herm | (wmin < EIG_FLOOR)
    if bad.any():
        k = int(np.argmax(bad))
        t = times[k]
        if bad_trace[k]:
            raise RuntimeError(f"trace drifted to {tr[k]:.12f} at t = {t:.6e} s")
        if bad_herm[k]:
            raise RuntimeError(f"state lost Hermiticity at t = {t:.6e} s")
        raise PositivityError(t, float(wmin[k]))
    if m < len(rhos):
        raise RuntimeError(f"state has a non-finite entry at t = {times[m]:.6e} s")
    stats["min_eig"] = min(stats["min_eig"], float(wmin.min()))
    states = rhos.copy(order="K")
    clipped = np.flatnonzero(wmin < -rounding_floor(rhos.shape[-1]))
    for k in clipped:
        states[k] = clip_to_density(rhos[k])
    stats["clips"] += clipped.size
    return states


@single_blas_thread()
def _walk(rho0: np.ndarray, windows,
          sampled: bool) -> tuple[ChannelPass, Trajectory | None]:
    """One walk over the windows: the channel pass, and with `sampled` the
    sampled trajectory alongside it.

    Windows that share a spec object share a generator (see
    compile_program): each distinct generator is assembled once, as its real
    Pauli transfer matrix, and each distinct (generator, duration)
    exponentiated once over the full window and, with `sampled`, once over
    the sampling step duration / SAMPLES_PER_WINDOW.  Both memos are keyed
    by the spec itself, which compares and hashes by identity, and each
    entry keeps its spec alive, so `windows` may be any iterable, a lazy
    one included.  A zero-duration segment (`VirtualZ`, `IdealPi`) is its
    own window: its transfer matrix on the register of `rho0` comes from
    the per-segment cache (`sequences.segment_transfer`).  The sampled
    chain keeps its own state and clock, so its samples do not depend on
    the full-window propagators.  The channel, the
    boundary states and the samples are stepped as real Pauli coordinates;
    the boundary states are converted back to matrices after the walk and
    the samples once per window, the initial state kept as given.  The
    checks then run: the channel first (finite, trace preserving,
    completely positive), then the boundary states, then the samples, each
    stack in time order.  Every walk, whoever calls it, holds OpenBLAS at
    one thread (`linalg.single_blas_thread`): the 64x64 operands are too
    small to split.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    n = rho0.shape[0].bit_length() - 1
    generators: dict[GeneratorSpec, np.ndarray] = {}
    propagators: dict[tuple, tuple] = {}
    channel = None
    t = 0.0
    r = to_pauli(rho0)
    times, rs = [0.0], [r]
    t_sample = 0.0
    u = r
    sample_times, sample_states = [0.0], [rho0[None]]
    for w in windows:
        if isinstance(w, (VirtualZ, IdealPi)):
            # zero duration: one sample at the current time holds the state
            # right after the unitary, so the jump stays visible
            full = step = segment_transfer(w, n)
            nsub, dt = 1, 0.0
        elif w.duration == 0.0:
            continue
        else:
            nsub, dt = SAMPLES_PER_WINDOW, w.duration / SAMPLES_PER_WINDOW
            key = (w.spec, w.duration)
            if key not in propagators:
                if w.spec not in generators:
                    generators[w.spec] = assemble(w.spec)
                gen = generators[w.spec]
                propagators[key] = (expm(gen, w.duration),
                                    expm(gen, dt) if sampled else None)
            full, step = propagators[key]
            t += w.duration
        r = full @ r
        rs.append(r)
        times.append(t)
        channel = full if channel is None else full @ channel
        if sampled:
            us = np.empty((nsub, u.size))
            for k in range(nsub):
                u = step @ u
                us[k] = u
                t_sample += dt
                sample_times.append(t_sample)
            # converted per window: one product over every sample would sum
            # in another order and move the rounding-level eigenvalues
            sample_states.append(from_pauli(us))
    if channel is None:
        channel = np.eye(r.size)
    if not np.isfinite(channel).all():
        raise ChannelError("program channel has a non-finite entry")
    tp_defect = trace_defect(channel)
    if tp_defect > TRACE_TOL:
        raise ChannelError(f"channel not trace preserving: defect {tp_defect:.3e} "
                           f"above {TRACE_TOL:.0e}")
    choi = choi_matrix(channel)
    choi_min = float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min())
    if choi_min < EIG_FLOOR:
        raise ChannelError(f"channel not completely positive: Choi eigenvalue "
                           f"{choi_min:.3e} below floor {EIG_FLOOR:.0e}")
    states = from_pauli(np.array(rs))
    states[0] = rho0
    boundary = _checked(states, times, {"clips": 0, "min_eig": 0.0})
    result = ChannelPass(channel, boundary[-1], tp_defect, choi_min)
    if not sampled:
        return result, None
    stats = {"clips": 0, "min_eig": 0.0}
    states = _checked(np.concatenate(sample_states), sample_times, stats)
    return result, Trajectory(np.array(sample_times), states, clip_count=stats["clips"],
                              min_eigenvalue=stats["min_eig"], channel_pass=result)


def channel_pass(rho0: np.ndarray, windows) -> ChannelPass:
    """The program channel and the final state, with no sampled states.

    The initial state is stepped through the window boundaries.  Raises
    ChannelError if the channel has a non-finite entry, if its
    trace-preservation defect exceeds TRACE_TOL or if its Choi minimum lies
    below EIG_FLOOR, and the errors of the state checks (trace,
    Hermiticity, PositivityError) if a boundary state fails them.
    """
    return _walk(rho0, windows, sampled=False)[0]


def propagate(rho0: np.ndarray, windows) -> Trajectory:
    """The channel pass plus SAMPLES_PER_WINDOW sampled states per generator
    window and one per zero-duration segment.

    Raises what `channel_pass` raises, then PositivityError if a sampled
    state has an eigenvalue below EIG_FLOOR; smaller negatives beyond the
    rounding floor are clipped and counted.
    """
    return _walk(rho0, windows, sampled=True)[1]


def export_trajectory(traj: Trajectory, target: np.ndarray, out: TextIO) -> None:
    """Write the columnar text export to the open text file `out`: a header
    line, then one line per sample with the time, Re/Im of every entry
    (row-major) and the instantaneous fidelity against the `target` ket."""
    states = traj.states
    m, d = states.shape[:2]
    cols = ["time_s"] + [f"{part}_rho_{i}{j}" for i in range(d) for j in range(d)
                         for part in ("re", "im")] + ["fidelity"]
    # unpinned, the stacked product wakes a second BLAS thread that only spins
    with single_blas_thread():
        fid = (np.conj(target) @ states @ target).real
    # one float table: time, Re/Im interleaved per entry, fidelity
    table = np.hstack([np.asarray(traj.times, dtype=float)[:, None],
                       states.reshape(m, -1).view(float), fid[:, None]])
    row = ", ".join(["%.12g"] * len(cols)) + "\n"
    out.write(", ".join(cols) + "\n")
    # rows become Python floats and text one at a time, straight into `out`
    out.writelines(row % tuple(r.tolist()) for r in table)
