"""Window-by-window propagation of the density matrix.

Generators are piecewise constant by construction, so each window is
applied as a matrix exponential of its generator (exact up to expm
accuracy, independent of the trajectory sampling); zero-duration segments
are exact unitary conjugations.  `channel_pass` gives the program channel,
the product of the window propagators, and the final state, read off that
channel, and checks the channel (trace preservation, complete
positivity); `propagate` samples the trajectory in the same walk over the
windows.  The propagator of a distinct (generator, time) is computed
once per process while it stays in a bounded cache
(`_propagator`, PROPAGATOR_CACHE_SIZE entries) that serves every walk:
a sweep point at a new omega_1 reuses the delays of the points before it.

The walk runs in real arithmetic on Pauli transfer matrices and Pauli
coordinates: every generator preserves Hermiticity, so each is real in the
Pauli basis, and so are its exponentials, the channel and the states.
`master.assemble` gives each generator in that basis already, so the walk
converts no generator.  The channel stays a Pauli transfer matrix, checked
and read in that basis; only the states are converted back to row-major
d x d matrices (`linalg.from_pauli`), the samples once per window, and
checked as one stack at the end of the walk.  A state whose Gershgorin
discs all lie above CERT_MARGIN is certified positive without an
eigenvalue call; only the others go to `eigvalsh`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TextIO

import numpy as np

from .linalg import (choi_matrix, clip_to_density, expm, from_pauli,
                     hermitian_min_eigenvalue, read_only, single_blas_thread,
                     to_pauli, trace_defect)
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
# (spec, t) propagators a process keeps, one 64x64 float64 matrix (32 kB)
# each for three spins: at most 1 MB in all.  A fig2 sweep point uses 11
# (8 pulse, 3 delay), a fig3 point 4 (2 and 2), and `simulate` twice as
# many, the sampling steps too.  Points that share omega_D and tau_c share
# the delays, and the grid puts omega_D x tau_c innermost, so the delays
# survive to the next omega_1 only on a small inner grid: all of them up to
# 2 (omega_D, tau_c) combinations at fig2 and 7 at fig3, some at 3 and 8,
# none beyond.
PROPAGATOR_CACHE_SIZE = 32


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
    final_state: the channel applied to the initial state,
        from_pauli(channel @ to_pauli(rho0)) (validated and clipped like a
        sampled state).
    tp_defect: trace-preservation defect max_j |R_0j - delta_0j|.
    choi_min: smallest eigenvalue of the unnormalized Choi matrix
        sum_ij |i><j| (x) S(|i><j|), whose trace is the dimension d (8 for
        three spins) when S is trace preserving; S is completely positive
        iff choi_min >= 0 (Choi, Linear Algebra Appl. 10, 285 (1975)).
        Taken per exact diagonal block of the symmetrized Choi matrix
        (`linalg.hermitian_min_eigenvalue`).
    """

    channel: np.ndarray
    final_state: np.ndarray
    tp_defect: float
    choi_min: float


@dataclass
class Trajectory:
    """Sampled states along a propagation, built from what their state
    check (`_checked`) returns.

    times: sample times in seconds (starting at 0).
    states: density matrices at those times (validated and clipped), one
        (m, d, d) complex array, each matrix row-major.
    clip_count: number of samples whose small negative eigenvalues (below
        minus `rounding_floor`) were floored at zero; min_eigenvalue is the
        worst value seen pre-clip, rounding-level ones included, or 0 if
        no sample has a negative one.
    channel_pass: the channel pass the samples were stepped alongside.
    """

    times: np.ndarray
    states: np.ndarray
    clip_count: int
    min_eigenvalue: float
    channel_pass: ChannelPass


def _gershgorin_lower(h: np.ndarray) -> np.ndarray:
    """Per matrix of a Hermitian stack, min_i (h_ii - sum_{j != i} |h_ij|):
    a lower bound on its smallest eigenvalue (Gershgorin discs)."""
    diag = h.diagonal(axis1=1, axis2=2).real
    return (diag + np.abs(diag) - np.abs(h).sum(axis=2)).min(axis=1)


def _checked(rhos: np.ndarray, times) -> tuple[np.ndarray, int, float]:
    """Validate a time-ordered stack of sampled states, shape (m, d, d), and
    return (states, clips, min_eig): a copy of the stack in the same memory
    layout with the clipped states replaced, the number of clipped states,
    and the smallest eigenvalue seen before clipping, or 0 if none is
    negative.

    Each sample must have finite entries, unit trace, be Hermitian and be
    positive, checked in that order; the first failing sample in time order
    raises.  Positivity is read from `eigvalsh` of the symmetrized state,
    except where the Gershgorin bound certifies it (above CERT_MARGIN), which
    changes no result.  Samples whose smallest eigenvalue lies in
    [EIG_FLOOR, -rounding_floor(d)) are clipped (`clip_to_density`) and
    counted in clips; those in [-rounding_floor(d), 0) stay as they are
    and only reach min_eig.
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
    states = rhos.copy(order="K")
    clipped = np.flatnonzero(wmin < -rounding_floor(rhos.shape[-1]))
    for k in clipped:
        states[k] = clip_to_density(rhos[k])
    return states, clipped.size, min(0.0, float(wmin.min()))


@lru_cache(maxsize=PROPAGATOR_CACHE_SIZE)
def _propagator(spec: GeneratorSpec, t: float) -> np.ndarray:
    """The propagator exp(t L) of the generator L of `spec`, as a read-only
    real Pauli transfer matrix (`master.assemble`, then `linalg.expm`).

    Kept per process for the PROPAGATOR_CACHE_SIZE most recently used
    (spec, t).  Specs compare by value (`master.GeneratorSpec`), so windows
    share an entry within a program, across the points of a sweep that
    share it (the delays, at one omega_D and tau_c) and across compiles; an
    equal spec assembles to the same bits, so a hit changes no number.
    """
    return read_only(expm(assemble(spec), t))


@single_blas_thread()
def _walk(rho0: np.ndarray, windows,
          sampled: bool) -> tuple[ChannelPass, Trajectory | None]:
    """One walk over the windows: the channel pass, and with `sampled` the
    sampled trajectory alongside it.

    Each generator window's propagators over the window and, with
    `sampled`, over the sampling step duration / SAMPLES_PER_WINDOW come
    from `_propagator`, so a distinct (generator, time) is assembled and
    exponentiated once per process while it stays cached; `windows` may be
    any iterable, a lazy one included.  A zero-duration segment
    (`VirtualZ`, `IdealPi`) is its own window: its transfer matrix on the
    register of `rho0` comes from the per-segment cache
    (`sequences.segment_transfer`).  The channel is
    the product of the propagators in program order, and the final state
    is read off it, as the channel applied to the Pauli coordinates of
    `rho0`.  The sampled chain keeps its own state and clock, so its
    samples do not depend on the full-window propagators; they are stepped
    as real Pauli coordinates and converted back to matrices once per
    window, the initial state kept as given.  The checks then run: the
    channel first (finite, trace preserving, completely positive), then
    the initial and the final state, then the samples, each stack in time
    order.  Every walk, whoever calls it, holds OpenBLAS at one thread
    (`linalg.single_blas_thread`): the 64x64 operands are too small to
    split.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    n = rho0.shape[0].bit_length() - 1
    channel = None
    t = 0.0
    t_sample = 0.0
    u = r0 = to_pauli(rho0)
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
            full = _propagator(w.spec, w.duration)
            if sampled:
                step = _propagator(w.spec, dt)
            t += w.duration
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
        channel = np.eye(r0.size)
    if not np.isfinite(channel).all():
        raise ChannelError("program channel has a non-finite entry")
    tp_defect = trace_defect(channel)
    if tp_defect > TRACE_TOL:
        raise ChannelError(f"channel not trace preserving: defect {tp_defect:.3e} "
                           f"above {TRACE_TOL:.0e}")
    choi = choi_matrix(channel)
    choi_min = hermitian_min_eigenvalue(0.5 * (choi + choi.conj().T))
    if choi_min < EIG_FLOOR:
        raise ChannelError(f"channel not completely positive: Choi eigenvalue "
                           f"{choi_min:.3e} below floor {EIG_FLOOR:.0e}")
    ends, _, _ = _checked(np.array([rho0, from_pauli(channel @ r0)]), [0.0, t])
    result = ChannelPass(channel, ends[-1], tp_defect, choi_min)
    if not sampled:
        return result, None
    states, clips, min_eig = _checked(np.concatenate(sample_states), sample_times)
    return result, Trajectory(np.array(sample_times), states, clips, min_eig, result)


def channel_pass(rho0: np.ndarray, windows) -> ChannelPass:
    """The program channel and the final state, with no sampled states.

    The final state is the channel applied to the initial state.  Raises
    ChannelError if the channel has a non-finite entry, if its
    trace-preservation defect exceeds TRACE_TOL or if its Choi minimum lies
    below EIG_FLOOR, and the errors of the state checks (trace,
    Hermiticity, PositivityError) if the initial or the final state fails
    them.
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
