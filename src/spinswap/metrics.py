"""Transfer observables: state fidelity, two-qubit concurrence, gate efficiency.

Efficiency is the average gate fidelity of the realized channel on the
swapped pair against the ideal SWAP (Horodecki, Horodecki & Horodecki,
PRA 60, 1888 (1999)),

    F_avg = (d * F_pro + 1) / (d + 1),
    F_pro = (1/d^2) sum_k Tr[U P_k U^dag E(P_k)] = (1/d^2) sum_ij R_U,ij R_ij,

with d = 4, {P_k} the Hilbert-Schmidt-orthonormal two-qubit Pauli basis,
and R, R_U the Pauli transfer matrices R_ij = Tr(P_i E(P_j)) of the channel
E and of the target unitary U.  F_avg equals 1 iff the channel is U up to a
global phase (identity channel against SWAP scores 2/5, the completely
depolarizing channel 1/4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import dagger, partial_trace, trace_defect, unitary_transfer
from .model import ChainSpec
from .sequences import U_SWAP, PulseProgram

_SY2 = np.kron(
    np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]])
)

METRIC_SLACK = 1e-9
TRACE_PRESERVATION_TOL = 1e-6

_SWAP_TRANSFER = unitary_transfer(U_SWAP)


@dataclass(frozen=True)
class TransferReport:
    """One protocol run's observables, each snapped into [0, 1] when within
    METRIC_SLACK of it (raises further out), its channel checks and duration."""

    fidelity: float
    concurrence_23: float
    efficiency: float
    tp_defect: float = float("nan")  # of the program channel
    choi_min: float = float("nan")
    transfer_time_s: float = float("nan")  # the protocol's duration

    def __post_init__(self):
        for name in ("fidelity", "concurrence_23", "efficiency"):
            v = getattr(self, name)
            if not -METRIC_SLACK <= v <= 1.0 + METRIC_SLACK:
                raise ValueError(f"{name} = {v} outside [0, 1]")
            object.__setattr__(self, name, float(min(max(v, 0.0), 1.0)))


def state_fidelity(rho: np.ndarray, target: np.ndarray) -> float:
    """Pure-target fidelity <target| rho |target>."""
    target = np.asarray(target, dtype=complex).reshape(-1)
    norm = np.linalg.norm(target)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"target not normalized (norm {norm:.12f})")
    return float(np.real(np.conj(target) @ rho @ target))


def concurrence(rho2: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density operator.

    C = max(0, l1 - l2 - l3 - l4) with l_i the decreasing square roots of
    the eigenvalues of rho (sy x sy) rho* (sy x sy), conjugation taken in
    the computational basis.  Evaluated through the singular values of
    sqrt(rho) (sy x sy) conj(sqrt(rho)), which carries the same spectrum
    but is numerically stable for near-pure states.
    """
    rho2 = np.asarray(rho2, dtype=complex)
    if rho2.shape != (4, 4):
        raise ValueError("concurrence needs a 4x4 density operator")
    w, v = np.linalg.eigh(0.5 * (rho2 + dagger(rho2)))
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ dagger(v)
    lams = np.linalg.svd(sqrt_rho @ _SY2 @ sqrt_rho.conj(), compute_uv=False)
    lams = np.sort(lams)[::-1]
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def swap_efficiency(transfer: np.ndarray) -> float:
    """Average gate fidelity of a two-qubit channel against the ideal SWAP.

    The channel is given as its 16x16 Pauli transfer matrix.  Raises if its
    trace-preservation defect (`linalg.trace_defect`) exceeds
    TRACE_PRESERVATION_TOL.
    """
    if transfer.shape != (16, 16):
        raise ValueError("expected a 16x16 pair-channel Pauli transfer matrix")
    tp_defect = trace_defect(transfer)
    if tp_defect > TRACE_PRESERVATION_TOL:
        raise ValueError(f"channel not trace preserving (defect {tp_defect:.3e})")
    d = 4
    f_pro = np.vdot(_SWAP_TRANSFER, transfer) / (d * d)
    return float((d * f_pro + 1.0) / (d + 1.0))


def pair_channel(transfer: np.ndarray, pair, nsites: int) -> np.ndarray:
    """Reduce a full-register channel to the given pair of sites.

    Inputs on the pair are completed with the bystanders in the maximally
    mixed state (the reduced state of the middle spin in the transport
    initial condition), propagated through the full channel, and traced
    back down to the pair.  On Pauli transfer matrices that is a selection:
    Tr((Q_a (x) I) S(Q_b (x) I / 2^(n-2))) is exactly the entry of the
    strings Q_a (x) I and Q_b (x) I, so the pair's matrix is the block of
    the strings that are the identity on every bystander.  Raises
    ValueError unless `pair` is two distinct sites in [0, nsites).
    """
    a, b = sorted(pair)
    if not 0 <= a < b < nsites:
        raise ValueError(f"pair {tuple(pair)} is not two distinct sites of {nsites}")
    # the string with label c_s on site s has index sum_s c_s 4^(n-1-s)
    keep = [i * 4 ** (nsites - 1 - a) + j * 4 ** (nsites - 1 - b)
            for i in range(4) for j in range(4)]
    return transfer[np.ix_(keep, keep)]


def report(run, program: PulseProgram, chain: ChainSpec) -> TransferReport:
    """Fidelity, concurrence between spins 2 and 3, and SWAP efficiency.

    `run` is the `evolve.ChannelPass` of the transport `program` on
    `chain`.  Fidelity against the program's target ket and concurrence
    come from the run's final state (concurrence after reducing to spins 2
    and 3, 1-indexed); efficiency comes from its program channel reduced to
    the pair the program swaps.  The channel's TP defect and Choi minimum
    are passed through, and the program's duration is the transfer time.
    """
    target = program.meta.get("target_state")
    if target is None:
        raise ValueError("program has no target-state metadata")
    rho = run.final_state
    fid = state_fidelity(rho, target)
    rho23 = partial_trace(rho, (1, 2), [2] * chain.nsites)
    conc = concurrence(rho23)
    chan = pair_channel(run.channel, program.meta["pair"], chain.nsites)
    eff = swap_efficiency(chan)
    return TransferReport(
        fidelity=fid,
        concurrence_23=conc,
        efficiency=eff,
        tp_defect=run.tp_defect,
        choi_min=run.choi_min,
        transfer_time_s=program.total_duration,
    )
