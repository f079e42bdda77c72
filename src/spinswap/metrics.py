"""Transfer observables: state fidelity, two-qubit concurrence, gate efficiency.

Efficiency is the average gate fidelity of the realized channel on the
swapped pair against the ideal SWAP (Horodecki, Horodecki & Horodecki,
PRA 60, 1888 (1999)),

    F_avg = (d * F_pro + 1) / (d + 1),
    F_pro = Tr(S_U^dag S) / d^2 = (1/d^2) sum_k Tr[U P_k^dag U^dag E(P_k)],

with d = 4, S and S_U the superoperators of the channel E and of the
target unitary U, and {P_k} the Hilbert-Schmidt-orthonormal two-qubit
Pauli basis; the trace form is the Pauli sum read in the superoperator
basis.  F_avg equals 1 iff the channel is the target unitary up to a
global phase (identity channel against SWAP scores 2/5, the completely
depolarizing channel 1/4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import conjugation_superop, dagger, partial_trace, trace_defect
from .model import ChainSpec
from .sequences import U_SWAP

_SY2 = np.kron(
    np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]])
)

METRIC_SLACK = 1e-9
TRACE_PRESERVATION_TOL = 1e-6

_SWAP_SUPEROP = conjugation_superop(U_SWAP)


@dataclass(frozen=True)
class TransferReport:
    """One protocol run's observables with its parameters echoed."""

    fidelity: float
    concurrence_23: float
    efficiency: float
    tp_defect: float = float("nan")  # of the program channel
    choi_min: float = float("nan")
    omega1: float = float("nan")
    omega_d: float = float("nan")
    tau_c: float = float("nan")
    omega_se: float = float("nan")

    def __post_init__(self):
        for name in ("fidelity", "concurrence_23", "efficiency"):
            v = getattr(self, name)
            if not -METRIC_SLACK <= v <= 1.0 + METRIC_SLACK:
                raise ValueError(f"{name} = {v} outside [0, 1]")


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


def swap_efficiency(channel_superop: np.ndarray) -> float:
    """Average gate fidelity of a two-qubit channel against the ideal SWAP.

    The channel is given as its 16x16 superoperator (column stacking).
    Raises if its trace-preservation defect (`linalg.trace_defect`)
    exceeds TRACE_PRESERVATION_TOL.
    """
    if channel_superop.shape != (16, 16):
        raise ValueError("expected a 16x16 pair-channel superoperator")
    tp_defect = trace_defect(channel_superop)
    if tp_defect > TRACE_PRESERVATION_TOL:
        raise ValueError(f"channel not trace preserving (defect {tp_defect:.3e})")
    d = 4
    f_pro = np.vdot(_SWAP_SUPEROP, channel_superop).real / (d * d)
    return float((d * f_pro + 1.0) / (d + 1.0))


def pair_channel(total_superop: np.ndarray, pair, nsites: int) -> np.ndarray:
    """Reduce a full-register channel to the given pair of sites.

    Inputs on the pair are completed with the bystanders in the maximally
    mixed state (the reduced state of the middle spin in the transport
    initial condition), propagated through the full channel, and traced
    back down to the pair.  In one contraction: the superoperator's axes
    are (output column, output row, input column, input row) per site, and
    each bystander ties its output row and column labels (partial trace)
    and its input row and column labels (identity filler, scaled by 1/2).
    """
    pair = sorted(pair)
    labels = np.arange(4 * nsites).reshape(4, nsites)
    for s in set(range(nsites)) - set(pair):
        labels[1, s] = labels[0, s]
        labels[3, s] = labels[2, s]
    t = np.asarray(total_superop).reshape((2,) * (4 * nsites))
    out = np.einsum(t, labels.ravel().tolist(), labels[:, pair].ravel().tolist())
    return out.reshape(16, 16) / 2 ** (nsites - 2)


def _clamp_metric(v: float) -> float:
    """Snap tiny out-of-range numerical noise back into [0, 1]."""
    if -METRIC_SLACK <= v <= 1.0 + METRIC_SLACK:
        return float(min(max(v, 0.0), 1.0))
    return v  # genuinely out of range: let TransferReport raise


def report(run, chain: ChainSpec, **params) -> TransferReport:
    """Fidelity, concurrence between spins 2 and 3, and SWAP efficiency.

    `run` is an `evolve.ChannelPass`.  Fidelity and concurrence come from
    its final state (concurrence after reducing to spins 2 and 3,
    1-indexed); efficiency comes from its program channel reduced to the
    swapped pair (1,3).  The channel's TP defect and Choi minimum are
    passed through.
    """
    target = run.meta.get("target_state")
    if target is None:
        raise ValueError("run has no target-state metadata")
    rho = run.final_state
    fid = state_fidelity(rho, target)
    rho23 = partial_trace(rho, (1, 2), [2] * chain.nsites)
    conc = concurrence(rho23)
    chan = pair_channel(run.channel, (0, 2), chain.nsites)
    eff = swap_efficiency(chan)
    return TransferReport(
        fidelity=_clamp_metric(fid),
        concurrence_23=_clamp_metric(conc),
        efficiency=_clamp_metric(eff),
        tp_defect=run.tp_defect,
        choi_min=run.choi_min,
        **params,
    )
