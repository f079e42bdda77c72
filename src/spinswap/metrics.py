"""Transfer observables: state fidelity, two-qubit concurrence, gate efficiency.

Efficiency is the average gate fidelity of the realized channel on the
swapped pair against the ideal SWAP,

    F_avg = (d * F_pro + 1) / (d + 1),
    F_pro = (1/d^2) sum_k Tr[U P_k^dag U^dag E(P_k)],

with d = 4 and {P_k} the Hilbert-Schmidt-orthonormal two-qubit Pauli
basis; F_avg equals 1 iff the channel is the target unitary up to a global
phase (identity channel against SWAP scores 2/5, the completely
depolarizing channel 1/4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import dagger, kron_all, partial_trace, pauli_strings, unvec, vec
from .model import ChainSpec
from .sequences import U_SWAP

_SY2 = np.kron(
    np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]])
)

METRIC_SLACK = 1e-9
TRACE_PRESERVATION_TOL = 1e-6


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
    Raises if the channel fails trace preservation beyond 1e-6.
    """
    if channel_superop.shape != (16, 16):
        raise ValueError("expected a 16x16 pair-channel superoperator")
    d = 4
    paulis = pauli_strings(2, traceless=False)
    f_pro = 0.0
    tp_defect = 0.0
    for p in paulis:
        ep = unvec(channel_superop @ vec(p))
        tp_defect = max(tp_defect, abs(np.trace(ep) - np.trace(p)))
        f_pro += np.real(np.trace(U_SWAP @ dagger(p) @ dagger(U_SWAP) @ ep))
    if tp_defect > TRACE_PRESERVATION_TOL:
        raise ValueError(f"channel not trace preserving (defect {tp_defect:.3e})")
    f_pro /= d * d
    return float((d * f_pro + 1.0) / (d + 1.0))


def pair_channel(total_superop: np.ndarray, pair, nsites: int) -> np.ndarray:
    """Reduce a full-register channel to the given pair of sites.

    Inputs on the pair are completed with the bystanders in the maximally
    mixed state (the reduced state of the middle spin in the transport
    initial condition), propagated through the full channel, and traced
    back down to the pair.
    """
    pair = tuple(sorted(pair))
    others = [s for s in range(nsites) if s not in pair]
    dims = [2] * nsites
    bystander_state = np.eye(2, dtype=complex) / 2.0
    out = np.zeros((16, 16), dtype=complex)
    basis = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            basis[:] = 0.0
            basis[i, j] = 1.0
            full = _embed_pair_operator(basis, pair, others, bystander_state)
            evolved = unvec(total_superop @ vec(full))
            reduced = partial_trace(evolved, pair, dims)
            out[:, j * 4 + i] = vec(reduced)  # column stacking: vec index j*4+i
    return out


def _embed_pair_operator(x: np.ndarray, pair, others, filler: np.ndarray):
    """Tensor a pair operator with filler states on the remaining sites."""
    nsites = len(pair) + len(others)
    full = kron_all([x] + [filler] * len(others))
    # tensor axes run over sites in the order (pair, others); permute them
    # back into register order for the row and the column indices
    perm = list(np.argsort(list(pair) + list(others)))
    full = full.reshape((2,) * (2 * nsites))
    full = full.transpose(perm + [nsites + p for p in perm])
    return full.reshape(2**nsites, 2**nsites)


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
