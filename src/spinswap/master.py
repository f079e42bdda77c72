"""Fluctuation-regulated master-equation generator.

Assembles, for one piecewise-constant evolution window, the Liouville-space
generator consisting of the first-order coherent term -i[H, .] and the
second-order dissipator

    D(rho) = - sum_{secular pairs (a,b)} G(freq_b) Tr_E [A_a, [A_b, rho x rho_E]]

where G(w) = integral_0^inf exp(i w tau) exp(-tau/tau_c) dtau is the
regulated kernel, rho_E is maximally mixed on each local environment, and
the secular filter keeps pairs whose combined oscillation |freq_a + freq_b|
lies below the coarse-graining cutoff.  Component lists are closed under
Hermitian conjugation, so the pair sum is equivalent to pairing each
component with the conjugate of another at |freq_a - freq_b| below cutoff.

The imaginary part of G produces shift (Lamb-type) terms; they are kept
inside the dissipator sum, which therefore represents the complete second
order of the master equation, decay and shifts together.

Drive components pair with themselves to give drive-induced dissipation;
system-environment components pair on each local environment to give
thermal relaxation; mixed drive/environment pairs vanish against the
traceless environment factors but are retained in the enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    HERMITICITY_TOL,
    commutator_superop,
    dagger,
    identity,
    max_norm,
    pauli_strings,
)
from .model import BathSpec, HarmonicComponent

def regulator_integral(omega: float | np.ndarray, tau_c: float) -> complex | np.ndarray:
    """Regulated memory-kernel integral tau_c / (1 - i omega tau_c).

    The real part tau_c/(1 + omega^2 tau_c^2) drives decay; the imaginary
    part drives frequency shifts.  `omega` may be a scalar or an array of
    frequencies (rad/s), evaluated elementwise.
    """
    if tau_c <= 0:
        raise ValueError("tau_c must be positive")
    return tau_c / (1.0 - 1j * omega * tau_c)


@dataclass(frozen=True)
class GeneratorSpec:
    """Inputs for one evolution window's generator.

    components: harmonic components (couplings, drive and
        system-environment terms); nonempty, as they fix the dimension.
    bath: bath parameters (tau_c feeds the regulator).
    secular_cutoff: rad/s; pairs oscillating faster are dropped.
    """

    components: tuple[HarmonicComponent, ...]
    bath: BathSpec
    secular_cutoff: float

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("a generator needs at least one component")
        if self.secular_cutoff <= 0:
            raise ValueError("secular_cutoff must be positive")
        for c in self.components:
            if not np.isfinite(c.freq):
                raise ValueError("component frequency must be finite")

    @property
    def dim(self) -> int:
        return self.components[0].op.shape[0]


def _coherent_hamiltonian(spec: GeneratorSpec) -> np.ndarray:
    """Hamiltonian H of the first-order term -i[H, .] (rad/s).

    Environment-coupled components trace to zero against the maximally
    mixed environment state and never contribute here.  System-only
    coherent components enter only when their frequency magnitude lies
    below the secular cutoff.  Their sum must be Hermitian to within
    HERMITICITY_TOL relative to its largest entry (component lists are
    closed under conjugation); it is then symmetrized to remove rounding.
    """
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    for c in spec.components:
        if c.has_env or not c.coherent:
            continue
        if abs(c.freq) < spec.secular_cutoff:
            h = h + c.op
    defect = max_norm(h - dagger(h))
    if defect > HERMITICITY_TOL * max(max_norm(h), 1.0):
        raise ValueError(f"Hamiltonian not Hermitian: max-norm defect {defect:.3e}")
    return 0.5 * (h + dagger(h))


def first_order_generator(spec: GeneratorSpec) -> np.ndarray:
    """Coherent generator -i[H, .] of the secular system-only components.

    H is the Hermitian sum built and checked by `_coherent_hamiltonian`.
    """
    return commutator_superop(_coherent_hamiltonian(spec))


def _env_contractions(spec: GeneratorSpec) -> np.ndarray:
    """Environment contraction matrix C[a, b] = Tr(E_a E_b rho_E).

    rho_E = I/2 on each local environment.  Two components without an
    environment factor contract trivially (1); mixed and cross-site pairs
    vanish because the environment operators are traceless (0); two
    components on one site give Tr(E_a E_b)/2.
    """
    comps = spec.components
    site = np.array([c.env_site if c.has_env else -1 for c in comps])
    system = site < 0
    env = np.flatnonzero(~system)
    contr = np.zeros((len(comps), len(comps)), dtype=complex)
    contr[np.ix_(system, system)] = 1.0
    if env.size:
        e = np.array([comps[k].env_op for k in env])
        same_site = site[env][:, None] == site[env][None, :]
        contr[np.ix_(env, env)] = np.where(
            same_site, 0.5 * np.einsum("aij,bji->ab", e, e), 0.0
        )
    return contr


def _second_order_terms(spec: GeneratorSpec):
    """Cross superoperator and left/right operators of the dissipator."""
    d = spec.dim
    ops = np.array([c.op for c in spec.components], dtype=complex)
    n = len(ops)
    flat = ops.reshape(n, d * d)
    freq = np.array([c.freq for c in spec.components])
    keep = np.abs(freq[:, None] + freq[None, :]) < spec.secular_cutoff
    g = regulator_integral(freq, spec.bath.tau_c)
    w = keep * _env_contractions(spec) * g[None, :]
    weighted = (w @ flat).reshape(n, d, d)  # sum_b W[a, b] A_b
    m_left = (ops @ weighted).sum(axis=0)
    m_right = (weighted @ ops).sum(axis=0)
    # (flat.T K flat)[(j i), (k l)] = sum_ab K[a,b] A_a[j,i] A_b[k,l], which is
    # the entry [(i k), (j l)] of sum_ab K[a,b] A_a.T kron A_b.
    cross = (flat.T @ (w + w.T) @ flat).reshape(d, d, d, d)
    cross = cross.transpose(1, 2, 0, 3).reshape(d * d, d * d)
    return cross, m_left, m_right


def _generator(cross: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> cross(rho) - left rho - rho right."""
    eye = identity(left.shape[0])
    return cross - np.kron(eye, left) - np.kron(right.T, eye)


def second_order_dissipator(spec: GeneratorSpec) -> np.ndarray:
    """Second-order generator: regulated, secular double-commutator sum.

    Returns the full complex-weighted sum, i.e. decay channels and shift
    terms together, as a (d^2, d^2) matrix in column-stacking convention.

    With component operators A_a, frequencies f_a, regulator values
    g_b = regulator_integral(f_b, tau_c), contractions C (see
    `_env_contractions`) and keep[a, b] = |f_a + f_b| < secular_cutoff,
    the pair (a, b) enters with weights

        W1[a, b] = keep[a, b] C[a, b] g_b,   W2[a, b] = keep[a, b] C[b, a] g_b

    on its two orderings, and the dissipator is, in closed form,

        D = sum_ab (W1 + W2.T)[a, b] A_a.T kron A_b - I kron M_L - M_R.T kron I,
        M_L = sum_ab W1[a, b] A_a A_b,   M_R = sum_ab W2[a, b] A_b A_a,

    that is, D(rho) = sum_ab W1[a, b] (A_b rho A_a - A_a A_b rho)
    + W2[a, b] (A_a rho A_b - rho A_b A_a).  C is symmetric because
    Tr(E_a E_b) = Tr(E_b E_a), so W1 = W2 and one weight matrix W serves
    all three sums.  Every weight is linear in g, so for a fixed component
    list the generator (whose first-order part does not involve g) is
    affine in the regulator values.
    """
    return _generator(*_second_order_terms(spec))


def assemble(spec: GeneratorSpec) -> np.ndarray:
    """First-order generator plus second-order dissipator (with shifts), as
    a (d^2, d^2) matrix in 1/s.

    -i[H, .] is -(I kron iH) - ((-iH).T kron I), so H joins the left and
    right operators of the dissipator and the generator takes two
    Kronecker products in all.
    """
    h = _coherent_hamiltonian(spec)
    cross, m_left, m_right = _second_order_terms(spec)
    return _generator(cross, m_left + 1j * h, m_right - 1j * h)


def kossakowski_matrix(gen: np.ndarray) -> np.ndarray:
    """Kossakowski matrix of a generator over normalized traceless Paulis.

    Writing the generator as -i[H,.] + sum_ij a_ij (F_i . F_j - {F_j F_i, .}/2)
    over the Hermitian orthonormal traceless basis {F_i}, the coefficient
    matrix a is recovered by Hilbert-Schmidt projection; Hamiltonian and
    anticommutator parts project out because the F_i are traceless.
    Positive semidefiniteness of `a` certifies GKLS form.
    """
    d2 = gen.shape[0]
    d = int(round(np.sqrt(d2)))
    n = int(round(np.log2(d)))
    if 2**n != d:
        raise ValueError("Kossakowski extraction expects a qubit register")
    fs = pauli_strings(n, traceless=True)
    s4 = gen.reshape(d, d, d, d)
    # a_ij = sum F_j[b,d] F_i[c,a] S4[b,a,d,c]
    a = np.einsum("jbd,ica,badc->ij", fs, fs, s4, optimize=True)
    return 0.5 * (a + a.conj().T)
