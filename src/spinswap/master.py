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
from functools import cached_property

import numpy as np

from .linalg import commutator_superop, dagger, identity, pauli_strings, vec
from .model import BathSpec, HarmonicComponent

GKLS_REL_TOL = 1e-9


def regulator_integral(omega: float, tau_c: float) -> complex:
    """Regulated memory-kernel integral tau_c / (1 - i omega tau_c).

    The real part tau_c/(1 + omega^2 tau_c^2) drives decay; the imaginary
    part drives frequency shifts.
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


def first_order_generator(spec: GeneratorSpec) -> np.ndarray:
    """Coherent generator -i[H, .] from the secular components.

    Environment-coupled components trace to zero against the maximally
    mixed environment state and never contribute here.  System-only
    components enter only when their frequency magnitude lies below the
    secular cutoff.
    """
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    for c in spec.components:
        if c.has_env or not c.coherent:
            continue
        if abs(c.freq) < spec.secular_cutoff:
            h = h + c.op
    h = 0.5 * (h + dagger(h))  # conjugate-closed lists make this a no-op
    return commutator_superop(h)


def _env_trace_coeffs(a: HarmonicComponent, b: HarmonicComponent):
    """Environment contraction coefficients (c1, c2) of a pair.

    c1 = Tr(E_a E_b rho_E), c2 = Tr(E_b E_a rho_E) with rho_E = I/2 on each
    local environment.  Components without an environment factor contract
    trivially; mixed and cross-site pairs vanish because the environment
    operators are traceless.
    """
    if not a.has_env and not b.has_env:
        return 1.0, 1.0
    if a.has_env != b.has_env:
        return 0.0, 0.0
    if a.env_site != b.env_site:
        return 0.0, 0.0
    c1 = 0.5 * np.trace(a.env_op @ b.env_op)
    c2 = 0.5 * np.trace(b.env_op @ a.env_op)
    return complex(c1), complex(c2)


def second_order_dissipator(spec: GeneratorSpec) -> np.ndarray:
    """Second-order generator: regulated, secular double-commutator sum.

    Returns the full complex-weighted sum, i.e. decay channels and shift
    terms together, as a (d^2, d^2) matrix in column-stacking convention.
    """
    d = spec.dim
    diss = np.zeros((d * d, d * d), dtype=complex)
    tau_c = spec.bath.tau_c
    eye = identity(d)
    comps = spec.components
    for a in comps:
        for b in comps:
            if abs(a.freq + b.freq) >= spec.secular_cutoff:
                continue
            c1, c2 = _env_trace_coeffs(a, b)
            if c1 == 0.0 and c2 == 0.0:
                continue
            g = regulator_integral(b.freq, tau_c)
            sa, sb = a.op, b.op
            term = c1 * (np.kron(eye, sa @ sb) - np.kron(sa.T, sb))
            term += c2 * (np.kron((sb @ sa).T, eye) - np.kron(sb.T, sa))
            diss -= g * term
    return diss


@dataclass
class Liouvillian:
    """Assembled generator with structural diagnostics.

    gen: (d^2, d^2) generator matrix, units 1/s.
    The GKLS diagnostic extracts the Kossakowski matrix over the normalized
    traceless Pauli-string basis and reports its minimum eigenvalue; the
    generator is flagged valid when that eigenvalue is >= -1e-9 relative to
    the maximum eigenvalue (floored at 1).
    """

    gen: np.ndarray

    @property
    def dim(self) -> int:
        return int(round(np.sqrt(self.gen.shape[0])))

    def trace_defect(self) -> float:
        """Max-norm of the trace covector applied to the generator."""
        tr_vec = vec(identity(self.dim)).conj()
        return float(np.max(np.abs(tr_vec @ self.gen)))

    @cached_property
    def kossakowski(self) -> np.ndarray:
        return kossakowski_matrix(self.gen)

    @cached_property
    def kossakowski_min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.kossakowski).min())

    @property
    def is_gkls_valid(self) -> bool:
        evals = np.linalg.eigvalsh(self.kossakowski)
        scale = max(float(evals.max()), 1.0)
        return bool(evals.min() >= -GKLS_REL_TOL * scale)


def assemble(spec: GeneratorSpec) -> Liouvillian:
    """First-order generator plus second-order dissipator (with shifts)."""
    return Liouvillian(first_order_generator(spec) + second_order_dissipator(spec))


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
