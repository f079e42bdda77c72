"""Fluctuation-regulated master-equation generator.

Builds, for one piecewise-constant evolution window, the generator
consisting of the first-order coherent term -i[H, .] and the second-order
dissipator

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
traceless environment factors.

Polynomial form.  Each component is A_a = s_m U_a, a mechanism scale s_m
(2 pi J, omega_1 or omega_SE; 1 for an untagged component) times a unit
operator U_a (`model.HarmonicComponent`).  The first order is linear in
the scales and the second order bilinear in them and linear in the
regulator values g(f) = tau_c / (1 - i f tau_c), so the generator is

    L = sum_m s_m L_m + sum_{(m, n), f} s_m s_n g(f) Q_{m,n,f}

with one matrix per coherent mechanism m and one per unordered mechanism
pair (m, n) and regulator frequency f.  Those matrices depend only on the
point-independent `GeneratorShape` (unit operators, frequencies,
environment factors, coherent flags, secular cutoff), are built once per
shape as real Pauli transfer matrices (Greenbaum, arXiv:1509.02921) and
kept in a bounded per-process cache; `assemble` only forms the linear
combination, so the window walk converts no generator.  A matrix whose
imaginary Pauli residue exceeds `linalg.PAULI_REAL_TOL` stays complex, and
a combination that is complex (a detuned component gives a complex g) is
checked and reduced to its real part by `linalg.real_transfer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import (
    HERMITICITY_TOL,
    commutator_superop,
    dagger,
    identity,
    is_real_transfer,
    max_norm,
    pauli_strings,
    pauli_transfer,
    read_only,
    real_transfer,
)
from .model import BathSpec, HarmonicComponent

# Distinct shapes a process keeps (fig2 has 9, fig3 3); each holds a few
# 64x64 real matrices, about 0.15 MB for a three-spin window.
SHAPE_CACHE_SIZE = 64


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
class GeneratorShape:
    """The point-independent part of a generator.

    `key` names it exactly: the dimension, the secular cutoff and, per
    component, its mechanism, label, frequency, environment site and
    coherent flag.  Shapes compare and hash by `key` alone, because equal
    labels mean bitwise-equal unit operators and environment factors.  A
    spec with an unlabelled component has no key and its shape is never
    cached.  `components` supply the unit operators.
    """

    key: tuple | None
    components: tuple[HarmonicComponent, ...] = field(compare=False, repr=False)
    secular_cutoff: float = field(compare=False)


@dataclass(frozen=True)
class GeneratorSpec:
    """Inputs for one evolution window's generator.

    components: harmonic components (couplings, drive and
        system-environment terms); nonempty, as they fix the dimension.
        Components of one mechanism share one scale.
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
        scales = {}
        for c in self.components:
            if not np.isfinite(c.freq):
                raise ValueError("component frequency must be finite")
            if scales.setdefault(c.mechanism, c.scale) != c.scale:
                raise ValueError(f"components of mechanism {c.mechanism} carry "
                                 f"different scales")

    @property
    def dim(self) -> int:
        return self.components[0].op.shape[0]

    def shape(self) -> GeneratorShape:
        comps = self.components
        key = None
        if all(c.label is not None for c in comps):
            key = (self.dim, self.secular_cutoff,
                   tuple((c.mechanism.value, c.label, c.freq, c.env_site, c.coherent)
                         for c in comps))
        return GeneratorShape(key, comps, self.secular_cutoff)


def _coherent_hamiltonian(ops: np.ndarray) -> np.ndarray:
    """Hamiltonian H of the first-order term -i[H, .]: the sum of `ops`.

    The sum must be Hermitian to within HERMITICITY_TOL relative to its
    largest entry (component lists are closed under conjugation); it is
    then symmetrized to remove rounding.
    """
    h = ops.sum(axis=0)
    defect = max_norm(h - dagger(h))
    if defect > HERMITICITY_TOL * max(max_norm(h), 1.0):
        raise ValueError(f"Hamiltonian not Hermitian: max-norm defect {defect:.3e}")
    return 0.5 * (h + dagger(h))


def _first_order_mask(comps, cutoff: float) -> np.ndarray:
    """Components of the first-order term.

    Environment-coupled components trace to zero against the maximally
    mixed environment state and never contribute.  System-only coherent
    components enter only when their frequency magnitude lies below the
    secular cutoff.
    """
    return np.array([not c.has_env and c.coherent and abs(c.freq) < cutoff
                     for c in comps], dtype=bool)


def _operators(comps, unit: bool) -> np.ndarray:
    """Stack of the component operators, (n, d, d); with `unit` the unit
    operators (an untagged component is its own unit)."""
    return np.array([c.unit if unit and c.unit is not None else c.op for c in comps],
                    dtype=complex)


def first_order_generator(spec: GeneratorSpec) -> np.ndarray:
    """Coherent generator -i[H, .] of the secular system-only components,
    in column stacking.

    H is the Hermitian sum built and checked by `_coherent_hamiltonian`.
    """
    ops = _operators(spec.components, unit=False)
    mask = _first_order_mask(spec.components, spec.secular_cutoff)
    return commutator_superop(_coherent_hamiltonian(ops[mask]))


def _env_contractions(comps) -> np.ndarray:
    """Environment contraction matrix C[a, b] = Tr(E_a E_b rho_E).

    rho_E = I/2 on each local environment.  Two components without an
    environment factor contract trivially (1); mixed and cross-site pairs
    vanish because the environment operators are traceless (0); two
    components on one site give Tr(E_a E_b)/2.
    """
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


def _pair_weights(comps, cutoff: float) -> np.ndarray:
    """keep[a, b] C[a, b]: the pair weights at unit regulator value."""
    freq = np.array([c.freq for c in comps])
    keep = np.abs(freq[:, None] + freq[None, :]) < cutoff
    return keep * _env_contractions(comps)


def _second_order_terms(ops: np.ndarray, w: np.ndarray):
    """Cross superoperator and left/right operators of the dissipator with
    pair weights `w`."""
    n, d = ops.shape[:2]
    flat = ops.reshape(n, d * d)
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
    all three sums.  Every weight is linear in g and D is bilinear in the
    operators, which gives the polynomial form of the module docstring.
    """
    comps = spec.components
    freq = np.array([c.freq for c in comps])
    w = _pair_weights(comps, spec.secular_cutoff) * regulator_integral(freq, spec.bath.tau_c)
    return _generator(*_second_order_terms(_operators(comps, unit=False), w))


@dataclass(frozen=True)
class _Polynomial:
    """The generator of one shape as sum_k c_k M_k over Pauli transfer
    matrices M_k, linear monomials first (see the module docstring).

    heads: per mechanism, in order of first appearance, the index of its
        first component, which carries the mechanism's scale.  Every spec
        of the shape has its mechanisms at the same positions, because the
        shape key lists them in component order.
    linear: the mechanism of each linear monomial, as an index into heads.
    quadratic: (mechanism, mechanism, regulator frequency) of each
        quadratic monomial.
    real: per monomial, whether its matrix is real; those sit in
        `real_stack` (float64), the others in `complex_stack`, each in
        monomial order, flattened to rows and read-only.
    """

    heads: tuple[int, ...]
    linear: tuple[int, ...]
    quadratic: tuple[tuple[int, int, float], ...]
    real: np.ndarray
    real_stack: np.ndarray
    complex_stack: np.ndarray

    def combine(self, spec: GeneratorSpec) -> np.ndarray:
        """The generator at the spec's mechanism scales and tau_c."""
        s = [spec.components[k].scale for k in self.heads]
        tau_c = spec.bath.tau_c
        coef = np.array([s[m] for m in self.linear]
                        + [s[m] * s[n] * regulator_integral(f, tau_c)
                           for m, n, f in self.quadratic], dtype=complex)
        c_real = coef[self.real]
        if not c_real.imag.any():
            c_real = c_real.real
        gen = c_real @ self.real_stack
        if len(self.complex_stack):
            gen = gen + coef[~self.real] @ self.complex_stack
        gen = gen.reshape(spec.dim**2, -1)
        # a real combination of real matrices preserves Hermiticity
        return real_transfer(gen) if np.iscomplexobj(gen) else gen


def _build_polynomial(shape: GeneratorShape) -> _Polynomial:
    """The monomial matrices of a shape, each built with the bilinear
    formulas at unit scale and regulator value and converted to the Pauli
    basis once.  Raises "Hamiltonian not Hermitian" if a mechanism's
    coherent unit sum is not Hermitian."""
    comps = shape.components
    mechanisms = [c.mechanism for c in comps]
    groups = list(dict.fromkeys(mechanisms))
    heads = tuple(mechanisms.index(m) for m in groups)
    slot = np.array([groups.index(m) for m in mechanisms])
    units = _operators(comps, unit=True)
    first = _first_order_mask(comps, shape.secular_cutoff)
    mats, linear, quadratic = [], [], []
    for m in range(len(groups)):
        sel = first & (slot == m)
        if sel.any():
            linear.append(m)
            mats.append(commutator_superop(_coherent_hamiltonian(units[sel])))
    w0 = _pair_weights(comps, shape.secular_cutoff)
    freq = np.array([c.freq for c in comps])
    for m in range(len(groups)):
        for n in range(m, len(groups)):
            both = (((slot[:, None] == m) & (slot[None, :] == n))
                    | ((slot[:, None] == n) & (slot[None, :] == m)))
            for f in np.unique(freq):
                w = np.where(both & (freq[None, :] == f), w0, 0.0)
                if w.any():
                    quadratic.append((m, n, float(f)))
                    mats.append(_generator(*_second_order_terms(units, w)))
    d2 = units.shape[1] ** 2
    transfers = [pauli_transfer(g) for g in mats]
    real = np.array([is_real_transfer(r) for r in transfers], dtype=bool)
    real_stack = np.array([r.real for r, ok in zip(transfers, real) if ok])
    complex_stack = np.array([r for r, ok in zip(transfers, real) if not ok])
    return _Polynomial(
        heads, tuple(linear), tuple(quadratic), real,
        read_only(real_stack.reshape(-1, d2 * d2)),
        read_only(complex_stack.reshape(-1, d2 * d2).astype(complex)),
    )


_cached_polynomial = lru_cache(maxsize=SHAPE_CACHE_SIZE)(_build_polynomial)


def assemble(spec: GeneratorSpec) -> np.ndarray:
    """First-order generator plus second-order dissipator (with shifts), as
    a real (d^2, d^2) Pauli transfer matrix in 1/s.

    The shape's monomial matrices come from the per-process cache (built
    on first use); the point enters only through the mechanism scales and
    tau_c.  Raises "Hamiltonian not Hermitian" when a shape's coherent unit
    sum is not Hermitian and "does not preserve Hermiticity" when a complex
    combination has an imaginary residue above `linalg.PAULI_REAL_TOL`.
    """
    shape = spec.shape()
    poly = _build_polynomial(shape) if shape.key is None else _cached_polynomial(shape)
    return poly.combine(spec)


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
