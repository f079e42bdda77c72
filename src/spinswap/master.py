"""Fluctuation-regulated master-equation generator.

Builds, for one piecewise-constant evolution window, the generator
consisting of the first-order coherent term -i[H, .] and the second-order
dissipator

    D(rho) = - tau_c sum_{(a,b)} Tr_E [A_a, [A_b, rho x rho_E]]

where rho_E is maximally mixed on each local environment.  Every component
sits at zero frequency in the frame rotating at each spin's own Larmor
frequency (resonant drives, secular couplings, resonant environments), so
the regulated kernel integral_0^inf exp(-tau/tau_c) dtau is tau_c, real,
and every pair is secular.

Drive components pair with themselves to give drive-induced dissipation;
system-environment components pair on each local environment to give
thermal relaxation; mixed drive/environment pairs vanish against the
traceless environment factors.

Polynomial form.  Each component is A_a = s_m U_a, a mechanism scale s_m
(2 pi J, omega_1 or omega_SE) times a unit operator U_a
(`model.HarmonicComponent`).  The first order is linear in the scales and
the second order bilinear in them and linear in tau_c, so the generator is

    L = sum_m s_m L_m + tau_c sum_{m <= n} s_m s_n Q_mn

with one matrix per coherent mechanism m and one per unordered mechanism
pair (m, n).  Those matrices depend only on the point-independent
`GeneratorShape` (unit operators, environment factors, coherent flags).
Each is built once per shape as a real Pauli transfer matrix (Greenbaum,
arXiv:1509.02921), from the images of the Pauli strings under its map in
Hilbert space (`linalg.pauli_transfer`), and kept in a bounded per-process
cache; `assemble` only forms the linear combination, at the mechanism
scales the spec keeps (`GeneratorSpec.scales`) and its tau_c.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import (
    HERMITICITY_TOL,
    dagger,
    max_norm,
    pauli_strings,
    pauli_transfer,
    read_only,
)
from .model import BathSpec, HarmonicComponent, Mechanism

# Distinct shapes a process keeps (fig2 has 9, fig3 3); each holds a few
# 64x64 real matrices, about 0.15 MB for a three-spin window.
SHAPE_CACHE_SIZE = 64


@dataclass(frozen=True)
class GeneratorShape:
    """The point-independent part of a generator.

    `key` names it exactly: the dimension and, per component, its
    mechanism, label, environment site and coherent flag.  Shapes compare
    and hash by `key` alone, because equal labels mean bitwise-equal unit
    operators and environment factors.  `components` supply the unit
    operators.
    """

    key: tuple
    components: tuple[HarmonicComponent, ...] = field(compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """Inputs for one evolution window's generator.

    components: harmonic components (couplings, drive and
        system-environment terms); nonempty, as they fix the dimension.
        Components of one mechanism share one scale.
    bath: bath parameters (tau_c weighs the second order).
    scales: per mechanism, in order of first appearance, the one scale its
        components carry (derived, not an argument); `assemble` reads the
        point from it and tau_c.

    A spec compares and hashes by identity: windows share a generator by
    sharing one spec object (`sequences.compile_program`).
    """

    components: tuple[HarmonicComponent, ...]
    bath: BathSpec
    scales: dict[Mechanism, float] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("a generator needs at least one component")
        scales = {}
        for c in self.components:
            if scales.setdefault(c.mechanism, c.scale) != c.scale:
                raise ValueError(f"components of mechanism {c.mechanism} carry "
                                 f"different scales")
        object.__setattr__(self, "scales", scales)

    @property
    def dim(self) -> int:
        return self.components[0].unit.shape[0]

    def shape(self) -> GeneratorShape:
        comps = self.components
        key = (self.dim, tuple((c.mechanism.value, c.label, c.env_site, c.coherent)
                               for c in comps))
        return GeneratorShape(key, comps)


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


def _first_order_mask(comps) -> np.ndarray:
    """Components of the first-order term: the coherent system-only ones.

    Environment-coupled components trace to zero against the maximally
    mixed environment state and never contribute.
    """
    return np.array([not c.has_env and c.coherent for c in comps], dtype=bool)


def _units(comps) -> np.ndarray:
    """Stack of the component unit operators, (n, d, d)."""
    return np.array([c.unit for c in comps], dtype=complex)


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


def _dissipator_images(ops: np.ndarray, w: np.ndarray,
                       strings: np.ndarray) -> np.ndarray:
    """Images D(P) of the Pauli strings `strings` under the dissipator with
    pair weights `w`.

    With component operators A_a, the dissipator over the pairs (a, b) at
    weights W[a, b] (the contractions C of `_env_contractions`, masked to
    one mechanism pair, times tau_c) is

        D(rho) = sum_ab W[a, b] (A_b rho A_a - A_a A_b rho + A_a rho A_b - rho A_b A_a),

    the double commutator -[A_a, [A_b, rho]] with the environment traced
    out.  C is symmetric because Tr(E_a E_b) = Tr(E_b E_a), so with
    B_a = sum_b W[a, b] A_b and M = sum_a A_a B_a this is

        D(rho) = 2 sum_a A_a rho B_a - M rho - rho M.

    D is bilinear in the operators, which gives the polynomial form of the
    module docstring.  Components whose weights all vanish are skipped.
    """
    keep = w.any(axis=1)
    ops, w = ops[keep], w[np.ix_(keep, keep)]
    n, d = ops.shape[:2]
    d2 = strings.shape[0]
    weighted = (w @ ops.reshape(n, d * d)).reshape(n, d, d)  # B_a
    m = (ops @ weighted).sum(axis=0)
    # the strings side by side, t[u, (j, v)] = P_j[u, v]: one BLAS product
    # then multiplies every string from the left, and one of the (u, j)
    # rows from the right; a stack of d x d products is slower
    t = strings.transpose(1, 0, 2).reshape(d, d2 * d)
    out = -(m @ t).reshape(d * d2, d) - t.reshape(d * d2, d) @ m
    for a, b in zip(ops, weighted):
        out += 2.0 * (a @ t).reshape(d * d2, d) @ b
    return out.reshape(d, d2, d).transpose(1, 0, 2)


@dataclass(frozen=True)
class _Polynomial:
    """The generator of one shape as sum_k c_k M_k over real Pauli transfer
    matrices M_k, linear monomials first (see the module docstring).

    linear: the mechanism of each linear monomial.
    quadratic: the (mechanism, mechanism) pair of each quadratic monomial.
    stack: the monomial matrices in monomial order, flattened to rows,
        float64 and read-only.

    Every spec of the shape has the same mechanisms, because the shape key
    lists them, so each coefficient reads its scales from `spec.scales`.
    """

    linear: tuple[Mechanism, ...]
    quadratic: tuple[tuple[Mechanism, Mechanism], ...]
    stack: np.ndarray

    def combine(self, spec: GeneratorSpec) -> np.ndarray:
        """The generator at the spec's mechanism scales and tau_c."""
        s = spec.scales
        tau_c = spec.bath.tau_c
        coef = np.array([s[m] for m in self.linear]
                        + [s[m] * s[n] * tau_c for m, n in self.quadratic])
        return (coef @ self.stack).reshape(spec.dim**2, -1)


def _build_polynomial(shape: GeneratorShape) -> _Polynomial:
    """The monomial matrices of a shape, each the Pauli transfer matrix of
    its map at unit scale and tau_c, read off the images of the Pauli
    strings.

    Raises "Hamiltonian not Hermitian" if a mechanism's coherent unit sum
    is not Hermitian, and "does not preserve Hermiticity" if a monomial's
    Pauli transfer matrix has an imaginary residue above
    `linalg.PAULI_REAL_TOL`.
    """
    comps = shape.components
    mechanisms = [c.mechanism for c in comps]
    groups = list(dict.fromkeys(mechanisms))
    slot = np.array([groups.index(m) for m in mechanisms])
    units = _units(comps)
    d = units.shape[1]
    strings = pauli_strings(d.bit_length() - 1)
    first = _first_order_mask(comps)
    images, linear, quadratic = [], [], []
    for m in range(len(groups)):
        sel = first & (slot == m)
        if sel.any():
            linear.append(groups[m])
            h = _coherent_hamiltonian(units[sel])
            images.append(-1j * (h @ strings - strings @ h))
    contr = _env_contractions(comps)
    for m in range(len(groups)):
        for n in range(m, len(groups)):
            both = (((slot[:, None] == m) & (slot[None, :] == n))
                    | ((slot[:, None] == n) & (slot[None, :] == m)))
            w = np.where(both, contr, 0.0)
            if w.any():
                quadratic.append((groups[m], groups[n]))
                images.append(_dissipator_images(units, w, strings))
    stack = np.array([pauli_transfer(x) for x in images]).reshape(-1, d**4)
    return _Polynomial(tuple(linear), tuple(quadratic), read_only(stack))


_cached_polynomial = lru_cache(maxsize=SHAPE_CACHE_SIZE)(_build_polynomial)


def assemble(spec: GeneratorSpec) -> np.ndarray:
    """First-order generator plus second-order dissipator, as a real
    (d^2, d^2) Pauli transfer matrix in 1/s.

    The shape's monomial matrices come from the per-process cache (built
    on first use, which raises as `_build_polynomial` does); the point
    enters only through the mechanism scales and tau_c.
    """
    return _cached_polynomial(spec.shape()).combine(spec)
