"""Independent reference forms of the master-equation generator.

The production engine (`spinswap.master`) builds each generator as a
polynomial over cached Pauli transfer matrices, read off the images of the
Pauli strings.  The forms here share none of its code: a per-pair
Kronecker loop in column stacking, a brute-force trace over explicit local
environments with a quadrature of the memory integral, and the Kossakowski
matrix that certifies GKLS form.  Every component is static (zero
frequency) in the rotating frame, so the regulated kernel weighs every
pair with tau_c.

Column stacking lives only here.  vec(rho) stacks the columns of rho, so
vec(A rho B) = (B.T kron A) vec(rho) and left multiplication by A maps to
(identity kron A).  `superop_to_pauli` converts a column-stacking
superoperator S to its Pauli transfer matrix B^dag S B, B the matrix whose
column i is vec(P_i); `pauli_to_superop` converts back, and
`choi_of_superop` is the Choi matrix read off that form.
`checked_reference` is the state check with an `eigvalsh` call on every
state, which `evolve._checked` spares where a Gershgorin bound certifies
positivity; both return the checked states, the clip count and the
smallest eigenvalue, and it is the tests' one reference for that check.
`dense_choi_min` is the Choi spectrum from one dense
`eigvalsh`, which `linalg.hermitian_min_eigenvalue` takes per block;
`stepped_final_state` steps the initial state through the windows, where
`evolve` reads the final state off the program channel.
"""

import numpy as np
from scipy.linalg import expm as scipy_expm

from spinswap.evolve import (EIG_FLOOR, HERM_TOL, TRACE_TOL, PositivityError,
                             rounding_floor)
from spinswap.master import assemble
from spinswap.sequences import IdealPi, VirtualZ, segment_unitary
from spinswap.linalg import (
    HERMITICITY_TOL,
    PAULI_REAL_TOL,
    clip_to_density,
    dagger,
    identity,
    max_norm,
    partial_trace,
    pauli_strings,
)


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """The d x d matrix of a column-stacking vector."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError("vector length is not a perfect square")
    return v.reshape(d, d, order="F")


def left_mult(a: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> a rho."""
    return np.kron(identity(a.shape[0]), a)


def right_mult(b: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> rho b."""
    return np.kron(b.T, identity(b.shape[0]))


def conjugation_superop(u: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> u rho u^dagger."""
    return np.kron(u.conj(), u)


def commutator_superop(h: np.ndarray) -> np.ndarray:
    """Superoperator of the coherent generator rho -> -i [h, rho]; `h` must
    be Hermitian to within HERMITICITY_TOL in max-norm."""
    h = np.asarray(h, dtype=complex)
    defect = max_norm(h - dagger(h))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"Hamiltonian not Hermitian: max-norm defect {defect:.3e}")
    return -1j * (left_mult(h) - right_mult(h))


def _pauli_vec_basis(dim2: int) -> np.ndarray:
    """The unitary matrix B whose column i is vec(P_i), over the Pauli
    strings of a register with dim2 = d^2, C-ordered."""
    n = int(round(np.log2(dim2) / 2))
    return np.ascontiguousarray(np.array([vec(p) for p in pauli_strings(n)]).T)


def pauli_to_vecs(rs: np.ndarray) -> np.ndarray:
    """Column-stacking vectors of the states with Pauli coordinates `rs`,
    one per row, as the product with B.T (Fortran-ordered, as B is
    C-ordered)."""
    return rs @ _pauli_vec_basis(rs.shape[-1]).T


def superop_to_pauli(superop: np.ndarray) -> np.ndarray:
    """Real Pauli transfer matrix B^dag S B of a column-stacking
    superoperator S; raises ValueError, as `linalg.pauli_transfer` does, if
    its imaginary residue exceeds PAULI_REAL_TOL relative to its largest
    entry."""
    b = _pauli_vec_basis(superop.shape[0])
    r = b.conj().T @ superop @ b
    if not max_norm(r.imag) <= PAULI_REAL_TOL * max_norm(r):
        raise ValueError(f"superoperator does not preserve Hermiticity: imaginary "
                         f"Pauli transfer residue {max_norm(r.imag):.3e}")
    return np.ascontiguousarray(r.real)


def checked_reference(rhos: np.ndarray, times) -> tuple[np.ndarray, int, float]:
    """`evolve._checked` with `eigvalsh` on every state and the clipped
    states replaced one by one: the same checks, order and errors, and the
    same (states, clips, min_eig)."""
    finite = np.isfinite(rhos).all(axis=(1, 2))
    if not finite.all():
        k = int(np.argmin(finite))
        if k:
            # a failure before the first non-finite sample wins
            checked_reference(rhos[:k], times)
        raise RuntimeError(f"state has a non-finite entry at t = {times[k]:.6e} s")
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
    states = []
    floor = -rounding_floor(rhos.shape[-1])
    for rho, w in zip(rhos, wmin):
        states.append(clip_to_density(rho) if w < floor else rho)
    return np.array(states), int((wmin < floor).sum()), min(0.0, float(wmin.min()))


def pauli_to_superop(transfer: np.ndarray) -> np.ndarray:
    """Column-stacking superoperator B R B^dag of a Pauli transfer matrix R,
    B the matrix whose column i is vec(P_i) over `pauli_strings`."""
    b = _pauli_vec_basis(transfer.shape[0])
    return b @ transfer @ b.conj().T


def choi_of_superop(superop: np.ndarray) -> np.ndarray:
    """Unnormalized Choi matrix sum_ij |i><j| (x) S(|i><j|) of a
    column-stacking superoperator S, one matrix unit at a time."""
    d = int(round(np.sqrt(superop.shape[0])))
    choi = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e_ij = np.outer(np.eye(d)[i], np.eye(d)[j])
            choi += np.kron(e_ij, unvec(superop @ vec(e_ij)))
    return choi


def dense_choi_min(transfer: np.ndarray) -> float:
    """The smallest eigenvalue of the symmetrized Choi matrix of the Pauli
    transfer matrix R, read off its column-stacking superoperator
    (`choi_of_superop`), from one `eigvalsh` of the whole matrix."""
    choi = choi_of_superop(pauli_to_superop(transfer))
    return float(np.linalg.eigvalsh(0.5 * (choi + dagger(choi))).min())


def stepped_final_state(rho0: np.ndarray, windows) -> np.ndarray:
    """The initial state stepped through the windows one at a time in
    column stacking: a generator window by scipy's expm of its assembled
    generator, a zero-duration segment by conjugation with its unitary."""
    n = rho0.shape[0].bit_length() - 1
    v = vec(rho0)
    for w in windows:
        if isinstance(w, (VirtualZ, IdealPi)):
            v = conjugation_superop(segment_unitary(w, n)) @ v
        elif w.duration > 0:
            v = scipy_expm(pauli_to_superop(assemble(w.spec)) * w.duration) @ v
    return unvec(v)


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
    fs = pauli_strings(n)[1:]
    s4 = gen.reshape(d, d, d, d)
    # a_ij = sum F_j[b,d] F_i[c,a] S4[b,a,d,c]
    a = np.einsum("jbd,ica,badc->ij", fs, fs, s4, optimize=True)
    return 0.5 * (a + a.conj().T)


def brute_force_dissipator(comps, tau_c, sys_dim, upper=20.0, steps_per_tau=200):
    """Second order from explicit local environments and a trapezoid
    quadrature of the memory integral (step tau_c/steps_per_tau, upper
    limit upper*tau_c), in column stacking."""
    env_sites = sorted({c.env_site for c in comps if c.has_env})
    n_env = len(env_sites)
    env_dim = 2**n_env

    def joint(c):
        op = np.kron(c.op, identity(env_dim))
        if c.has_env:
            pos = env_sites.index(c.env_site)
            factors = [identity(2)] * n_env
            factors[pos] = c.env_op
            env = factors[0]
            for f in factors[1:]:
                env = np.kron(env, f)
            op = np.kron(c.op, env)
        return op

    rho_env = identity(env_dim) / env_dim
    taus = np.arange(0, int(upper * steps_per_tau) + 1) * (tau_c / steps_per_tau)
    g = np.trapezoid(np.exp(-taus / tau_c), taus)

    diss = np.zeros((sys_dim**2, sys_dim**2), dtype=complex)
    joints = [joint(c) for c in comps]
    for aj in joints:
        for bj in joints:
            # map on system space, one basis matrix at a time
            for i in range(sys_dim):
                for j in range(sys_dim):
                    e = np.zeros((sys_dim, sys_dim), dtype=complex)
                    e[i, j] = 1.0
                    full = np.kron(e, rho_env)
                    inner = bj @ full - full @ bj
                    outer = aj @ inner - inner @ aj
                    reduced = partial_trace(outer, (0,), (sys_dim, env_dim))
                    diss[:, j * sys_dim + i] -= g * vec(reduced)
    return diss


def reference_first_order(spec):
    """The coherent generator -i[H, .], H the Hermitian part of the sum of
    the coherent system-only components, in column stacking."""
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    for c in spec.components:
        if not c.has_env and c.coherent:
            h = h + c.op
    return commutator_superop(0.5 * (h + dagger(h)))


def reference_env_trace_coeffs(a, b):
    """Tr(E_a E_b rho_E) and Tr(E_b E_a rho_E) for one component pair."""
    if not a.has_env and not b.has_env:
        return 1.0, 1.0
    if a.has_env != b.has_env:
        return 0.0, 0.0
    if a.env_site != b.env_site:
        return 0.0, 0.0
    c1 = 0.5 * np.trace(a.env_op @ b.env_op)
    c2 = 0.5 * np.trace(b.env_op @ a.env_op)
    return complex(c1), complex(c2)


def reference_pair_loop(comps, ops, pairs=None):
    """The second order at tau_c = 1 as a per-pair Kronecker loop, in column
    stacking: every ordered pair (a, b) of components, or only those in
    `pairs`, with operators ops[a] and ops[b]."""
    d = ops[0].shape[0]
    diss = np.zeros((d * d, d * d), dtype=complex)
    eye = identity(d)
    for i, a in enumerate(comps):
        for j, b in enumerate(comps):
            if pairs is not None and (i, j) not in pairs:
                continue
            c1, c2 = reference_env_trace_coeffs(a, b)
            if c1 == 0.0 and c2 == 0.0:
                continue
            sa, sb = ops[i], ops[j]
            term = c1 * (np.kron(eye, sa @ sb) - np.kron(sa.T, sb))
            term += c2 * (np.kron((sb @ sa).T, eye) - np.kron(sb.T, sa))
            diss -= term
    return diss


def reference_dissipator(spec):
    """The second order as a per-pair Kronecker loop, in column stacking."""
    comps = spec.components
    return spec.bath.tau_c * reference_pair_loop(comps, [c.op for c in comps])


def reference_monomials(comps):
    """The monomial matrices of `master._Polynomial` for the components
    `comps`, in its order, as column-stacking superoperators at unit scales
    and tau_c: per mechanism in order of first appearance, -i[H, .] with H
    the Hermitian part of its coherent system-only units, where it has any;
    then per mechanism pair m <= n with a nonzero environment contraction,
    the per-pair loop over the component pairs of those two mechanisms."""
    groups = list(dict.fromkeys(c.mechanism for c in comps))
    units = [c.unit for c in comps]
    mats = []
    for m in groups:
        first = [c.unit for c in comps if c.mechanism is m and c.coherent and not c.has_env]
        if first:
            h = sum(first)
            mats.append(commutator_superop(0.5 * (h + dagger(h))))
    for i, m in enumerate(groups):
        for n in groups[i:]:
            pairs = {(a, b) for a, ca in enumerate(comps) for b, cb in enumerate(comps)
                     if {ca.mechanism, cb.mechanism} == {m, n}
                     and reference_env_trace_coeffs(ca, cb) != (0.0, 0.0)}
            if pairs:
                mats.append(reference_pair_loop(comps, units, pairs))
    return mats
