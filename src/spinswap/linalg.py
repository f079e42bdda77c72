"""Dense operator and Liouville-space primitives for small spin systems.

Conventions fixed here and relied on everywhere else in the package:

- |0> is spin-up: Iz|0> = +1/2 |0>.  Computational ordering for two qubits
  is |00>, |01>, |10>, |11>, with the leftmost label the lowest site index
  (site 0 is the leftmost Kronecker factor).
- Vectorization is column-stacking: vec(rho) stacks the columns of rho, so
  vec(A rho B) = (B.T kron A) vec(rho) and left multiplication by A maps to
  (identity kron A).
- Hamiltonians are in angular-frequency units (rad/s); Liouville-space
  generators are in 1/s.

Operators are dense complex128; the largest system handled is three
qubits (8-dimensional Hilbert space, 64-dimensional Liouville space), so
sparsity is deliberately not used.  A superoperator that preserves
Hermiticity (every GKLS generator, every channel) is real in the
orthonormal Pauli-string basis: its Pauli transfer matrix R_ij =
Tr(P_i S(P_j)) (Greenbaum, arXiv:1509.02921).  The window walk runs in
that real form and converts back to column stacking once (see
`superop_to_pauli` and `pauli_to_superop`).
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import cache
from itertools import product
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.linalg as _sla

HERMITICITY_TOL = 1e-12
PAULI_REAL_TOL = 1e-12

_I2 = np.eye(2, dtype=complex)
_IX = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
_IY = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
_IZ = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)
_IP = np.array([[0, 1], [0, 0]], dtype=complex)
_IM = np.array([[0, 0], [1, 0]], dtype=complex)


def spin_half_ops():
    """Return the spin-1/2 operators (Ix, Iy, Iz, Iplus, Iminus).

    Iz has eigenvalues +1/2 on |0> and -1/2 on |1>; I+- = Ix +- i Iy, so
    Iplus raises |1> to |0>.
    """
    return _IX.copy(), _IY.copy(), _IZ.copy(), _IP.copy(), _IM.copy()


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def max_norm(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def kron_all(ops) -> np.ndarray:
    """Kronecker product of a sequence of operators, leftmost first."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def embed(op: np.ndarray, site: int, nsites: int) -> np.ndarray:
    """Embed a single-qubit operator at `site` in an `nsites`-qubit register.

    Returns identity (x) ... (x) op (x) ... (x) identity with op at position
    `site`; the result has dimension 2**nsites.
    """
    if not 0 <= site < nsites:
        raise ValueError(f"site {site} out of range for {nsites} sites")
    if op.shape != (2, 2):
        raise ValueError("embed expects a 2x2 single-qubit operator")
    factors = [_I2] * nsites
    factors[site] = op
    return kron_all(factors)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class SiteOperators(NamedTuple):
    """Embedded single-site spin operators of one register, read-only.

    Each field stacks embed(op, k, nsites) over the sites k, shape
    (nsites, d, d): `x[k]` is Ix on site k, and so on.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    plus: np.ndarray
    minus: np.ndarray


@cache
def site_operators(nsites: int) -> SiteOperators:
    """The embedded Ix, Iy, Iz, I+ and I- of every site of an `nsites`-qubit
    register, built once per register size and shared read-only."""
    return SiteOperators(*(
        _read_only(np.array([embed(op, k, nsites) for k in range(nsites)]))
        for op in (_IX, _IY, _IZ, _IP, _IM)
    ))


def basis_state(bits, nsites: int | None = None) -> np.ndarray:
    """Computational basis ket |b0 b1 ...> as a 1-d complex array."""
    bits = list(bits)
    n = nsites if nsites is not None else len(bits)
    idx = 0
    for b in bits:
        idx = 2 * idx + int(b)
    ket = np.zeros(2**n, dtype=complex)
    ket[idx] = 1.0
    return ket


def ket2dm(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(psi, psi.conj())


def partial_trace(rho: np.ndarray, keep, dims) -> np.ndarray:
    """Reduced density operator on the subsystems listed in `keep`.

    Parameters
    ----------
    rho : array, shape (D, D) with D = prod(dims)
    keep : iterable of subsystem indices to retain (order-insensitive;
        the result is ordered by increasing site index)
    dims : sequence of subsystem dimensions
    """
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    dim = int(np.prod(dims))
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"rho has shape {rho.shape}, expected {(dim, dim)}")
    keep = sorted(set(int(k) for k in keep))
    if not keep or keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep={keep} not a nonempty subset of 0..{n - 1}")
    r = rho.reshape(dims + dims)
    # einsum with repeated labels on traced subsystems
    row = list(range(n))
    col = [i + n if i in keep else i for i in range(n)]
    out = [i for i in keep] + [i + n for i in keep]
    return np.einsum(r, row + col, out).reshape(
        int(np.prod([dims[k] for k in keep])), -1
    )


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError("vector length is not a perfect square")
    return v.reshape(d, d, order="F")


def choi_matrix(superop: np.ndarray) -> np.ndarray:
    """Unnormalized Choi matrix sum_ij |i><j| (x) S(|i><j|) of a
    column-stacking superoperator S on d x d matrices.

    Its trace is d when S is trace preserving, and it is positive
    semidefinite iff S is completely positive.
    """
    d = int(round(np.sqrt(superop.shape[0])))
    # S[l*d + k, j*d + i] = S(|i><j|)[k, l]: axes (l, k, j, i) -> (i, k, j, l)
    return superop.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def trace_defect(superop: np.ndarray) -> float:
    """Trace-preservation defect max |vec(I)^dag S - vec(I)^dag| of a
    column-stacking superoperator S: the largest change of Tr X over the
    matrix units X = |i><j|, 0 iff S is trace preserving."""
    d = int(round(np.sqrt(superop.shape[0])))
    trace_row = vec(np.eye(d)).conj()
    return float(np.abs(trace_row @ superop - trace_row).max())


def left_mult(a: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> a rho."""
    return np.kron(identity(a.shape[0]), a)


def right_mult(b: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> rho b."""
    return np.kron(b.T, identity(b.shape[0]))


def conjugation_superop(u: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> u rho u^dagger."""
    return np.kron(u.conj(), u)


def commutator_superop(h: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Superoperator of the coherent generator rho -> -i [h, rho].

    `h` must be Hermitian to within `tol` in max-norm.
    """
    h = np.asarray(h, dtype=complex)
    defect = max_norm(h - dagger(h))
    if defect > tol:
        raise ValueError(f"Hamiltonian not Hermitian: max-norm defect {defect:.3e}")
    return -1j * (left_mult(h) - right_mult(h))


def expm(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Matrix exponential of a*t via scaling-and-squaring (Pade).

    Raises on non-finite entries.  Dense 64x64 worst case lands well below
    the 1e-12 relative-accuracy target of the propagation layer.  The input
    is not cast: a real generator (a Pauli transfer matrix) is exponentiated
    in real arithmetic, about three times faster than as complex.
    """
    m = np.asarray(a)
    if not np.all(np.isfinite(m)) or not np.isfinite(t):
        raise ValueError("expm: non-finite entries in generator")
    return _sla.expm(m * t)


# (get, set) thread-count symbols of the OpenBLAS builds numpy and scipy
# bundle: numpy's 64-bit-integer libscipy_openblas64_ and scipy's own
# libscipy_openblas, which scipy.linalg (expm among it) runs on.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@cache
def _openblas_handles() -> tuple:
    """(get, set) thread-count functions of every loaded OpenBLAS.

    Looked up on first use, not at import, from the libraries mapped into
    this process; where the process map cannot be read (non-Linux) or no
    library exports the symbols, the result is empty.
    """
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return ()
    paths = sorted({ln.split()[-1] for ln in maps.splitlines()
                    if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    handles = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is None or set_ is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            handles.append((get, set_))
    return tuple(handles)


@contextmanager
def single_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread.

    At 64x64 the operands are far too small to split: extra BLAS threads
    only spin, and in a process pool they compete with the other workers
    for the same cores.  The previous thread counts are restored on exit,
    also when the block raises.  Without a loaded OpenBLAS this does
    nothing.
    """
    handles = _openblas_handles()
    previous = [get() for get, _ in handles]
    for _, set_ in handles:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(handles, previous):
            set_(n)


@cache
def pauli_strings(nqubits: int, traceless: bool = True) -> np.ndarray:
    """Normalized Pauli-string basis for `nqubits` qubits.

    Returns an array of shape (m, d, d) with d = 2**nqubits and
    Tr(P_i P_j) = delta_ij.  With traceless=True the all-identity string is
    omitted (m = 4**nqubits - 1), which is the basis used for Kossakowski
    extraction; otherwise it comes first.  Built once per argument pair and
    returned read-only.
    """
    sx = 2.0 * _IX
    sy = 2.0 * _IY
    sz = 2.0 * _IZ
    singles = [_I2, sx, sy, sz]
    norm = np.sqrt(2.0) ** nqubits
    strings = []
    for combo in product(range(4), repeat=nqubits):
        if traceless and all(c == 0 for c in combo):
            continue
        strings.append(kron_all([singles[c] for c in combo]) / norm)
    return _read_only(np.array(strings))


@cache
def _pauli_vec_basis(dim2: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, B^dag), read-only: the unitary (dim2, dim2) matrix B whose column
    i is vec(P_i), over the full Pauli-string basis of a register with
    Liouville dimension dim2, and its adjoint."""
    n = int(round(np.log2(dim2) / 2))
    if 4**n != dim2:
        raise ValueError(f"Liouville dimension {dim2} is not that of a qubit register")
    strings = pauli_strings(n, traceless=False)
    # vec(P) stacks the columns of P, i.e. the rows of P.T
    b = np.ascontiguousarray(strings.transpose(0, 2, 1).reshape(dim2, dim2).T)
    return _read_only(b), _read_only(np.ascontiguousarray(b.conj().T))


def superop_to_pauli(superop: np.ndarray) -> np.ndarray:
    """Pauli transfer matrix R = B^dag S B of a column-stacking superoperator
    S, B the vectorized Pauli-string basis; R_ij = Tr(P_i S(P_j)).

    R is real iff S preserves Hermiticity.  Raises ValueError if the
    imaginary residue of R exceeds PAULI_REAL_TOL relative to its largest
    entry, which means S does not preserve Hermiticity.
    """
    b, b_dag = _pauli_vec_basis(superop.shape[0])
    r = b_dag @ superop @ b
    residue = max_norm(r.imag)
    if residue > PAULI_REAL_TOL * max_norm(r):
        raise ValueError(f"superoperator does not preserve Hermiticity: imaginary "
                         f"Pauli transfer residue {residue:.3e}")
    return np.ascontiguousarray(r.real)


def pauli_to_superop(transfer: np.ndarray) -> np.ndarray:
    """Column-stacking superoperator B R B^dag of a Pauli transfer matrix R."""
    b, b_dag = _pauli_vec_basis(transfer.shape[0])
    return b @ transfer @ b_dag


def vecs_to_pauli(vs: np.ndarray) -> np.ndarray:
    """Real Pauli coordinates Tr(P_i rho) of vectorized states, one per row
    of `vs` (or a single vector), for the Hermitian part of each rho."""
    return (vs @ _pauli_vec_basis(vs.shape[-1])[1].T).real


def pauli_to_vecs(rs: np.ndarray) -> np.ndarray:
    """Vectorized (column-stacking) states of Pauli coordinates, one per row
    of `rs` (or a single vector); the inverse of `vecs_to_pauli` on
    Hermitian states."""
    return rs @ _pauli_vec_basis(rs.shape[-1])[0].T


def clip_to_density(rho: np.ndarray) -> np.ndarray:
    """Project onto the density-matrix cone: floor eigenvalues at zero and
    renormalize the trace."""
    rho = 0.5 * (rho + dagger(rho))
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    rho = (v * w) @ dagger(v)
    tr = np.trace(rho).real
    if tr <= 0:
        raise ValueError("state has no positive weight left after clipping")
    return rho / tr
