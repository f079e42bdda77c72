"""Dense operator and Pauli-transfer primitives for small spin systems.

Conventions fixed here and relied on everywhere else in the package:

- |0> is spin-up: Iz|0> = +1/2 |0>.  Computational ordering for two qubits
  is |00>, |01>, |10>, |11>, with the leftmost label the lowest site index
  (site 0 is the leftmost Kronecker factor).
- A linear map S on d x d operators (a generator, a propagator, a channel)
  is kept as its Pauli transfer matrix R_ij = Tr(P_i S(P_j)) over the
  normalized Pauli strings P_i (`pauli_strings`).  Every map of the package
  preserves Hermiticity, so R is real (Greenbaum, arXiv:1509.02921).  It is
  built from the images S(P_j) of the strings in Hilbert space
  (`pauli_transfer`), with no superoperator in between.  States move
  between Pauli coordinates Tr(P_i rho) and row-major d x d matrices
  (`to_pauli`, `from_pauli`).
- Hamiltonians are in angular-frequency units (rad/s); generators are in
  1/s.

Operators are dense complex128 on any number of qubits (the builders
are tested at one to four); only `sequences.check_transport_chain` fixes
three spins, for the transport protocol (8-dimensional Hilbert space, 64
Pauli strings).  The one sparsity used is block-diagonal: `expm`
exponentiates each diagonal block of its argument, and every window
generator has several; `hermitian_min_eigenvalue` takes the spectrum of a
Choi matrix per block the same way.  The module needs numpy alone: the
matrix exponential is a Taylor scaling-and-squaring kernel built from
matrix products (`expm`), and `single_blas_thread` pins numpy's OpenBLAS.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from functools import cache, lru_cache
from itertools import product
from pathlib import Path
from typing import NamedTuple

import numpy as np

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


def read_only(a: np.ndarray) -> np.ndarray:
    """`a`, marked read-only: for arrays shared through a cache."""
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
        read_only(np.array([embed(op, k, nsites) for k in range(nsites)]))
        for op in (_IX, _IY, _IZ, _IP, _IM)
    ))


def basis_state(bits) -> np.ndarray:
    """Computational basis ket |b0 b1 ...> as a 1-d complex array."""
    bits = list(bits)
    idx = 0
    for b in bits:
        idx = 2 * idx + int(b)
    ket = np.zeros(2 ** len(bits), dtype=complex)
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


def choi_matrix(transfer: np.ndarray) -> np.ndarray:
    """Unnormalized Choi matrix sum_ij |i><j| (x) S(|i><j|) of the channel S
    with Pauli transfer matrix R, as sum_kl R_lk P_k^T (x) P_l.

    Its trace is d when S is trace preserving, and it is positive
    semidefinite iff S is completely positive.
    """
    d = int(round(np.sqrt(transfer.shape[0])))
    strings = pauli_strings(d.bit_length() - 1).reshape(d * d, d * d)
    # axes (c, a) of P_k and (b, e) of S(P_k) -> (a, b, c, e)
    out = strings.T @ (transfer.T @ strings)
    return out.reshape(d, d, d, d).transpose(1, 2, 0, 3).reshape(d * d, d * d)


def hermitian_min_eigenvalue(h: np.ndarray) -> float:
    """The smallest eigenvalue of the Hermitian matrix h, from `eigvalsh`
    on each of its diagonal blocks (`_block_cells`): the connected
    components of its nonzero pattern.  The entries between blocks are
    exact zeros, so the blocks' spectra make up the whole spectrum; an
    irreducible matrix is one block."""
    h = np.ascontiguousarray(h)
    flat = h.reshape(-1)
    return min(float(np.linalg.eigvalsh(flat[cells]).min())
               for cells in _block_cells(h.shape[0], np.packbits(h != 0).tobytes()))


def trace_defect(transfer: np.ndarray) -> float:
    """Trace-preservation defect max_j |R_0j - delta_0j| of a Pauli transfer
    matrix R: row 0 belongs to the identity string, so this is 0 iff the
    channel is trace preserving."""
    return float(np.abs(transfer[0] - np.eye(1, transfer.shape[1])[0]).max())


# Taylor scaling and squaring (Bader, Blanes & Casas, Mathematics 7, 1174
# (2019)), evaluated by Paterson-Stockmeyer.  Degree m = p*q costs p + q - 2
# products: p - 1 for the powers X^2 ... X^p and q - 1 Horner steps in X^p.
# Each (p, q) gives the highest degree its number of products reaches.
_TAYLOR_SPLITS = ((2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 4))
_UNIT_ROUNDOFF = 2.0**-53


def _taylor_threshold(m: int) -> float:
    """The largest theta with e^(2 theta) theta^(m+1) / (m+1)! <= 2^-53.

    For ||X||_1 <= theta the degree-m Taylor remainder is at most
    e^theta theta^(m+1) / (m+1)!, and ||e^X||_1 >= e^-theta (since
    e^X e^-X = I), so the truncation error relative to ||e^X||_1 is at most
    the unit roundoff.  Found by bisection on the log of the bound, which
    increases with theta.
    """
    target = math.log(_UNIT_ROUNDOFF) + math.lgamma(m + 2)
    lo, hi = 0.0, float(m + 1)  # the bound exceeds 2^-53 at m + 1
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if 2.0 * mid + (m + 1) * math.log(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


class _TaylorDegree(NamedTuple):
    """One Taylor degree: its threshold on ||X||_1, the split p of the
    Paterson-Stockmeyer evaluation, and its coefficients as q blocks over
    the powers I, X, ..., X^p (row j holds 1/(jp + i)! at column i < p;
    1/m! at column p of the last row is the top term)."""

    degree: int
    theta: float
    p: int
    coeffs: np.ndarray


def _taylor_degree(p: int, q: int) -> _TaylorDegree:
    coeffs = np.zeros((q, p + 1))
    for j, i in product(range(q), range(p)):
        coeffs[j, i] = 1.0 / math.factorial(j * p + i)
    coeffs[-1, p] = 1.0 / math.factorial(p * q)
    return _TaylorDegree(p * q, _taylor_threshold(p * q), p, read_only(coeffs))


_TAYLOR_DEGREES = tuple(_taylor_degree(p, q) for p, q in _TAYLOR_SPLITS)


def _taylor_plan(norm: float) -> tuple[_TaylorDegree, int]:
    """The Taylor degree and the number s of squarings for a matrix of
    1-norm `norm`: the lowest degree whose threshold covers it, s = 0; above
    the last threshold, the highest degree, on the matrix scaled by 2^-s."""
    for deg in _TAYLOR_DEGREES:
        if norm <= deg.theta:
            return deg, 0
    return deg, math.ceil(math.log2(norm / deg.theta))


def _block_partition(nonzero: np.ndarray) -> tuple[np.ndarray, ...]:
    """The diagonal blocks of a square matrix with boolean nonzero pattern
    `nonzero`, after a symmetric permutation: the connected components of
    the graph joining i and j wherever entry (i, j) or (j, i) is nonzero.

    Returns one (blocks, size) index array per block size, in increasing
    size; each row holds the ascending indices of one block, and every
    index is in one row.
    """
    n = nonzero.shape[0]
    adj = nonzero | nonzero.T
    labels = np.arange(n)
    # each index takes the least label of itself and its neighbours, then
    # that label's own label; labels only fall and never leave a component,
    # so they settle on the least index of each component
    while True:
        new = np.minimum(labels, np.where(adj, labels, n).min(axis=1, initial=n))
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    roots = np.flatnonzero(labels == np.arange(n))
    blocks = [np.flatnonzero(labels == root) for root in roots]
    return tuple(np.array([b for b in blocks if b.size == size])
                 for size in sorted({b.size for b in blocks}))


@lru_cache(maxsize=16)
def _block_cells(n: int, pattern: bytes) -> tuple[np.ndarray, ...]:
    """The diagonal blocks (`_block_partition`) of an n x n matrix whose
    nonzero pattern packs to `pattern` (`np.packbits`), as flat indices
    into the C-ordered matrix: one read-only (blocks, size, size) array
    per block size.

    Kept for the 16 most recently used patterns.  An entry holds the
    packed pattern, n^2/8 bytes, and at most n^2 eight-byte indices:
    about 33 kB at n = 64.
    """
    nonzero = np.unpackbits(np.frombuffer(pattern, np.uint8), count=n * n)
    return tuple(read_only(i[:, :, None] * n + i[:, None, :])
                 for i in _block_partition(nonzero.reshape(n, n).astype(bool)))


def _taylor(x: np.ndarray, deg: _TaylorDegree, s: int) -> np.ndarray:
    """e^X of each matrix X of the stack `x`, shape (k, n, n), by the Taylor
    degree `deg` on X 2^-s, squared s times."""
    if s:
        x = x * 2.0**-s
    p = deg.p
    powers = np.empty((p + 1,) + x.shape, dtype=x.dtype)
    powers[0] = np.eye(x.shape[-1])
    powers[1] = x
    for k in range(2, p + 1):
        np.matmul(powers[k - 1], x, out=powers[k])
    blocks = (deg.coeffs @ powers.reshape(p + 1, -1)).reshape((len(deg.coeffs),) + x.shape)
    r = blocks[-1]
    for block in blocks[-2::-1]:
        r = powers[p] @ r
        r += block
    for _ in range(s):
        r = r @ r
    return r


def expm(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Matrix exponential of a*t by Taylor scaling and squaring.

    The degree, one of 2, 4, 6, 9, 12, 16 and 20, is chosen from
    ||a t||_1 (`_taylor_plan`): under each degree's threshold
    (`_taylor_threshold`) the truncation error relative to the result is at
    most 2^-53.  Above the last threshold the argument is scaled by 2^-s and
    the result squared s times.  The polynomial is evaluated by
    Paterson-Stockmeyer with matrix products only: the powers
    I, X, ..., X^p are stacked once and all coefficient blocks come from one
    product with that stack; no linear system is solved.

    The kernel runs on the diagonal blocks of a*t (`_block_cells`):
    the connected components of its symmetrized nonzero pattern.  A window
    generator has several, because a z rotation of a spin the window does
    not drive commutes with it and splits the Pauli strings.  Blocks of one
    size are evaluated together as a stack and placed into a zero matrix;
    an irreducible matrix is one block.  Every block takes the plan of the
    whole matrix, whose 1-norm bounds each block's, so the bound above
    holds.  The terms a dense product would add from outside a block are
    exact zeros, so each block is the dense evaluation with those terms
    left out: equal bit for bit wherever the BLAS sums the in-block terms
    in the dense order, as numpy's OpenBLAS does for the real window
    generators of the presets (`test_preset_window_generators`).

    Real input stays real: a real generator (a Pauli transfer matrix) is
    exponentiated in real arithmetic, about three times faster than as
    complex.  Integer and single-precision input is computed in float64.
    Raises ValueError unless a is square and a*t finite.
    """
    m = np.asarray(a)
    # C order, so that the flat views of x and out below share the indices
    # of `_block_cells` whatever the layout of a
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.multiply(m, t, dtype=np.result_type(m, t, np.float64), order="C")
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expm: expected a square matrix, got shape {x.shape}")
    # NaN and inf entries make the norm non-finite, and so does a finite
    # a*t whose column sums overflow
    norm = float(np.abs(x).sum(axis=0).max(initial=0.0))
    if not math.isfinite(norm):
        raise ValueError("expm: non-finite entries in generator")
    deg, s = _taylor_plan(norm)
    out = np.zeros_like(x)
    for cells in _block_cells(x.shape[0], np.packbits(x != 0).tobytes()):
        out.reshape(-1)[cells] = _taylor(x.reshape(-1)[cells], deg, s)
    return out


# (get, set) thread-count symbols of the OpenBLAS that numpy bundles, the
# 64-bit-integer libscipy_openblas64_
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)


@cache
def _openblas_handles() -> tuple:
    """(get, set) thread-count functions of every loaded OpenBLAS that
    exports numpy's symbols (`_OPENBLAS_THREAD_SYMBOLS`).

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
    """Run the block with numpy's OpenBLAS, the one BLAS the package uses,
    on one thread.

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
def pauli_strings(nqubits: int) -> np.ndarray:
    """Normalized Pauli-string basis for `nqubits` qubits.

    Returns an array of shape (4**nqubits, d, d) with d = 2**nqubits and
    Tr(P_i P_j) = delta_ij; the all-identity string comes first, so [1:]
    is the traceless basis.  Built once per register size and returned
    read-only.
    """
    sx = 2.0 * _IX
    sy = 2.0 * _IY
    sz = 2.0 * _IZ
    singles = [_I2, sx, sy, sz]
    norm = np.sqrt(2.0) ** nqubits
    strings = []
    for combo in product(range(4), repeat=nqubits):
        strings.append(kron_all([singles[c] for c in combo]) / norm)
    return read_only(np.array(strings))


@cache
def _string_rows(nqubits: int) -> np.ndarray:
    """The Pauli strings of `nqubits` qubits flattened to rows, string i in
    row i as P_i in row-major order, stored in Fortran order and read-only:
    the layout that fixes the summation order of `from_pauli`."""
    d2 = 4**nqubits
    return read_only(np.asfortranarray(pauli_strings(nqubits).reshape(d2, d2)))


def pauli_transfer(images: np.ndarray) -> np.ndarray:
    """Real Pauli transfer matrix R_ij = Tr(P_i S(P_j)) of a linear map S,
    from the images S(P_j) of the Pauli strings (`pauli_strings`), a
    (d^2, d, d) stack in string order.

    One product with the conjugated strings: Tr(P_i X) sums conj(P_i) X
    entrywise, because P_i is Hermitian.  R is real iff S preserves
    Hermiticity: raises ValueError if its imaginary residue exceeds
    PAULI_REAL_TOL relative to its largest entry.
    """
    d2 = images.shape[0]
    strings = _string_rows(images.shape[-1].bit_length() - 1)
    r = strings.conj() @ images.reshape(d2, d2).T
    if not max_norm(r.imag) <= PAULI_REAL_TOL * max_norm(r):  # NaN fails too
        raise ValueError(f"superoperator does not preserve Hermiticity: imaginary "
                         f"Pauli transfer residue {max_norm(r.imag):.3e}")
    return np.ascontiguousarray(r.real)


def unitary_transfer(u: np.ndarray) -> np.ndarray:
    """Real Pauli transfer matrix of the conjugation rho -> u rho u^dagger."""
    strings = pauli_strings(u.shape[0].bit_length() - 1)
    return pauli_transfer(u @ strings @ dagger(u))


def to_pauli(rhos: np.ndarray) -> np.ndarray:
    """Real Pauli coordinates Tr(P_i rho) of a state (d, d) or of a stack of
    states (m, d, d), for the Hermitian part of each rho."""
    d = rhos.shape[-1]
    flat = rhos.reshape(rhos.shape[:-2] + (d * d,))
    return (flat @ _string_rows(d.bit_length() - 1).conj().T).real


def from_pauli(rs: np.ndarray) -> np.ndarray:
    """Row-major states sum_i r_i P_i of Pauli coordinates, a vector (d^2,)
    or a stack of rows (m, d^2); the inverse of `to_pauli` on Hermitian
    states."""
    d = math.isqrt(rs.shape[-1])
    return (rs @ _string_rows(d.bit_length() - 1)).reshape(rs.shape[:-1] + (d, d))


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
