import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm as scipy_expm

from spinswap import evolve, linalg, sequences
from spinswap.config import load_preset
from spinswap.linalg import (
    basis_state,
    choi_matrix,
    clip_to_density,
    dagger,
    embed,
    expm,
    from_pauli,
    identity,
    ket2dm,
    kron_all,
    max_norm,
    partial_trace,
    pauli_strings,
    pauli_transfer,
    single_blas_thread,
    site_operators,
    spin_half_ops,
    to_pauli,
    trace_defect,
    unitary_transfer,
)
from spinswap.master import assemble
from spinswap.model import Mechanism
from spinswap.sweep import run_transport

from oracles import (
    choi_of_superop,
    commutator_superop,
    conjugation_superop,
    left_mult,
    pauli_to_superop,
    pauli_to_vecs,
    right_mult,
    superop_to_pauli,
    unvec,
    vec,
)

IX, IY, IZ, IP, IM = spin_half_ops()


def random_state(rng, n):
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return psi / np.linalg.norm(psi)


def random_density(rng, n):
    m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = m @ dagger(m)
    return rho / np.trace(rho)


class TestSpinOps:
    def test_iz_spin_up_convention(self):
        up = basis_state([0])
        np.testing.assert_allclose(IZ @ up, 0.5 * up)

    def test_iplus_raises(self):
        down = basis_state([1])
        np.testing.assert_allclose(IP @ down, basis_state([0]))

    def test_angular_momentum_algebra(self):
        np.testing.assert_allclose(IX @ IY - IY @ IX, 1j * IZ, atol=1e-15)

    def test_ipm_from_ixy(self):
        np.testing.assert_allclose(IP, IX + 1j * IY, atol=1e-15)
        np.testing.assert_allclose(IM, IX - 1j * IY, atol=1e-15)


class TestEmbed:
    def test_single_site_identity_embedding(self):
        np.testing.assert_allclose(embed(IZ, 0, 1), IZ)

    def test_two_site_diagonal(self):
        h = embed(IZ, 0, 2)
        np.testing.assert_allclose(np.diag(h), [0.5, 0.5, -0.5, -0.5])

    def test_traceless_factor(self):
        assert abs(np.trace(embed(IX, 1, 3))) < 1e-15

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            embed(IZ, 3, 3)

    def test_distributes_over_products(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            site, n = int(rng.integers(0, 3)), 3
            np.testing.assert_allclose(
                embed(a @ b, site, n),
                embed(a, site, n) @ embed(b, site, n),
                atol=1e-12,
            )


class TestPartialTrace:
    def test_product_state_factor_removal(self):
        psi_m = (basis_state([1, 0]) - basis_state([0, 1])) / np.sqrt(2)
        rho = np.kron(ket2dm(psi_m), ket2dm(basis_state([0])))
        np.testing.assert_allclose(
            partial_trace(rho, (0, 1), [2, 2, 2]), ket2dm(psi_m), atol=1e-14
        )

    def test_bell_marginal_is_maximally_mixed(self):
        psi_m = (basis_state([1, 0]) - basis_state([0, 1])) / np.sqrt(2)
        np.testing.assert_allclose(
            partial_trace(ket2dm(psi_m), (0,), [2, 2]), identity(2) / 2, atol=1e-14
        )

    def test_against_index_summation_oracle(self):
        # independent nested-loop contraction
        rng = np.random.default_rng(3)
        rho = random_density(rng, 3)
        expected = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    for bp in range(2):
                        for cp in range(2):
                            expected[b * 2 + c, bp * 2 + cp] += rho[
                                a * 4 + b * 2 + c, a * 4 + bp * 2 + cp
                            ]
        got = partial_trace(rho, (1, 2), [2, 2, 2])
        np.testing.assert_allclose(got, expected, atol=1e-14)
        assert abs(np.trace(got) - 1.0) < 1e-12

    def test_composition_over_disjoint_stages(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 3)
        one_shot = partial_trace(rho, (1,), [2, 2, 2])
        staged = partial_trace(partial_trace(rho, (0, 1), [2, 2, 2]), (1,), [2, 2])
        np.testing.assert_allclose(one_shot, staged, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), (0,), [2, 2, 2])
        with pytest.raises(ValueError):
            partial_trace(np.eye(8), (), [2, 2, 2])


class TestVectorization:
    """The column-stacking reference forms of `oracles`."""

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        rho = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        np.testing.assert_allclose(unvec(vec(rho)), rho)

    def test_column_stacking_convention(self):
        # vec(A rho B) = (B.T kron A) vec(rho)
        rng = np.random.default_rng(6)
        a, b, rho = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3))
        np.testing.assert_allclose(
            vec(a @ rho @ b), np.kron(b.T, a) @ vec(rho), atol=1e-12
        )

    def test_left_right_mult(self):
        rng = np.random.default_rng(8)
        a, rho = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(2))
        np.testing.assert_allclose(unvec(left_mult(a) @ vec(rho)), a @ rho, atol=1e-12)
        np.testing.assert_allclose(unvec(right_mult(a) @ vec(rho)), rho @ a, atol=1e-12)

    def test_conjugation_superop(self):
        rng = np.random.default_rng(9)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = expm(-1j * (h + dagger(h)))
        rho = random_density(rng, 2)
        np.testing.assert_allclose(
            unvec(conjugation_superop(u) @ vec(rho)), u @ rho @ dagger(u), atol=1e-12
        )


class TestChoiMatrix:
    @pytest.mark.parametrize("nqubits", [1, 2, 3])
    def test_matches_sum_over_matrix_units(self, nqubits):
        # a random (non-physical) Hermiticity-preserving channel, as its Pauli
        # transfer matrix, against sum_ij |i><j| (x) S(|i><j|) in column stacking
        rng = np.random.default_rng(5)
        r = rng.normal(size=(4**nqubits, 4**nqubits))
        ref = choi_of_superop(pauli_to_superop(r))
        assert max_norm(choi_matrix(r) - ref) < 1e-13

    def test_unitary_channel_is_rank_one_with_trace_d(self):
        rng = np.random.default_rng(6)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        w = np.linalg.eigvalsh(choi_matrix(unitary_transfer(u)))
        np.testing.assert_allclose(w, [0.0] * 15 + [4.0], atol=1e-12)

    def test_transpose_is_not_completely_positive(self):
        d = 2
        transpose = np.eye(d * d)[[0, 2, 1, 3]]
        rho = random_density(np.random.default_rng(7), 1)
        np.testing.assert_array_equal(unvec(transpose @ vec(rho)), rho.T)
        w = np.linalg.eigvalsh(choi_matrix(superop_to_pauli(transpose)))
        assert w.min() == pytest.approx(-1.0)


class TestTraceDefect:
    def test_reads_row_zero(self):
        r = pauli_transfer(apply_kraus(random_kraus(8, 2, 3), pauli_strings(2)))
        assert trace_defect(r) <= 1e-13
        # scaling a trace-preserving channel scales the trace: R_00 = 0.9
        assert trace_defect(0.9 * r) > 1e-3
        assert trace_defect(0.9 * r) == pytest.approx(0.1, abs=1e-13)


class TestExpm:
    def test_zero_gives_identity(self):
        np.testing.assert_allclose(expm(np.zeros((4, 4)), 3.7), identity(4))

    def test_diagonal_case(self):
        d = np.diag([1.0 + 2j, -0.5, 3j])
        np.testing.assert_allclose(expm(d), np.diag(np.exp(np.diag(d))), rtol=1e-12)

    def test_half_period_precession_flips_ix(self):
        f = 2.5e5
        liou = commutator_superop(2 * np.pi * f * IZ)
        prop = expm(liou, 1.0 / (2 * f))
        np.testing.assert_allclose(unvec(prop @ vec(IX)), -IX, atol=1e-12)

    def test_nonfinite_rejected(self):
        bad = np.array([[np.inf, 0], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            expm(bad)

    @pytest.mark.parametrize("dtype, n", [(float, 64), (complex, 8)])
    def test_overflowing_product_rejected(self, dtype, n):
        # a and t are finite apart; their product is not, and neither a
        # RuntimeWarning nor an OverflowError may stand in for the error
        a = np.zeros((n, n), dtype=dtype)
        a[0, 1], a[1, 0] = 1e200, -1e200
        if dtype is complex:
            a *= 1j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite entries in generator"):
                expm(a, 1e200)
            with pytest.raises(ValueError, match="non-finite entries in generator"):
                expm(np.eye(n, dtype=dtype), np.inf)


def assert_close_to_scipy(a, rtol=1e-13):
    """expm(a) within rtol of scipy.linalg.expm(a), relative to the 1-norm
    of the result."""
    got, want = expm(a), scipy_expm(a)
    assert got.dtype == want.dtype
    err = np.abs(got - want).sum(axis=0).max() / np.abs(want).sum(axis=0).max()
    assert err <= rtol, err


def column_matrix(norm, n, dtype):
    """A signed cyclic shift times `norm` (times i if complex): one nonzero
    per column, so its 1-norm is exactly `norm`."""
    a = np.roll(np.diag(np.where(np.arange(n) % 2, -norm, norm)), 1, axis=0).astype(dtype)
    return 1j * a if dtype is complex else a


class TestTaylorKernel:
    """The Taylor kernel against its bound and against scipy.linalg.expm."""

    DEGREES = linalg._TAYLOR_DEGREES

    def test_thresholds_meet_the_written_bound(self):
        # e^(2 theta) theta^(m+1) / (m+1)! <= 2^-53 at each theta_m, and no
        # longer a relative 1e-9 above it (direct evaluation, no logs)
        bound = lambda m, th: math.exp(2 * th) * th ** (m + 1) / math.factorial(m + 1)
        assert [d.degree for d in self.DEGREES] == [2, 4, 6, 9, 12, 16, 20]
        for d in self.DEGREES:
            assert bound(d.degree, d.theta) <= 2.0**-53 * (1 + 1e-12)
            assert bound(d.degree, d.theta * (1 + 1e-9)) > 2.0**-53
        assert all(a.theta < b.theta for a, b in zip(self.DEGREES, self.DEGREES[1:]))

    def test_coefficients_are_the_taylor_series(self):
        for d in self.DEGREES:
            flat = np.concatenate([d.coeffs[:, :d.p].ravel(), [d.coeffs[-1, -1]]])
            want = [1 / math.factorial(k) for k in range(d.degree + 1)]
            np.testing.assert_allclose(flat, want, rtol=1e-15)
            assert np.count_nonzero(d.coeffs[:-1, -1]) == 0

    @pytest.mark.parametrize("i", range(7))
    def test_degree_switches_at_each_threshold(self, i):
        d = self.DEGREES[i]
        below, above = np.nextafter(d.theta, 0), np.nextafter(d.theta, np.inf)
        assert linalg._taylor_plan(below) == (d, 0)
        assert linalg._taylor_plan(d.theta) == (d, 0)
        nxt = (self.DEGREES[i + 1], 0) if i + 1 < len(self.DEGREES) else (d, 1)
        assert linalg._taylor_plan(above) == nxt
        for norm in (below, above):
            for dtype in (float, complex):
                a = column_matrix(norm, 5, dtype)
                assert np.abs(a).sum(axis=0).max() == norm
                assert_close_to_scipy(a)

    def test_fewest_squarings_that_reach_the_last_threshold(self):
        last = self.DEGREES[-1]
        for norm in (1.5, 10.0, 1e3, 1e300):
            deg, s = linalg._taylor_plan(norm)
            assert deg == last and norm * 2.0**-s <= last.theta < norm * 2.0 ** (1 - s)

    @pytest.mark.parametrize("a", [
        np.zeros((4, 4)),
        np.zeros((3, 3), dtype=complex),
        np.array([[2.5]]),
        np.array([[-3.0 + 1.0j]]),
        np.triu(np.arange(1.0, 37.0).reshape(6, 6), 1) / 36,
        np.triu(np.full((5, 5), 0.5 - 0.25j), 1),
    ], ids=["zero", "zero-complex", "1x1", "1x1-complex", "nilpotent", "nilpotent-complex"])
    def test_pinned_cases(self, a):
        assert_close_to_scipy(a)

    def test_zero_and_nilpotent_are_exact_sums(self):
        np.testing.assert_array_equal(expm(np.zeros((4, 4))), np.eye(4))
        # N^6 = 0: e^N is the finite sum of N^k / k!.  At this 1-norm (90)
        # scipy.linalg.expm is 1.8e-13 off that sum, so it is no oracle here
        n = np.triu(np.arange(1.0, 37.0).reshape(6, 6), 1)
        want = sum(np.linalg.matrix_power(n, k) / math.factorial(k) for k in range(6))
        np.testing.assert_allclose(expm(n), want, rtol=1e-14)

    def test_unitary_case(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = h + dagger(h)
        for t in (1e-3, 0.7, 40.0):
            u = expm(-1j * h, t)
            assert_close_to_scipy(-1j * t * h)
            np.testing.assert_allclose(u @ dagger(u), np.eye(8), atol=1e-13)

    @pytest.mark.parametrize("preset", ["fig2", "fig3"])
    def test_preset_generators(self, monkeypatch, preset):
        # every distinct window and sampling-step argument of `simulate`
        # (real 64x64 Pauli transfer generators) and of the ideal
        # propagator (complex 8x8 Hamiltonians)
        args = {}

        def recording(real):
            def expm_(g, t=1.0):
                args.setdefault((g.tobytes(), t), g * t)
                return real(g, t)
            return expm_

        for module in (evolve, sequences):
            monkeypatch.setattr(module, "expm", recording(module.expm))
        cfg = load_preset(preset)
        program, _, _ = run_transport(cfg.chain, cfg.bath, cfg.omega1, sampled=True)
        sequences.ideal_propagator(program, cfg.chain)
        kinds = Counter((a.shape, a.dtype.kind) for a in args.values())
        assert kinds == {((64, 64), "f"): {"fig2": 22, "fig3": 8}[preset],
                         ((8, 8), "c"): {"fig2": 11, "fig3": 4}[preset]}
        for a in args.values():
            assert_close_to_scipy(a)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 64), is_complex=st.booleans(),
           log_norm=st.floats(-10.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_random_matrices(self, n, is_complex, log_norm, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(n, n))
        if is_complex:
            g = g + 1j * rng.normal(size=(n, n))
        a = g * (10.0**log_norm / np.abs(g).sum(axis=0).max())
        # clip the spectral abscissa into [-1, 1], so that e^A neither
        # overflows nor underflows at 1-norms up to 1e3
        alpha = np.linalg.eigvals(a).real.max()
        a = a - (alpha - np.clip(alpha, -1.0, 1.0)) * np.eye(n)
        # the relative condition number of exp at A is at least ||A|| (it
        # equals ||A||_2 for normal A), and scipy.linalg.expm's own error
        # grows with it: above norm 1 the tolerance grows in proportion
        assert_close_to_scipy(a, 1e-13 * max(1.0, np.abs(a).sum(axis=0).max()))


def partition(pattern):
    """The blocks `_block_partition` finds in `pattern`, as sorted index
    lists, after checking its layout: one array per block size, sizes
    increasing, every index once."""
    pattern = np.asarray(pattern, dtype=bool)
    groups = linalg._block_partition(pattern)
    sizes = [g.shape[1] for g in groups]
    assert sizes == sorted(set(sizes))
    blocks = sorted(row.tolist() for g in groups for row in g)
    assert sorted(i for b in blocks for i in b) == list(range(pattern.shape[0]))
    assert all(b == sorted(b) for b in blocks)
    return blocks


def one_block_expm(g, t):
    """expm(g, t) evaluated by the Taylor kernel on the whole matrix as one
    block, with the plan expm takes."""
    x = np.multiply(g, t, dtype=np.result_type(g, t, np.float64))
    plan = linalg._taylor_plan(float(np.abs(x).sum(axis=0).max()))
    return linalg._taylor(x[None], *plan)[0]


class TestDiagonalBlocks:
    """expm on the diagonal blocks of its argument."""

    def test_asymmetric_entry_joins_its_indices(self):
        a = np.zeros((3, 3))
        a[0, 2] = 1.0
        assert partition(a) == [[0, 2], [1]]
        assert partition(a.T) == [[0, 2], [1]]

    def test_isolated_index_is_a_one_by_one_block(self):
        a = np.zeros((4, 4))
        a[0, 3] = a[3, 1] = a[2, 2] = 1.0
        assert partition(a) == [[0, 1, 3], [2]]
        a[2, 2] = 0.0
        assert partition(a) == [[0, 1, 3], [2]]

    def test_zero_and_trivial_sizes(self):
        assert linalg._block_partition(np.zeros((0, 0), dtype=bool)) == ()
        assert partition(np.zeros((5, 5))) == [[i] for i in range(5)]
        assert partition([[0.0]]) == partition([[2.0]]) == [[0]]
        assert expm(np.zeros((0, 0))).shape == (0, 0)
        np.testing.assert_array_equal(expm(np.zeros((5, 5)), 2.0), np.eye(5))

    def test_irreducible_matrix_is_one_block(self):
        # a cyclic shift reaches every index through one-way entries only
        shift = np.roll(np.eye(7), 1, axis=0)
        assert partition(shift) == [list(range(7))]
        assert partition(np.ones((4, 4))) == [[0, 1, 2, 3]]
        np.testing.assert_array_equal(expm(shift, 0.3), one_block_expm(shift, 0.3))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_any_memory_layout(self, dtype):
        # blocks {0, 2, 5}, {1, 4} and {3}; a transposed or Fortran-ordered
        # argument has the same blocks and must give the same exponential
        rng = np.random.default_rng(14)
        a = np.zeros((6, 6), dtype=dtype)
        for b in ([0, 2, 5], [1, 4], [3]):
            a[np.ix_(b, b)] = rng.normal(size=(len(b), len(b)))
            if dtype is complex:
                a[np.ix_(b, b)] += 1j * rng.normal(size=(len(b), len(b)))
        for arg in (a.T, np.asfortranarray(a), a[::-1, ::-1], a):
            assert not arg.flags.c_contiguous or arg is a
            assert_close_to_scipy(arg)
        np.testing.assert_array_equal(expm(np.asfortranarray(a)), expm(a))
        np.testing.assert_array_equal(expm(a.T), expm(np.ascontiguousarray(a.T)))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 64), nblocks=st.integers(1, 6), is_complex=st.booleans(),
           log_norm=st.floats(-10.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_random_block_diagonal_matrices(self, n, nblocks, is_complex, log_norm, seed):
        # 1-6 dense blocks of mixed sizes, their indices shuffled
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.choice(np.arange(1, n), min(nblocks, n) - 1, replace=False))
        blocks = np.split(rng.permutation(n), cuts)
        g = np.zeros((n, n), dtype=complex if is_complex else float)
        for b in blocks:
            g[np.ix_(b, b)] = rng.normal(size=(b.size, b.size))
            if is_complex:
                g[np.ix_(b, b)] += 1j * rng.normal(size=(b.size, b.size))
        a = g * (10.0**log_norm / np.abs(g).sum(axis=0).max())
        # the spectral abscissa clipped into [-1, 1] as in
        # TestTaylorKernel.test_random_matrices
        alpha = np.linalg.eigvals(a).real.max()
        a = a - (alpha - np.clip(alpha, -1.0, 1.0)) * np.eye(n)
        assert partition(a) == sorted(sorted(b.tolist()) for b in blocks)
        assert_close_to_scipy(a, 1e-13 * max(1.0, np.abs(a).sum(axis=0).max()))
        outside = np.ones((n, n), dtype=bool)
        for b in blocks:
            outside[np.ix_(b, b)] = False
        got = expm(a)
        assert got.dtype == a.dtype
        assert np.all(got[outside] == 0)

    # block sizes of each window generator kind: z rotations of the spins a
    # window does not drive split the Pauli strings; fig3's zero-quantum pair
    # (0, 2) ties those two spins together
    PRESET_BLOCKS = {
        ("fig2", "pulse"): {16: 4},
        ("fig2", "delay"): {8: 7, 4: 2},
        ("fig3", "pulse"): {32: 2},
        ("fig3", "delay"): {16: 4},
    }

    @pytest.mark.parametrize("preset", ["fig2", "fig3"])
    def test_preset_window_generators(self, preset):
        cfg = load_preset(preset)
        program = sequences.transport_protocol(cfg.chain, cfg.omega1, refocus=cfg.refocusing)
        windows = [w for w in sequences.compile_program(program, cfg.chain, cfg.bath)
                   if isinstance(w, sequences.GeneratorWindow) and w.duration > 0]
        kinds = set()
        # one window per generator and duration, as the window walk has them
        for w in {(id(w.spec), w.duration): w for w in windows}.values():
            kind = ("pulse" if any(c.mechanism is Mechanism.DRIVE for c in w.spec.components)
                    else "delay")
            kinds.add(kind)
            g = assemble(w.spec)
            sizes = {b.shape[1]: b.shape[0] for b in linalg._block_partition(g != 0)}
            assert sizes == self.PRESET_BLOCKS[preset, kind]
            for t in (w.duration, w.duration / evolve.SAMPLES_PER_WINDOW):
                np.testing.assert_array_equal(expm(g, t), one_block_expm(g, t))
        assert kinds == {"pulse", "delay"}


class TestCommutatorSuperop:
    """The column-stacking coherent generator of `oracles`."""

    def test_zero_hamiltonian(self):
        assert max_norm(commutator_superop(np.zeros((4, 4)))) == 0.0

    def test_annihilates_commuting_state(self):
        h = 2 * np.pi * 1e5 * embed(IZ, 0, 2)
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        assert max_norm(unvec(commutator_superop(h) @ vec(rho))) < 1e-16

    def test_matches_direct_commutator(self):
        rng = np.random.default_rng(12)
        w = 2 * np.pi * 3.3e5
        h = w * IZ
        plus = ket2dm(np.array([1, 1]) / np.sqrt(2))
        got = unvec(commutator_superop(h) @ vec(plus))
        np.testing.assert_allclose(got, -1j * (h @ plus - plus @ h), atol=1e-12)
        for _ in range(5):
            m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            h = m + dagger(m)
            rho = random_density(rng, 3)
            got = unvec(commutator_superop(h) @ vec(rho))
            np.testing.assert_allclose(got, -1j * (h @ rho - rho @ h), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            commutator_superop(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_unitary_propagation_preserves_density_structure(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            h = (m + dagger(m)) * 1e5
            rho = random_density(rng, 3)
            out = unvec(expm(commutator_superop(h), 1e-5) @ vec(rho))
            assert abs(np.trace(out) - 1.0) < 1e-10
            assert max_norm(out - dagger(out)) < 1e-10
            assert np.linalg.eigvalsh(0.5 * (out + dagger(out))).min() > -1e-10


class TestPauliStrings:
    def test_orthonormal_and_traceless(self):
        for n in (1, 2, 3):
            full = pauli_strings(n)
            assert full.shape[0] == 4**n
            np.testing.assert_array_equal(full[0], np.eye(2**n) / np.sqrt(2.0) ** n)
            fs = full[1:]
            for f in fs:
                assert abs(np.trace(f)) < 1e-14
            gram = np.einsum("iab,jba->ij", full, full)
            np.testing.assert_allclose(gram, np.eye(4**n), atol=1e-12)

    @pytest.mark.parametrize("traceless", [True, False])
    def test_built_once_and_read_only(self, traceless):
        # callers take the traceless basis as the view [1:]; it must be
        # read-only as well as the full basis it is cut from
        fs = pauli_strings(3)
        assert pauli_strings(3) is fs
        part = fs[1:] if traceless else fs
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part[0, 0, 0] = 1.0


def random_kraus(seed, nqubits, nkraus):
    """Kraus operators of a random CPTP map: the blocks of the Q factor of a
    complex Gaussian matrix, so sum_k K_k^dag K_k = I."""
    rng = np.random.default_rng(seed)
    d = 2**nqubits
    g = rng.normal(size=(nkraus * d, d)) + 1j * rng.normal(size=(nkraus * d, d))
    q, _ = np.linalg.qr(g)
    return q.reshape(nkraus, d, d)


def apply_kraus(kraus, ops):
    """sum_k K_k X K_k^dag of each operator X of the stack `ops`."""
    return sum(k @ ops @ dagger(k) for k in kraus)


def random_unitary(seed, nqubits):
    rng = np.random.default_rng(seed)
    d = 2**nqubits
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestPauliTransfer:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nqubits=st.integers(1, 3),
           nkraus=st.integers(1, 4))
    def test_round_trip_of_random_channels(self, seed, nqubits, nkraus):
        # from the images of the strings, against the column-stacking oracle
        kraus = random_kraus(seed, nqubits, nkraus)
        r = pauli_transfer(apply_kraus(kraus, pauli_strings(nqubits)))
        assert r.dtype == float and r.flags.c_contiguous
        s = sum(conjugation_superop(k) for k in kraus)
        assert max_norm(r - superop_to_pauli(s)) < 1e-13
        assert max_norm(pauli_to_superop(r) - s) < 1e-13
        # trace preservation reads off the first row: R[0] = e_0
        assert max_norm(r[0] - np.eye(4**nqubits)[0]) < 1e-13
        rho = random_density(np.random.default_rng(seed), nqubits)
        assert max_norm(from_pauli(r @ to_pauli(rho)) - apply_kraus(kraus, rho)) < 1e-13

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nqubits=st.integers(1, 4))
    def test_unitary_transfer_matches_column_stacking(self, seed, nqubits):
        u = random_unitary(seed, nqubits)
        r = unitary_transfer(u)
        assert max_norm(r - superop_to_pauli(conjugation_superop(u))) < 1e-14
        # orthogonal: a unitary channel is invertible and preserves the
        # Hilbert-Schmidt inner product
        assert max_norm(r @ r.T - np.eye(4**nqubits)) < 1e-13

    @pytest.mark.parametrize("images", [
        lambda: embed(IP, 1, 2) @ pauli_strings(2),
        lambda: 1j * pauli_strings(2),
        lambda: (apply_kraus(random_kraus(5, 2, 2), pauli_strings(2))
                 + 1e-9j * apply_kraus(random_kraus(6, 2, 2), pauli_strings(2))),
    ], ids=["one-sided", "imaginary-identity", "small-anti-hermitian-part"])
    def test_hermiticity_breaking_superoperator_raises(self, images):
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            pauli_transfer(images())

    def test_generator_exponential_stays_real(self):
        h = 2 * np.pi * 1e5 * embed(IX, 0, 2)
        strings = pauli_strings(2)
        r = pauli_transfer(-1j * (h @ strings - strings @ h))
        prop = expm(r, 1e-6)
        assert prop.dtype == float
        want = expm(commutator_superop(h), 1e-6)
        assert max_norm(pauli_to_superop(prop) - want) < 1e-13


class TestStateCoordinates:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nqubits=st.integers(1, 4),
           m=st.integers(1, 5))
    def test_round_trip(self, seed, nqubits, m):
        rng = np.random.default_rng(seed)
        rhos = np.array([random_density(rng, nqubits) for _ in range(m)])
        coords = to_pauli(rhos)
        assert coords.dtype == float and coords.shape == (m, 4**nqubits)
        assert max_norm(from_pauli(coords) - rhos) < 1e-14
        assert max_norm(to_pauli(rhos[0]) - coords[0]) < 1e-15
        # the identity string carries the trace
        np.testing.assert_allclose(coords[:, 0], 1.0 / np.sqrt(2.0) ** nqubits, atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nqubits=st.integers(1, 4),
           m=st.sampled_from([1, 2, 50]))
    def test_rows_equal_column_stacking_bit_for_bit(self, seed, nqubits, m):
        # the product with the Fortran-ordered strings sums each entry as
        # the column-stacking conversion did; a C-ordered operand sums the
        # one-row products of unitary windows in another order
        rs = np.random.default_rng(seed).normal(size=(m, 4**nqubits))
        want = np.array([unvec(v) for v in pauli_to_vecs(rs)])
        np.testing.assert_array_equal(from_pauli(rs), want)
        np.testing.assert_array_equal(from_pauli(rs[0]), unvec(pauli_to_vecs(rs[0])))


def test_site_operator_table_matches_embed():
    for n in (1, 2, 3):
        ops = site_operators(n)
        assert site_operators(n) is ops
        for table, op in zip(ops, (IX, IY, IZ, IP, IM)):
            assert table.shape == (n, 2**n, 2**n) and not table.flags.writeable
            for k in range(n):
                np.testing.assert_array_equal(table[k], embed(op, k, n))


def test_clip_to_density_floors_and_renormalizes():
    rho = np.diag([1.0001, -1e-4, 0.0, 0.0]).astype(complex)
    out = clip_to_density(rho)
    assert np.linalg.eigvalsh(out).min() >= 0
    assert abs(np.trace(out) - 1.0) < 1e-14


def test_kron_all_order():
    got = kron_all([IX, identity(2), IZ])
    assert got.shape == (8, 8)
    np.testing.assert_allclose(got, np.kron(np.kron(IX, identity(2)), IZ))


class TestSingleBlasThread:
    def test_restores_previous_counts_also_when_body_raises(self, monkeypatch):
        counts = [3, 4]

        def handle(i):
            return (lambda: counts[i]), (lambda n: counts.__setitem__(i, n))

        monkeypatch.setattr(linalg, "_openblas_handles", lambda: (handle(0), handle(1)))
        with single_blas_thread():
            assert counts == [1, 1]
        assert counts == [3, 4]
        with pytest.raises(RuntimeError, match="body failed"):
            with single_blas_thread():
                assert counts == [1, 1]
                raise RuntimeError("body failed")
        assert counts == [3, 4]

    def test_pins_every_loaded_openblas(self):
        handles = linalg._openblas_handles()
        if not handles:
            pytest.skip("no OpenBLAS with thread-count symbols is loaded")
        before = [get() for get, _ in handles]
        with single_blas_thread():
            assert [get() for get, _ in handles] == [1] * len(handles)
        assert [get() for get, _ in handles] == before

    def test_noop_without_library(self, monkeypatch):
        real = linalg._openblas_handles()
        before = [get() for get, _ in real]
        monkeypatch.setattr(linalg, "_openblas_handles", lambda: ())
        with single_blas_thread():
            assert [get() for get, _ in real] == before
            out = expm(np.diag([0.0, 1.0]).astype(complex))
        np.testing.assert_allclose(out, np.diag([1.0, np.e]))
