import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinswap import linalg
from spinswap.linalg import (
    basis_state,
    choi_matrix,
    clip_to_density,
    commutator_superop,
    conjugation_superop,
    dagger,
    embed,
    expm,
    identity,
    ket2dm,
    kron_all,
    left_mult,
    max_norm,
    partial_trace,
    pauli_strings,
    pauli_to_superop,
    pauli_to_vecs,
    right_mult,
    single_blas_thread,
    site_operators,
    spin_half_ops,
    superop_to_pauli,
    unvec,
    vec,
    vecs_to_pauli,
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
    def test_matches_sum_over_matrix_units(self):
        # sum_ij |i><j| (x) S(|i><j|) for a random (non-physical) superoperator
        rng = np.random.default_rng(5)
        d = 3
        s = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        ref = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                e_ij = np.outer(np.eye(d)[i], np.eye(d)[j])
                ref += np.kron(e_ij, unvec(s @ vec(e_ij)))
        np.testing.assert_array_equal(choi_matrix(s), ref)

    def test_unitary_channel_is_rank_one_with_trace_d(self):
        rng = np.random.default_rng(6)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        w = np.linalg.eigvalsh(choi_matrix(conjugation_superop(u)))
        np.testing.assert_allclose(w, [0.0] * 15 + [4.0], atol=1e-12)

    def test_transpose_is_not_completely_positive(self):
        d = 2
        transpose = np.eye(d * d)[[0, 2, 1, 3]]
        rho = random_density(np.random.default_rng(7), 1)
        np.testing.assert_array_equal(unvec(transpose @ vec(rho)), rho.T)
        assert np.linalg.eigvalsh(choi_matrix(transpose)).min() == pytest.approx(-1.0)


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


class TestCommutatorSuperop:
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
            fs = pauli_strings(n, traceless=True)
            assert fs.shape[0] == 4**n - 1
            for f in fs:
                assert abs(np.trace(f)) < 1e-14
            gram = np.einsum("iab,jba->ij", fs, fs)
            np.testing.assert_allclose(gram, np.eye(4**n - 1), atol=1e-12)


    @pytest.mark.parametrize("traceless", [True, False])
    def test_built_once_and_read_only(self, traceless):
        fs = pauli_strings(3, traceless)
        assert pauli_strings(3, traceless) is fs
        assert not fs.flags.writeable
        with pytest.raises(ValueError):
            fs[0, 0, 0] = 1.0


def random_channel(seed, nqubits, nkraus):
    """Column-stacking superoperator of a random CPTP map: its Kraus
    operators are the blocks of the Q factor of a complex Gaussian matrix,
    so sum_k K_k^dag K_k = I."""
    rng = np.random.default_rng(seed)
    d = 2**nqubits
    g = rng.normal(size=(nkraus * d, d)) + 1j * rng.normal(size=(nkraus * d, d))
    q, _ = np.linalg.qr(g)
    return sum(conjugation_superop(k) for k in q.reshape(nkraus, d, d))


class TestPauliTransfer:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nqubits=st.integers(1, 3),
           nkraus=st.integers(1, 4))
    def test_round_trip_of_random_channels(self, seed, nqubits, nkraus):
        s = random_channel(seed, nqubits, nkraus)
        r = superop_to_pauli(s)
        assert r.dtype == float
        assert max_norm(pauli_to_superop(r) - s) < 1e-13
        # trace preservation reads off the first row: R[0] = e_0
        assert max_norm(r[0] - np.eye(4**nqubits)[0]) < 1e-13
        rho = random_density(np.random.default_rng(seed), nqubits)
        coords = vecs_to_pauli(vec(rho))
        assert coords.dtype == float
        assert max_norm(pauli_to_vecs(coords) - vec(rho)) < 1e-14
        assert max_norm(pauli_to_vecs(r @ coords) - s @ vec(rho)) < 1e-13

    @pytest.mark.parametrize("superop", [
        lambda: left_mult(embed(IP, 1, 2)),
        lambda: 1j * np.eye(16),
        lambda: random_channel(5, 2, 2) + 1e-9j * random_channel(6, 2, 2),
    ], ids=["one-sided", "imaginary-identity", "small-anti-hermitian-part"])
    def test_hermiticity_breaking_superoperator_raises(self, superop):
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            superop_to_pauli(superop())

    def test_generator_exponential_stays_real(self):
        r = superop_to_pauli(commutator_superop(2 * np.pi * 1e5 * embed(IX, 0, 2)))
        prop = expm(r, 1e-6)
        assert prop.dtype == float
        want = expm(commutator_superop(2 * np.pi * 1e5 * embed(IX, 0, 2)), 1e-6)
        assert max_norm(pauli_to_superop(prop) - want) < 1e-13


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
