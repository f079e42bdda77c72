import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinswap.evolve import channel_pass, propagate
from spinswap.linalg import (
    basis_state,
    conjugation_superop,
    dagger,
    expm,
    identity,
    ket2dm,
    kron_all,
    partial_trace,
    pauli_strings,
    spin_half_ops,
    trace_defect,
    unvec,
    vec,
)
from spinswap.metrics import (
    TransferReport,
    concurrence,
    pair_channel,
    report,
    state_fidelity,
    swap_efficiency,
)
from spinswap.model import BathSpec, ChainSpec, Regime, SecularMode
from spinswap.sequences import U_SWAP, compile_program, transport_protocol

IX, IY, IZ, IP, IM = spin_half_ops()

J = 1.5e5
W1 = 2 * np.pi * 1.5e5
CHAIN3 = ChainSpec(
    (2 * np.pi * 1e7, 2 * np.pi * 1e6, 2 * np.pi * 5e5),
    ((0, 2, J), (0, 1, J), (1, 2, J)),
)
MODE = SecularMode(Regime.AUTO, 4.1e-7)

PSI_M = (basis_state([1, 0]) - basis_state([0, 1])) / np.sqrt(2)
PSI_I = np.kron(PSI_M, basis_state([0]))
PSI_F = np.kron(basis_state([0]), (basis_state([0, 1]) - basis_state([1, 0])) / np.sqrt(2))


class TestStateFidelity:
    def test_self_fidelity_is_one(self):
        np.testing.assert_allclose(state_fidelity(ket2dm(PSI_F), PSI_F), 1.0)

    def test_maximally_mixed_three_qubits(self):
        np.testing.assert_allclose(
            state_fidelity(identity(8) / 8, PSI_F), 1.0 / 8.0
        )

    def test_initial_vs_target_overlap(self):
        # |<psi_f|psi_i>|^2 = 1/4: both states share the -|010>/sqrt(2)
        # component, so the supports are not orthogonal
        np.testing.assert_allclose(
            state_fidelity(ket2dm(PSI_I), PSI_F), 0.25, atol=1e-12
        )

    def test_rejects_unnormalized_target(self):
        with pytest.raises(ValueError):
            state_fidelity(identity(8) / 8, 2.0 * PSI_F)


def wootters_oracle(rho):
    """Independent eigen-decomposition implementation."""
    sy = np.array([[0, -1j], [1j, 0]])
    syy = np.kron(sy, sy)
    r = rho @ syy @ rho.conj() @ syy
    lams = np.sqrt(np.abs(np.sort(np.linalg.eigvals(r).real)[::-1]))
    return max(0.0, lams[0] - lams[1] - lams[2] - lams[3])


class TestConcurrence:
    def test_singlet_is_maximally_entangled(self):
        np.testing.assert_allclose(concurrence(ket2dm(PSI_M)), 1.0, atol=1e-12)

    def test_product_state_is_separable(self):
        rho = ket2dm(np.kron(basis_state([0]), (basis_state([0]) + basis_state([1])) / np.sqrt(2)))
        assert concurrence(rho) < 1e-12

    def test_werner_family_closed_form(self):
        for p in (0.0, 0.25, 1.0 / 3.0, 0.5, 0.8, 1.0):
            rho = p * ket2dm(PSI_M) + (1 - p) * identity(4) / 4
            expected = max(0.0, (3 * p - 1) / 2)
            np.testing.assert_allclose(concurrence(rho), expected, atol=1e-9)
            np.testing.assert_allclose(wootters_oracle(rho), expected, atol=1e-9)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(17)
        rho = ket2dm(PSI_M)
        for _ in range(50):
            ha = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            hb = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u = np.kron(expm(-1j * (ha + dagger(ha))), expm(-1j * (hb + dagger(hb))))
            rotated = u @ rho @ dagger(u)
            assert abs(concurrence(rotated) - 1.0) < 1e-10

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            concurrence(identity(8) / 8)


def pauli_overlap_oracle(channel_fn, ideal):
    """Closed-form average-gate-fidelity sum over the normalized Paulis."""
    paulis = pauli_strings(2, traceless=False)
    s = sum(
        np.trace(ideal @ dagger(p) @ dagger(ideal) @ channel_fn(p)).real
        for p in paulis
    )
    return (4.0 * (s / 16.0) + 1.0) / 5.0


class TestSwapEfficiency:
    def test_exact_swap_scores_one(self):
        chan = conjugation_superop(U_SWAP)
        np.testing.assert_allclose(swap_efficiency(chan), 1.0, atol=1e-10)

    def test_identity_channel_scores_two_fifths(self):
        chan = np.eye(16, dtype=complex)
        np.testing.assert_allclose(swap_efficiency(chan), 0.4, atol=1e-12)
        oracle = pauli_overlap_oracle(lambda p: p, U_SWAP)
        np.testing.assert_allclose(oracle, 0.4, atol=1e-12)

    def test_depolarizing_channel(self):
        # E(X) = Tr(X) I/4: columns are vec(I/4) * trace of basis element
        chan = np.outer(vec(identity(4) / 4), vec(identity(4)).conj())
        got = swap_efficiency(chan)
        oracle = pauli_overlap_oracle(
            lambda p: np.trace(p) * identity(4) / 4, U_SWAP
        )
        np.testing.assert_allclose(got, oracle, atol=1e-12)
        np.testing.assert_allclose(got, 0.25, atol=1e-12)

    def test_global_phase_invariance(self):
        for theta in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            chan = conjugation_superop(np.exp(1j * theta) * U_SWAP)
            np.testing.assert_allclose(swap_efficiency(chan), 1.0, atol=1e-10)

    def test_wrong_unitary_scores_below_one(self):
        chan = conjugation_superop(np.diag([1, 1, 1, -1]).astype(complex))
        assert swap_efficiency(chan) < 1.0 - 1e-3

    def test_non_trace_preserving_rejected(self):
        with pytest.raises(ValueError):
            swap_efficiency(0.5 * np.eye(16, dtype=complex))


class TestPairChannel:
    def test_ideal_swap_on_pair(self):
        u = kron_all([U_SWAP.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4), identity(2)])
        # build SWAP(0,2) on 3 qubits directly instead: permute basis states
        perm = np.zeros((8, 8), dtype=complex)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    perm[c * 4 + b * 2 + a, a * 4 + b * 2 + c] = 1.0
        chan = pair_channel(conjugation_superop(perm), (0, 2), 3)
        np.testing.assert_allclose(swap_efficiency(chan), 1.0, atol=1e-10)

    def test_embedding_matches_site_by_site_reference(self):
        # reference: embed each pair matrix unit with maximally mixed
        # bystanders as a sum of site-ordered Kronecker products, apply the
        # full channel, and trace the bystanders out
        rng = np.random.default_rng(7)
        filler = identity(2) / 2
        for pair, nsites in (((0, 2), 3), ((0, 1), 3), ((1, 2), 3), ((1, 3), 4)):
            dims = [2] * nsites
            n2 = 4**nsites
            superop = rng.normal(size=(n2, n2)) + 1j * rng.normal(size=(n2, n2))
            ref = np.zeros((16, 16), dtype=complex)
            for k in range(16):
                x = unvec(np.eye(16)[k])
                full = np.zeros((2**nsites, 2**nsites), dtype=complex)
                for (ao, bo, ai, bi), coeff in np.ndenumerate(x.reshape(2, 2, 2, 2)):
                    factors = [filler] * nsites
                    factors[pair[0]] = np.outer(np.eye(2)[ao], np.eye(2)[ai])
                    factors[pair[1]] = np.outer(np.eye(2)[bo], np.eye(2)[bi])
                    full += coeff * kron_all(factors)
                ref[:, k] = vec(partial_trace(unvec(superop @ vec(full)), pair, dims))
            np.testing.assert_allclose(pair_channel(superop, pair, nsites), ref,
                                       rtol=0, atol=1e-12)


def random_kraus(seed, rank):
    """`rank` Kraus operators of a random two-qubit CPTP channel, the 4x4
    blocks of a random isometry (Q of a Gaussian (4 rank) x 4 matrix), so
    sum_k K_k^dag K_k = Q^dag Q = I to rounding."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4 * rank, 4)) + 1j * rng.normal(size=(4 * rank, 4))
    return list(np.linalg.qr(g)[0].reshape(rank, 4, 4))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_closed_forms_match_pauli_sum_on_random_channels(seed, rank):
    kraus = random_kraus(seed, rank)
    superop = sum(conjugation_superop(k) for k in kraus)
    assert trace_defect(superop) <= 1e-13
    oracle = pauli_overlap_oracle(
        lambda p: sum(k @ p @ dagger(k) for k in kraus), U_SWAP)
    assert abs(swap_efficiency(superop) - oracle) <= 1e-12


class TestReport:
    def _run(self, bath, refocus=True):
        prog = transport_protocol(CHAIN3, W1, MODE, refocus=refocus)
        windows = compile_program(prog, CHAIN3, bath, MODE)
        return channel_pass(ket2dm(prog.meta["initial_state"]), windows,
                            meta=prog.meta)

    def test_ideal_closed_run_scores_unity(self):
        bath = BathSpec(0.0, tau_c=1e-18)
        rep = report(self._run(bath), CHAIN3)
        assert rep.fidelity > 1 - 1e-6
        assert rep.concurrence_23 > 1 - 1e-6
        assert rep.efficiency > 1 - 1e-6

    def test_fully_decohered_state(self):
        traj = propagate(
            identity(8) / 8, [], meta={"target_state": PSI_F}
        )
        np.testing.assert_allclose(
            state_fidelity(traj.final_state, PSI_F), 1 / 8
        )
        from spinswap.linalg import partial_trace

        rho23 = partial_trace(traj.final_state, (1, 2), [2, 2, 2])
        assert concurrence(rho23) == 0.0

    def test_initial_state_has_no_23_entanglement(self):
        from spinswap.linalg import partial_trace

        rho23 = partial_trace(ket2dm(PSI_I), (1, 2), [2, 2, 2])
        assert concurrence(rho23) < 1e-12

    def test_missing_metadata_rejected(self):
        run = channel_pass(identity(8) / 8, [])
        with pytest.raises(ValueError):
            report(run, CHAIN3)


class TestTransferReport:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            TransferReport(fidelity=1.5, concurrence_23=0.0, efficiency=0.0)
        TransferReport(fidelity=1.0, concurrence_23=0.5, efficiency=0.25)
