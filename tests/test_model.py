import numpy as np
import pytest

from spinswap.linalg import basis_state, embed, max_norm, spin_half_ops
from spinswap.model import (
    BathSpec,
    ChainSpec,
    DriveSpec,
    Regime,
    SecularMode,
    TimescaleSeparationWarning,
    default_coarse_grain_dt,
    dipolar_hamiltonian,
    drive_hamiltonian,
    resolve_secular_mode,
    system_env_coupling,
)

IX, IY, IZ, IP, IM = spin_half_ops()

FIG2_LARMOR = (2 * np.pi * 1e7, 2 * np.pi * 1e6, 2 * np.pi * 5e5)


class TestDipolar:
    def test_ising_eigenvalues(self):
        j = 150e3
        h = dipolar_hamiltonian((0, 1), j, Regime.ISING_ONLY, 2)
        np.testing.assert_allclose(
            np.diag(h),
            [np.pi * j / 2, -np.pi * j / 2, -np.pi * j / 2, np.pi * j / 2],
        )
        assert max_norm(h - np.diag(np.diag(h))) == 0.0  # diagonal

    def test_zero_quantum_singlet_eigenstate(self):
        j = 150e3
        h = dipolar_hamiltonian((0, 1), j, Regime.ZERO_QUANTUM, 2)
        psi_m = (basis_state([1, 0]) - basis_state([0, 1])) / np.sqrt(2)
        np.testing.assert_allclose(h @ psi_m, 0.0 * psi_m, atol=1e-9)

    def test_zero_coupling_is_zero_operator(self):
        assert max_norm(dipolar_hamiltonian((0, 1), 0.0, Regime.ZERO_QUANTUM, 2)) == 0

    def test_zero_quantum_conserves_total_z(self):
        h = dipolar_hamiltonian((0, 2), 7e4, Regime.ZERO_QUANTUM, 3)
        total_z = sum(embed(IZ, k, 3) for k in range(3))
        assert max_norm(h @ total_z - total_z @ h) < 1e-9

    def test_hermitian(self):
        for regime in (Regime.ISING_ONLY, Regime.ZERO_QUANTUM):
            h = dipolar_hamiltonian((0, 1), 1.5e5, regime, 3)
            assert max_norm(h - h.conj().T) < 1e-12

    def test_requires_resolved_regime(self):
        with pytest.raises(ValueError):
            dipolar_hamiltonian((0, 1), 1e3, Regime.AUTO, 2)

    def test_invalid_pair(self):
        with pytest.raises(ValueError):
            dipolar_hamiltonian((0, 2), 1e3, Regime.ISING_ONLY, 2)


class TestDrive:
    def setup_method(self):
        self.chain = ChainSpec(FIG2_LARMOR)

    def test_resonant_x_drive(self):
        w1 = 2 * np.pi * 1.5e5
        drive = DriveSpec(w1, self.chain.larmor[0], 0.0, (0,))
        comps = drive_hamiltonian(drive, self.chain)
        assert len(comps) == 1
        assert comps[0].freq == 0.0
        np.testing.assert_allclose(comps[0].op, w1 * embed(IX, 0, 3), atol=1e-12)

    def test_phase_pi_half_gives_y(self):
        w1 = 2 * np.pi * 1.5e5
        drive = DriveSpec(w1, self.chain.larmor[2], np.pi / 2, (2,))
        comps = drive_hamiltonian(drive, self.chain)
        np.testing.assert_allclose(comps[0].op, w1 * embed(IY, 2, 3), atol=1e-9)

    def test_larmor_frame_off_resonance_components(self):
        w1 = 2 * np.pi * 1.5e5
        carrier = self.chain.larmor[0] + 3e5
        drive = DriveSpec(w1, carrier, 0.3, (0,))
        comps = drive_hamiltonian(drive, self.chain)
        assert len(comps) == 2
        # conjugate-closed pair at +-(carrier - larmor)
        freqs = sorted(c.freq for c in comps)
        np.testing.assert_allclose(freqs, [-3e5, 3e5], atol=1e-6)
        total = sum(c.op for c in comps)
        assert max_norm(total - total.conj().T) < 1e-12
        # t = 0 reconstruction matches the resonant drive operator
        axis = np.cos(0.3) * embed(IX, 0, 3) + np.sin(0.3) * embed(IY, 0, 3)
        np.testing.assert_allclose(total, w1 * axis, atol=1e-9)

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            drive_hamiltonian(DriveSpec(1.0, 1.0, 0.0, (5,)), self.chain)


class TestSystemEnv:
    def test_zero_coupling_empty(self):
        chain = ChainSpec(FIG2_LARMOR)
        assert system_env_coupling(chain, BathSpec(0.0, tau_c=1e-7)) == []

    def test_first_order_env_trace_vanishes(self):
        # Tr_E[H_SE (rho x I/2)] = 0: environment factors are traceless
        chain = ChainSpec((2 * np.pi * 1e6,))
        bath = BathSpec(2 * np.pi * 1e5, tau_c=1e-7)
        comps = system_env_coupling(chain, bath)
        assert len(comps) == 2
        for c in comps:
            assert c.has_env
            assert abs(np.trace(c.env_op)) < 1e-15
            assert c.freq == 0.0

    def test_full_coupling_reconstruction_on_joint_space(self):
        # sum of (system op) x (env op) equals omega_se (I+S- + I-S+)/2
        chain = ChainSpec((2 * np.pi * 1e6,))
        wse = 2 * np.pi * 1e5
        bath = BathSpec(wse, tau_c=1e-7)
        comps = system_env_coupling(chain, bath)
        total = sum(np.kron(c.op, c.env_op) for c in comps)
        expected = 0.5 * wse * (np.kron(IP, IM) + np.kron(IM, IP))
        np.testing.assert_allclose(total, expected, atol=1e-9)


class TestRegimeSelection:
    def test_equal_frequencies_always_zero_quantum(self):
        chain = ChainSpec((2 * np.pi * 1e7, 2 * np.pi * 1e7))
        mode = SecularMode(Regime.AUTO, 1e-12)
        assert resolve_secular_mode(mode, (0, 1), chain) == Regime.ZERO_QUANTUM

    def test_reference_parameters_select_ising(self):
        chain = ChainSpec(FIG2_LARMOR)
        mode = SecularMode(Regime.AUTO, 1e-5)
        # spins 1,2: delta omega = 2pi x 9e6 rad/s -> product ~ 565
        assert resolve_secular_mode(mode, (0, 1), chain) == Regime.ISING_ONLY

    def test_boundary_goes_to_ising(self):
        dt = 1e-6
        chain = ChainSpec((0.0, 1.0 / dt))
        mode = SecularMode(Regime.AUTO, dt)
        assert resolve_secular_mode(mode, (0, 1), chain) == Regime.ISING_ONLY

    def test_explicit_modes_pass_through(self):
        chain = ChainSpec(FIG2_LARMOR)
        for regime in (Regime.ISING_ONLY, Regime.ZERO_QUANTUM):
            mode = SecularMode(regime, 1e-5)
            assert resolve_secular_mode(mode, (0, 1), chain) == regime

    def test_default_window_is_geometric_mean(self):
        bath = BathSpec(2 * np.pi * 1e5, tau_c=1.6e-7)
        w1 = 2 * np.pi * 1.5e5
        dt = default_coarse_grain_dt(bath, w1)
        np.testing.assert_allclose(dt, np.sqrt(bath.tau_c / w1))
        assert bath.tau_c < dt < 1.0 / w1

    def test_mode_requires_a_positive_window(self):
        with pytest.raises(TypeError):
            SecularMode(Regime.AUTO)
        for dt in (0.0, -1e-7):
            with pytest.raises(ValueError, match="coarse_grain_dt"):
                SecularMode(Regime.AUTO, dt)


class TestBathSpec:
    def test_tau_c_from_kappa(self):
        kappa = 3.5e3
        bath = BathSpec(0.0, kappa=kappa)
        np.testing.assert_allclose(bath.tau_c, 2.0 / kappa**2)

    def test_kappa_from_tau_c(self):
        bath = BathSpec(0.0, tau_c=1.6e-7)
        np.testing.assert_allclose(bath.tau_c, 2.0 / bath.kappa**2, rtol=1e-12)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError):
            BathSpec(0.0, tau_c=1.6e-7, kappa=1.0)

    def test_timescale_separation_warning(self):
        with pytest.warns(TimescaleSeparationWarning):
            BathSpec(2 * np.pi * 1e7, tau_c=1e-6)

    def test_requires_one_of_tau_c_kappa(self):
        with pytest.raises(ValueError):
            BathSpec(1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field, value", [("tau_c", 0.0), ("kappa", 0.0),
                                              ("tau_c", -1.6e-7), ("kappa", -3.5e3)])
    def test_nonpositive_tau_c_or_kappa_rejected(self, field, value):
        # checked before the other is derived: no division by zero, no
        # sqrt of a negative, and a negative kappa is not squared away
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            BathSpec(0.0, **{field: value})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("given, bad", [
        ({"kappa": 1e200}, "tau_c"),  # derived tau_c underflows to 0
        ({"tau_c": 1e-320}, "kappa"),  # derived kappa overflows to inf
        ({"tau_c": np.inf}, "tau_c"),
        ({"kappa": np.inf}, "kappa"),
        ({"tau_c": np.nan}, "tau_c"),
        ({"tau_c": 1.0, "kappa": 1e200}, "inconsistent"),
    ], ids=["kappa-1e200", "tau_c-1e-320", "tau_c-inf", "kappa-inf", "tau_c-nan",
            "both-kappa-1e200"])
    def test_out_of_range_tau_c_or_kappa_rejected(self, given, bad):
        # supplied and derived values alike must be finite and positive,
        # and the error is a ValueError naming the field
        message = bad if bad == "inconsistent" else f"{bad} must be positive and finite"
        with pytest.raises(ValueError, match=message):
            BathSpec(0.0, **given)


class TestChainSpec:
    def test_coupling_lookup_is_order_insensitive(self):
        chain = ChainSpec(FIG2_LARMOR, ((0, 2, 1.5e5),))
        assert chain.coupling_j((2, 0)) == 1.5e5
        assert chain.coupling_j((0, 1)) == 0.0

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec((1.0, 2.0), ((0, 0, 1e3),))
        with pytest.raises(ValueError):
            ChainSpec((1.0, 2.0), ((0, 5, 1e3),))
        with pytest.raises(ValueError):
            ChainSpec((1.0, 2.0), ((0, 1, -1e3),))
        with pytest.raises(ValueError):
            ChainSpec(())

    @pytest.mark.parametrize("second", [(0, 2), (2, 0)], ids=["same-order", "reversed"])
    def test_pair_listed_twice_rejected(self, second):
        # a repeated pair would put 2J into the Hamiltonian while
        # coupling_j times the SWAP for J
        with pytest.raises(ValueError, match=r"coupling pair \(\d,\d\) listed twice"):
            ChainSpec(FIG2_LARMOR, ((0, 2, 1.5e5), (0, 1, 1.5e5), second + (1.5e5,)))
