import warnings

import numpy as np
import pytest

from spinswap.linalg import basis_state, embed, max_norm, spin_half_ops
from spinswap.model import (
    BathSpec,
    ChainSpec,
    Regime,
    TimescaleSeparationWarning,
    coupling_component,
    default_coarse_grain_dt,
    drive_hamiltonian,
    resolve_regime,
    system_env_coupling,
    warn_timescale,
)

IX, IY, IZ, IP, IM = spin_half_ops()

FIG2_LARMOR = (2 * np.pi * 1e7, 2 * np.pi * 1e6, 2 * np.pi * 5e5)
ISING, ZQ = Regime.ISING_ONLY, Regime.ZERO_QUANTUM


def coupling_op(pairs, regime, nsites):
    """The coupling component's operator for (a, b, J) pairs, every pair
    in the coupling form `regime`."""
    chain = ChainSpec(FIG2_LARMOR[:nsites], tuple(p + (regime,) for p in pairs))
    return coupling_component(chain).op


class TestDipolar:
    def test_ising_eigenvalues(self):
        j = 150e3
        h = coupling_op(((0, 1, j),), Regime.ISING_ONLY, 2)
        np.testing.assert_allclose(
            np.diag(h),
            [np.pi * j / 2, -np.pi * j / 2, -np.pi * j / 2, np.pi * j / 2],
        )
        assert max_norm(h - np.diag(np.diag(h))) == 0.0  # diagonal

    def test_zero_quantum_singlet_eigenstate(self):
        j = 150e3
        h = coupling_op(((0, 1, j),), Regime.ZERO_QUANTUM, 2)
        psi_m = (basis_state([1, 0]) - basis_state([0, 1])) / np.sqrt(2)
        np.testing.assert_allclose(h @ psi_m, 0.0 * psi_m, atol=1e-9)

    def test_zero_coupling_is_zero_operator(self):
        # a zero J adds nothing to the sum, and a chain of zero J has no
        # coupling component
        with_zero = coupling_op(((0, 2, 7e4), (0, 1, 0.0)), Regime.ZERO_QUANTUM, 3)
        without = coupling_op(((0, 2, 7e4),), Regime.ZERO_QUANTUM, 3)
        np.testing.assert_array_equal(with_zero, without)
        chain = ChainSpec(FIG2_LARMOR[:2], ((0, 1, 0.0, ZQ),))
        assert coupling_component(chain) is None

    def test_zero_quantum_conserves_total_z(self):
        h = coupling_op(((0, 2, 7e4),), Regime.ZERO_QUANTUM, 3)
        total_z = sum(embed(IZ, k, 3) for k in range(3))
        assert max_norm(h @ total_z - total_z @ h) < 1e-9

    def test_hermitian(self):
        for regime in (Regime.ISING_ONLY, Regime.ZERO_QUANTUM):
            h = coupling_op(((0, 1, 1.5e5), (1, 2, 7e4)), regime, 3)
            assert max_norm(h - h.conj().T) < 1e-12


class TestDrive:
    def setup_method(self):
        self.chain = ChainSpec(FIG2_LARMOR)

    def test_resonant_x_drive(self):
        w1 = 2 * np.pi * 1.5e5
        comps = drive_hamiltonian(w1, 0.0, (0,), self.chain)
        assert len(comps) == 1
        np.testing.assert_allclose(comps[0].op, w1 * embed(IX, 0, 3), atol=1e-12)

    def test_phase_pi_half_gives_y(self):
        w1 = 2 * np.pi * 1.5e5
        comps = drive_hamiltonian(w1, np.pi / 2, (2,), self.chain)
        np.testing.assert_allclose(comps[0].op, w1 * embed(IY, 2, 3), atol=1e-9)

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            drive_hamiltonian(1.0, 0.0, (5,), self.chain)


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
        w = 2 * np.pi * 1e7
        assert resolve_regime(Regime.AUTO, w, w, 1e-12) == ZQ

    def test_reference_parameters_select_ising(self):
        # spins 1,2: delta omega = 2pi x 9e6 rad/s -> product ~ 565
        assert resolve_regime(Regime.AUTO, FIG2_LARMOR[0], FIG2_LARMOR[1], 1e-5) == ISING

    def test_boundary_goes_to_ising(self):
        # the rule is strict: a product of exactly 1 is Ising, just below
        # it zero-quantum
        dt = 1e-6
        assert resolve_regime(Regime.AUTO, 0.0, 1.0 / dt, dt) == ISING
        assert resolve_regime(Regime.AUTO, 0.0, np.nextafter(1.0 / dt, 0.0), dt) == ZQ

    def test_explicit_modes_pass_through(self):
        for regime in (ISING, ZQ):
            for a, b in ((0, 1), (0, 0)):
                assert resolve_regime(regime, FIG2_LARMOR[a], FIG2_LARMOR[b], 1e-5) == regime

    def test_default_window_is_geometric_mean(self):
        bath = BathSpec(2 * np.pi * 1e5, tau_c=1.6e-7)
        w1 = 2 * np.pi * 1.5e5
        dt = default_coarse_grain_dt(bath, w1)
        np.testing.assert_allclose(dt, np.sqrt(bath.tau_c / w1))
        assert bath.tau_c < dt < 1.0 / w1

    def test_mode_requires_a_positive_window(self):
        with pytest.raises(TypeError):
            resolve_regime(Regime.AUTO, 0.0, 1.0)
        for regime in (Regime.AUTO, ISING):
            for dt in (0.0, -1e-7):
                with pytest.raises(ValueError, match="coarse_grain_dt"):
                    resolve_regime(regime, 0.0, 1.0, dt)


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

    def test_timescale_warning_names_the_caller(self):
        # not the dataclass-generated __init__ ("<string>")
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            BathSpec(1e6, tau_c=1e-5)
        assert [w.filename for w in seen] == [__file__]

    @pytest.mark.parametrize("product, warned", [(1.0, 1), (np.nextafter(1.0, 0.0), 0)])
    def test_timescale_rule_includes_one(self, product, warned):
        # BathSpec and compile_program share this one rule and message
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            warn_timescale("omega_1", product)
        assert [str(w.message) for w in seen] == warned * [
            "omega_1 * tau_c = 1 >= 1 violates the timescale separation the "
            "master equation assumes"]

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
        chain = ChainSpec(FIG2_LARMOR, ((0, 2, 1.5e5, ZQ),))
        assert chain.coupling_j((2, 0)) == 1.5e5
        assert chain.coupling((2, 0)) == (0, 2, 1.5e5, ZQ)
        assert chain.coupling_j((0, 1)) == 0.0
        assert chain.coupling((0, 1)) is None

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec((1.0, 2.0), ((0, 0, 1e3, ISING),))
        with pytest.raises(ValueError):
            ChainSpec((1.0, 2.0), ((0, 5, 1e3, ISING),))
        with pytest.raises(ValueError):
            ChainSpec((1.0, 2.0), ((0, 1, -1e3, ISING),))
        with pytest.raises(ValueError):
            ChainSpec(())

    @pytest.mark.parametrize("couplings, field", [
        # int() would read 0.9 as site 0 and True as site 1
        (((0.9, 2, 1e3, ISING),), r"couplings\[0\] site"),
        (((0, 2, 1e3, ISING), (True, 2.0, 5e2, ISING)), r"couplings\[1\] site"),
    ], ids=["non-integral", "boolean"])
    def test_non_integer_sites_rejected(self, couplings, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer site index"):
            ChainSpec((1.0, 2.0, 3.0), couplings)

    def test_integral_float_sites_are_site_indices(self):
        chain = ChainSpec((1.0, 2.0, 3.0), ((np.float64(0.0), 2.0, 1e3, ISING),))
        assert chain.couplings == ((0, 2, 1e3, ISING),)
        assert all(type(site) is int for site in chain.couplings[0][:2])

    @pytest.mark.parametrize("regime", [Regime.AUTO, "ising_only", None],
                             ids=["auto", "string", "none"])
    def test_unresolved_regime_rejected(self, regime):
        # every coupling carries its resolved form; nothing falls back to
        # the Ising coupling
        with pytest.raises(ValueError, match=r"coupling pair \(1,2\) needs a resolved regime"):
            ChainSpec(FIG2_LARMOR, ((0, 2, 1.5e5, ISING), (1, 2, 1.5e5, regime)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("build, field", [
        (lambda v: ChainSpec((FIG2_LARMOR[0], v, FIG2_LARMOR[2])), r"larmor\[1\]"),
        # a NaN J never wins the coupling's max and would drop the pair
        (lambda v: ChainSpec(FIG2_LARMOR, ((0, 2, 1.5e5, ISING), (0, 1, v, ISING))),
         r"coupling J of pair \(0,1\)"),
        (lambda v: BathSpec(v, tau_c=1e-7), "omega_se"),
    ], ids=["larmor", "coupling-j", "omega_se"])
    def test_non_finite_input_rejected(self, build, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            build(value)

    @pytest.mark.parametrize("second", [(0, 2), (2, 0)], ids=["same-order", "reversed"])
    def test_pair_listed_twice_rejected(self, second):
        # a repeated pair would put 2J into the Hamiltonian while
        # coupling_j times the SWAP for J
        with pytest.raises(ValueError, match=r"coupling pair \(\d,\d\) listed twice"):
            ChainSpec(FIG2_LARMOR, ((0, 2, 1.5e5, ISING), (0, 1, 1.5e5, ISING),
                                    second + (1.5e5, ISING)))
