import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinswap.evolve import (
    PositivityError,
    Trajectory,
    export_trajectory,
    propagate,
)
from spinswap.linalg import (
    basis_state,
    identity,
    ket2dm,
    max_norm,
    spin_half_ops,
    unvec,
    vec,
)
from spinswap.master import GeneratorSpec, assemble
from spinswap.model import BathSpec, ChainSpec, HarmonicComponent, system_env_coupling
from spinswap.sequences import (
    Delay,
    PulseProgram,
    SquarePulse,
    compile_program,
    transport_protocol,
)
from spinswap.model import Regime, SecularMode, resolved_mode

IX, IY, IZ, IP, IM = spin_half_ops()

W1 = 2 * np.pi * 1.5e5
WSE = 2 * np.pi * 1.0e5
TAU_C = 0.1 / WSE
CHAIN1 = ChainSpec((2 * np.pi * 1e6,), ())
MODE = SecularMode(Regime.AUTO, 4.1e-7)


def drive_window(amplitude, duration, bath, phase=0.0):
    prog = PulseProgram((SquarePulse(amplitude, phase, (0,), duration),))
    return compile_program(prog, CHAIN1, bath, MODE)


class TestPropagate:
    def test_no_windows_returns_initial_state(self):
        rho0 = ket2dm(basis_state([0]))
        traj = propagate(rho0, [])
        assert len(traj.states) == 1
        np.testing.assert_allclose(traj.final_state, rho0)

    def test_pi_pulse_population_inversion(self):
        bath = BathSpec(0.0, tau_c=1e-18)
        windows = drive_window(W1, np.pi / W1, bath)
        traj = propagate(ket2dm(basis_state([0])), windows)
        target = ket2dm(basis_state([1]))
        assert abs(traj.final_state[1, 1].real - 1.0) < 1e-9
        assert max_norm(traj.final_state - target) < 1e-6

    def test_composition_of_windows(self):
        bath = BathSpec(WSE, tau_c=TAU_C)
        w_a = drive_window(W1, 2e-6, bath)
        w_b = drive_window(W1, 3e-6, bath, phase=np.pi / 2)
        rho0 = ket2dm(basis_state([0]))
        step = propagate(propagate(rho0, w_a).final_state, w_b).final_state
        joint = propagate(rho0, w_a + w_b).final_state
        assert max_norm(step - joint) < 1e-12

    def test_trace_conserved_along_trajectory(self):
        bath = BathSpec(WSE, tau_c=TAU_C)
        windows = drive_window(W1, 2e-5, bath)
        traj = propagate(ket2dm(basis_state([0])), windows)
        for rho in traj.states:
            assert abs(np.trace(rho) - 1.0) < 1e-9

    def test_purity_conserved_without_dissipation(self):
        bath = BathSpec(0.0, tau_c=1e-18)
        windows = drive_window(W1, 7e-6, bath)
        traj = propagate(ket2dm(basis_state([0])), windows)
        for rho in traj.states:
            assert abs(np.trace(rho @ rho).real - 1.0) < 1e-9

    def test_contractive_relaxation_without_drive(self):
        # drive off, relaxation on: distance to the maximally mixed fixed
        # point is non-increasing
        bath = BathSpec(WSE, tau_c=TAU_C)
        prog = PulseProgram((Delay(5e-5),))
        windows = compile_program(prog, CHAIN1, bath, MODE)
        rho0 = ket2dm(basis_state([0]))
        traj = propagate(rho0, windows)
        fixed = identity(2) / 2
        dists = [max_norm(rho - fixed) for rho in traj.states]
        for a, b in zip(dists, dists[1:]):
            assert b <= a + 1e-12

    def test_final_state_independent_of_sample_dt(self):
        bath = BathSpec(WSE, tau_c=TAU_C)
        windows = drive_window(W1, 1.1e-5, bath)
        rho0 = ket2dm(basis_state([0]))
        fine = propagate(rho0, windows, sample_dt=1e-7).final_state
        coarse = propagate(rho0, windows, sample_dt=1e-5).final_state
        assert max_norm(fine - coarse) < 1e-12

    def test_rejects_unphysical_initial_state(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises((PositivityError, RuntimeError)):
            propagate(bad, [])


class TestRabiEnvelope:
    def test_decay_rate_matches_brute_force_generator(self):
        # drive-induced decay of Rabi oscillations: fit the envelope of the
        # analytic-engine trajectory and of a trajectory propagated with the
        # brute-force (time-discretized memory integral) generator
        from scipy.linalg import expm as sexpm
        from test_master import brute_force_dissipator
        from spinswap.master import first_order_generator

        bath = BathSpec(WSE, tau_c=TAU_C)
        comps = (HarmonicComponent(W1 * IX, 0.0),) + tuple(
            system_env_coupling(CHAIN1, bath)
        )
        spec = GeneratorSpec(comps, bath, 1e9)
        gen_analytic = assemble(spec).gen
        gen_brute = first_order_generator(spec) + brute_force_dissipator(
            comps, bath.tau_c, 1e9, 2
        )

        def envelope_rate(gen):
            times = np.linspace(0, 8 * 2 * np.pi / W1, 400)
            step = sexpm(gen * (times[1] - times[0]))
            rho = ket2dm(basis_state([0]))
            z, y = [], []
            for _ in times[1:]:
                rho = unvec(step @ vec(rho))
                z.append(2 * rho[0, 0].real - 1.0)
                y.append(2 * rho[1, 0].imag)
            env = np.hypot(np.array(z), np.array(y))
            slope, _ = np.polyfit(times[1:], np.log(env), 1)
            return -slope

        r_analytic = envelope_rate(gen_analytic)
        r_brute = envelope_rate(gen_brute)
        assert r_analytic > 0
        np.testing.assert_allclose(r_analytic, r_brute, rtol=1e-3)


class TestChannel:
    def test_no_windows_identity_channel(self):
        traj = propagate(ket2dm(basis_state([0])), [])
        np.testing.assert_array_equal(traj.channel, np.eye(4))

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(max_examples=5, deadline=None)
    @given(
        larmor_khz=st.lists(st.floats(100.0, 1e4), min_size=3, max_size=3),
        omega1_khz=st.floats(20.0, 500.0),
        wse_tauc=st.floats(0.01, 0.3),
    )
    def test_channel_reproduces_final_state(self, larmor_khz, omega1_khz, wse_tauc):
        # random 3-spin transport runs: the channel collected in the same
        # pass maps the initial state onto the sampled final state and
        # preserves the trace
        j = 1.5e5
        chain = ChainSpec(
            tuple(2 * np.pi * 1e3 * w for w in larmor_khz),
            ((0, 2, j), (0, 1, j), (1, 2, j)),
        )
        omega1 = 2 * np.pi * 1e3 * omega1_khz
        bath = BathSpec(WSE, tau_c=wse_tauc / WSE)
        mode = resolved_mode(SecularMode(), bath, omega1)
        prog = transport_protocol(chain, omega1, mode)
        windows = compile_program(prog, chain, bath, mode)
        rho0 = ket2dm(prog.meta["initial_state"])
        traj = propagate(rho0, windows, sample_dt=prog.total_duration / 20)
        assert max_norm(unvec(traj.channel @ vec(rho0)) - traj.final_state) < 1e-12
        tr_vec = vec(identity(8)).conj()
        assert max_norm(tr_vec @ traj.channel - tr_vec) < 1e-12


class TestExport:
    def test_columnar_format(self):
        bath = BathSpec(WSE, tau_c=TAU_C)
        windows = drive_window(W1, 2e-6, bath)
        psi_t = basis_state([1])
        traj = propagate(
            ket2dm(basis_state([0])), windows, meta={"target_state": psi_t}
        )
        text = export_trajectory(traj)
        lines = text.strip().split("\n")
        header = lines[0].split(", ")
        assert header[0] == "time_s"
        assert header[-1] == "fidelity"
        assert len(header) == 1 + 2 * 4 + 1  # time + re/im of 2x2 + fidelity
        assert len(lines) == len(traj.states) + 1

    def test_without_target_no_fidelity_column(self):
        traj = Trajectory(np.array([0.0]), [ket2dm(basis_state([0]))])
        text = export_trajectory(traj)
        assert "fidelity" not in text.split("\n")[0]
