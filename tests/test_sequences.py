import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm as scipy_expm

import spinswap.sequences as sequences
from spinswap.cli import GATE_UNITARY_TOL
from spinswap.evolve import propagate
from spinswap.linalg import embed, ket2dm, max_norm, spin_half_ops
from spinswap.model import BathSpec, ChainSpec, Regime
from spinswap.sequences import (
    Delay,
    GeneratorWindow,
    IdealPi,
    PulseProgram,
    SquarePulse,
    U_SWAP,
    VirtualZ,
    compile_program,
    ideal_propagator,
    program_from_json,
    program_to_json,
    segment_transfer,
    segment_unitary,
    swap_identical,
    swap_nonidentical,
    transport_protocol,
)

from chains import resolved_chain
from oracles import conjugation_superop, pauli_to_superop, superop_to_pauli, unvec, vec

J = 1.5e5  # Hz
W1 = 2 * np.pi * 1.5e5
NONIDEN = resolved_chain((2 * np.pi * 1e7, 2 * np.pi * 5e5), ((0, 1, J),))
IDEN = resolved_chain((2 * np.pi * 1e7, 2 * np.pi * 1e7), ((0, 1, J),))
CHAIN3 = resolved_chain(
    (2 * np.pi * 1e7, 2 * np.pi * 1e6, 2 * np.pi * 5e5),
    ((0, 2, J), (0, 1, J), (1, 2, J)),
)
PRESET_PROGRAMS = json.loads(
    (Path(__file__).parent / "data" / "preset_programs.json").read_text())


def phase_of(u):
    return np.angle(u[0, 0])


# closed-system limit over random couplings, drive amplitudes and Larmor
# frequencies (kHz), each sequence in its own secular regime
J_KHZ = st.floats(10.0, 1000.0)
OMEGA1_KHZ = st.floats(10.0, 1e4)
LARMOR_KHZ = st.floats(100.0, 1e5)


def swap_mismatch(sequence, larmor_khz, j_khz, omega1_khz, regime, phase):
    """Max-norm distance of the sequence's ideal propagator from
    exp(i phase) U_swap."""
    j = 1e3 * j_khz
    chain = resolved_chain(tuple(2 * np.pi * 1e3 * w for w in larmor_khz), ((0, 1, j),),
                           regime=regime)
    u = ideal_propagator(sequence((0, 1), j, 2 * np.pi * 1e3 * omega1_khz), chain)
    return max_norm(u - np.exp(1j * phase) * U_SWAP)


class TestSwapNonidentical:
    def setup_method(self):
        self.prog = swap_nonidentical((0, 1), J, W1)
        self.u = ideal_propagator(self.prog, NONIDEN)

    @settings(max_examples=25, deadline=None)
    @given(larmor_khz=st.lists(LARMOR_KHZ, min_size=2, max_size=2), j_khz=J_KHZ,
           omega1_khz=OMEGA1_KHZ)
    def test_matches_swap_up_to_global_phase(self, larmor_khz, j_khz, omega1_khz):
        assert swap_mismatch(swap_nonidentical, larmor_khz, j_khz, omega1_khz,
                             Regime.ISING_ONLY, -np.pi / 4) < GATE_UNITARY_TOL

    def test_global_phase(self):
        assert abs(np.exp(1j * phase_of(self.u)) - np.exp(-1j * np.pi / 4)) < 1e-10

    def test_delay_budget(self):
        np.testing.assert_allclose(self.prog.delay_total, 3.5 / J, rtol=1e-12)

    def test_bracketing_virtual_z(self):
        segs = self.prog.segments
        assert isinstance(segs[0], VirtualZ) and abs(segs[0].angle - np.pi / 4) < 1e-15
        assert isinstance(segs[-1], VirtualZ) and abs(segs[-1].angle - np.pi / 4) < 1e-15

    def test_pulse_durations_scale_with_amplitude(self):
        quick = swap_nonidentical((0, 1), J, 2 * W1)
        for a, b in zip(self.prog.segments, quick.segments):
            if isinstance(a, SquarePulse):
                np.testing.assert_allclose(a.duration, 2 * b.duration)
                np.testing.assert_allclose(a.flip_angle, b.flip_angle)

    def test_corrupted_delay_fails(self):
        segs = list(self.prog.segments)
        for i, s in enumerate(segs):
            if isinstance(s, Delay):
                segs[i] = Delay(s.duration / 2)
                break
        bad = PulseProgram(tuple(segs), dict(self.prog.meta))
        u = ideal_propagator(bad, NONIDEN)
        phase = phase_of(u)
        assert max_norm(u - np.exp(1j * phase) * U_SWAP) > 1e-3

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            swap_nonidentical((0, 1), 0.0, W1)
        with pytest.raises(ValueError):
            swap_nonidentical((0, 1), J, 0.0)


class TestSwapIdentical:
    def setup_method(self):
        self.prog = swap_identical((0, 1), J, W1)
        self.u = ideal_propagator(self.prog, IDEN)

    @settings(max_examples=25, deadline=None)
    @given(larmor_khz=LARMOR_KHZ, j_khz=J_KHZ, omega1_khz=OMEGA1_KHZ)
    def test_matches_swap_up_to_global_phase(self, larmor_khz, j_khz, omega1_khz):
        assert swap_mismatch(swap_identical, (larmor_khz, larmor_khz), j_khz, omega1_khz,
                             Regime.ZERO_QUANTUM, -3 * np.pi / 4) < GATE_UNITARY_TOL

    def test_global_phase(self):
        assert abs(np.exp(1j * phase_of(self.u)) - np.exp(-3j * np.pi / 4)) < 1e-10

    def test_delay_budget(self):
        np.testing.assert_allclose(self.prog.delay_total, 3.5 / J, rtol=1e-12)

    def test_drives_only_first_spin_of_pair(self):
        targets = {
            t for s in self.prog.segments if isinstance(s, SquarePulse)
            for t in s.targets
        }
        assert targets == {0}
        assert any(isinstance(s, SquarePulse) for s in self.prog.segments)

    def test_swapped_pair_order(self):
        prog = swap_identical((1, 0), J, W1)
        targets = {
            t for s in prog.segments if isinstance(s, SquarePulse) for t in s.targets
        }
        assert targets == {1}


class TestTransport:
    def _fidelity(self, chain, refocus, j12=J, j23=J):
        chain = resolved_chain(
            chain.larmor, ((0, 2, J), (0, 1, j12), (1, 2, j23))
        )
        prog = transport_protocol(chain, W1, refocus=refocus)
        u = ideal_propagator(prog, chain)
        psi_i, psi_f = prog.meta["initial_state"], prog.meta["target_state"]
        return abs(np.vdot(psi_f, u @ psi_i)) ** 2

    def test_ideal_closed_transport_nonidentical(self):
        assert self._fidelity(CHAIN3, refocus=True) > 1 - 1e-9

    def test_ideal_closed_transport_identical(self):
        chain = resolved_chain(
            (2 * np.pi * 1e7, 2 * np.pi * 1e6, 2 * np.pi * 1e7),
            ((0, 2, J), (0, 1, J), (1, 2, J)),
        )
        assert self._fidelity(chain, refocus=True) > 1 - 1e-9

    def test_refocusing_negative_control(self):
        assert self._fidelity(CHAIN3, refocus=False) < 1 - 1e-6

    def test_refocusing_independent_of_neighbour_couplings(self):
        # vary J12, J23 over a decade, independently in the Ising regime
        for j12, j23 in [(3e4, 3e4), (3e4, 3e5), (3e5, 3e4), (3e5, 3e5)]:
            assert self._fidelity(CHAIN3, True, j12, j23) > 1 - 1e-9

    def test_refocusing_identical_regime_joint_variation(self):
        chain = resolved_chain(
            (2 * np.pi * 1e7, 2 * np.pi * 1e6, 2 * np.pi * 1e7),
            ((0, 2, J), (0, 1, J), (1, 2, J)),
        )
        for jnn in (3e4, 1e5, 3e5):
            assert self._fidelity(chain, True, jnn, jnn) > 1 - 1e-9

    def test_midpoint_pi_placement(self):
        prog = transport_protocol(CHAIN3, W1, refocus=True)
        elapsed = 0.0
        hits = []
        for seg in prog.segments:
            if isinstance(seg, IdealPi):
                hits.append(elapsed)
            elapsed += seg.duration if isinstance(seg, Delay) else 0.0
        half = 0.5 * prog.delay_total
        assert any(abs(t - half) < 1e-15 * prog.delay_total for t in hits)

    def test_refocusing_pulses_target_middle_spin(self):
        prog = transport_protocol(CHAIN3, W1, refocus=True)
        pis = [s for s in prog.segments if isinstance(s, IdealPi)]
        assert pis and all(p.target == 1 for p in pis)
        assert len(pis) % 2 == 0  # the middle spin ends unflipped

    def test_metadata_states(self):
        prog = transport_protocol(CHAIN3, W1)
        psi_i, psi_f = prog.meta["initial_state"], prog.meta["target_state"]
        sq2 = np.sqrt(2)
        np.testing.assert_allclose(psi_i[0b100], 1 / sq2)
        np.testing.assert_allclose(psi_i[0b010], -1 / sq2)
        np.testing.assert_allclose(psi_f[0b001], 1 / sq2)
        np.testing.assert_allclose(psi_f[0b010], -1 / sq2)

    @pytest.mark.parametrize("refocus", [True, False])
    def test_metadata_states_equal_index_literals(self, refocus):
        # the kets built from basis_state are bitwise the index literals
        prog = transport_protocol(CHAIN3, W1, refocus=refocus)
        sq2 = np.sqrt(2.0)
        psi_i = np.zeros(8, dtype=complex)
        psi_i[0b100] = 1 / sq2
        psi_i[0b010] = -1 / sq2
        psi_f = np.zeros(8, dtype=complex)
        psi_f[0b001] = 1 / sq2
        psi_f[0b010] = -1 / sq2
        assert np.array_equal(prog.meta["initial_state"], psi_i)
        assert np.array_equal(prog.meta["target_state"], psi_f)

    def test_wrong_chain_size(self):
        with pytest.raises(ValueError):
            transport_protocol(NONIDEN, W1)


class TestCompile:
    def setup_method(self):
        self.bath = BathSpec(2 * np.pi * 1e5, tau_c=1.6e-7)

    def test_unresolved_mode_rejected(self):
        # a chain with an unresolved coupling form cannot be built, so none
        # reaches the compiler
        with pytest.raises(ValueError, match=r"coupling pair \(0,1\) needs a resolved regime"):
            ChainSpec(NONIDEN.larmor, ((0, 1, J, Regime.AUTO),))

    def test_single_delay_window_contents(self):
        prog = PulseProgram((Delay(1e-5),))
        windows = compile_program(prog, NONIDEN, self.bath)
        assert len(windows) == 1
        w = windows[0]
        assert isinstance(w, GeneratorWindow)
        assert w.duration == 1e-5
        comps = w.spec.components
        # one coupling component plus two environment components per spin
        assert sum(1 for c in comps if not c.has_env) == 1
        assert sum(1 for c in comps if c.has_env) == 4

    def test_adjacent_delays_merge_equivalent(self):
        split = compile_program(
            PulseProgram((Delay(4e-6), Delay(6e-6))), NONIDEN, self.bath
        )
        merged = compile_program(
            PulseProgram((Delay(1e-5),)), NONIDEN, self.bath
        )
        rho0 = ket2dm(np.eye(4)[:, 1])
        s_split = propagate(rho0, split).channel_pass.channel
        s_merged = propagate(rho0, merged).channel_pass.channel
        assert max_norm(s_split - s_merged) < 1e-12

    def test_virtual_z_pair_cancels(self):
        prog = PulseProgram((VirtualZ(np.pi / 4, 0), VirtualZ(-np.pi / 4, 0)))
        windows = compile_program(prog, NONIDEN, self.bath)
        assert all(isinstance(w, (VirtualZ, IdealPi)) for w in windows)
        total = propagate(ket2dm(np.eye(4)[:, 0]), windows).channel_pass.channel
        assert max_norm(total - np.eye(16)) < 1e-12

    def test_zero_duration_segments_are_their_own_windows(self):
        prog = transport_protocol(CHAIN3, W1)
        windows = compile_program(prog, CHAIN3, self.bath)
        zero = [s for s in prog.segments if isinstance(s, (VirtualZ, IdealPi))]
        own = [w for w in windows if isinstance(w, (VirtualZ, IdealPi))]
        assert len(own) == len(zero) == 16
        assert all(w is s for w, s in zip(own, zero))

    def test_repeated_segments_share_one_spec(self):
        x90 = SquarePulse(W1, 0.0, (0,), 1e-6)
        prog = PulseProgram((
            Delay(1e-6), x90, Delay(2e-6), x90, VirtualZ(np.pi, 0),
            SquarePulse(W1, np.pi / 2, (0,), 1e-6),
            SquarePulse(W1, 0.0, (1,), 1e-6),
            SquarePulse(2 * W1, 0.0, (0,), 1e-6),
            SquarePulse(W1, 0.0, (0,), 2e-6),
            Delay(3e-6),
        ))
        d1, p1, d2, p2, _, y90, other, strong, long_x, d3 = compile_program(
            prog, NONIDEN, self.bath)
        assert d1.spec is d2.spec is d3.spec
        # the spec depends on the drive, not on the pulse duration
        assert p1.spec is p2.spec is long_x.spec
        specs = [d1.spec, p1.spec, y90.spec, other.spec, strong.spec]
        assert len({id(s) for s in specs}) == len(specs)

    def test_pulse_window_gains_drive_components(self):
        prog = PulseProgram((SquarePulse(W1, 0.0, (0,), 1e-6),))
        windows = compile_program(prog, NONIDEN, self.bath)
        w = windows[0]
        drive_comps = [c for c in w.spec.components if not c.has_env and c.coherent]
        assert len(drive_comps) == 1
        coupling_comps = [
            c for c in w.spec.components if not c.has_env and not c.coherent
        ]
        assert len(coupling_comps) == 1  # coupling still feeds the dissipator

    @pytest.mark.parametrize("preset", ["fig2", "fig3"])
    def test_preset_components_carry_their_mechanism(self, preset):
        # every component of a preset program is tagged where it is built:
        # the coupling at 2 pi J, the drive at omega_1, the environment at
        # omega_SE, each the scale times its labelled unit operator
        from spinswap.config import load_preset
        from spinswap.model import Mechanism

        cfg = load_preset(preset)
        program = transport_protocol(cfg.chain, cfg.omega1, refocus=cfg.refocusing)
        windows = compile_program(program, cfg.chain, cfg.bath)
        scales = {Mechanism.COUPLING: 2 * np.pi * cfg.chain.coupling_j((0, 2)),
                  Mechanism.DRIVE: cfg.omega1, Mechanism.ENVIRONMENT: cfg.bath.omega_se}
        assert len(windows) == len(program.segments)
        for seg, w in zip(program.segments, windows):
            if not isinstance(w, GeneratorWindow):
                continue
            mechanisms = [c.mechanism for c in w.spec.components]
            assert mechanisms.count(Mechanism.COUPLING) == 1
            assert mechanisms.count(Mechanism.ENVIRONMENT) == 2 * cfg.chain.nsites
            assert mechanisms.count(Mechanism.DRIVE) == isinstance(seg, SquarePulse)
            for c in w.spec.components:
                assert c.label is not None
                assert c.scale == scales[c.mechanism]
                assert c.has_env == (c.mechanism is Mechanism.ENVIRONMENT)
                np.testing.assert_array_equal(c.op, c.scale * c.unit)

    @pytest.mark.parametrize("site", [-1, 3], ids=["negative", "nsites"])
    @pytest.mark.parametrize("segment", [
        lambda t: VirtualZ(np.pi / 4, t),
        lambda t: IdealPi("x", t),
        lambda t: SquarePulse(W1, 0.0, (0, t), 1e-6),
    ], ids=["virtual_z", "ideal_pi", "square_pulse"])
    @pytest.mark.parametrize("build", [
        lambda prog, bath: compile_program(prog, CHAIN3, bath),
        lambda prog, bath: ideal_propagator(prog, CHAIN3),
    ], ids=["compile_program", "ideal_propagator"])
    def test_target_outside_register_rejected(self, build, segment, site):
        # a negative index would wrap to the last spin and an index of
        # nsites would fail inside numpy; also after a JSON round trip
        prog = program_from_json(program_to_json(PulseProgram((segment(site),))))
        with pytest.raises(ValueError, match=r"segment .* nsites = 3"):
            build(prog, self.bath)

    def test_ideal_pi_window_is_exact_unitary(self):
        prog = PulseProgram((IdealPi("x", 1),))
        windows = compile_program(prog, CHAIN3, self.bath)
        assert isinstance(windows[0], (VirtualZ, IdealPi))
        rho = ket2dm(np.eye(8)[:, 0])
        channel = pauli_to_superop(propagate(rho, windows).channel_pass.channel)
        out = unvec(channel @ vec(rho))
        np.testing.assert_allclose(np.trace(out), 1.0, atol=1e-12)
        # the channel conjugates by the window's unitary: |000> -> |010>
        u = segment_unitary(windows[0], 3)
        np.testing.assert_allclose(out, u @ rho @ u.conj().T, atol=1e-12)
        np.testing.assert_allclose(out[2, 2], 1.0, atol=1e-12)


SPIN_OPS = dict(zip("xyz", spin_half_ops()[:3]))


class TestSegmentClosedForms:
    """VirtualZ and IdealPi unitaries come from closed forms, not expm."""

    @settings(max_examples=25, deadline=None)
    @given(angle=st.floats(-4 * np.pi, 4 * np.pi))
    def test_virtual_z_equals_exponential(self, angle):
        for n in range(1, 5):
            for k in range(n):
                want = scipy_expm(-1j * angle * embed(SPIN_OPS["z"], k, n))
                assert max_norm(segment_unitary(VirtualZ(angle, k), n) - want) < 1e-14

    @pytest.mark.parametrize("axis", "xyz")
    def test_ideal_pi_equals_exponential(self, axis):
        for n in range(1, 5):
            for k in range(n):
                want = scipy_expm(-1j * np.pi * embed(SPIN_OPS[axis], k, n))
                assert max_norm(segment_unitary(IdealPi(axis, k), n) - want) < 1e-14

    def test_built_once_and_read_only(self):
        seg = VirtualZ(np.pi / 4, 2)
        u, r = segment_unitary(seg, 3), segment_transfer(seg, 3)
        assert segment_unitary(VirtualZ(np.pi / 4, 2), 3) is u
        assert segment_transfer(VirtualZ(np.pi / 4, 2), 3) is r
        assert not u.flags.writeable and not r.flags.writeable
        assert r.dtype == float
        assert max_norm(r - superop_to_pauli(conjugation_superop(u))) < 1e-15

    @settings(max_examples=25, deadline=None)
    @given(angle=st.floats(-4 * np.pi, 4 * np.pi), n=st.integers(1, 4),
           target=st.integers(0, 3))
    def test_virtual_z_transfer_matches_column_stacking(self, angle, n, target):
        u = segment_unitary(VirtualZ(angle, target % n), n)
        r = segment_transfer(VirtualZ(angle, target % n), n)
        assert max_norm(r - superop_to_pauli(conjugation_superop(u))) < 1e-14

    @pytest.mark.parametrize("axis", "xyz")
    def test_ideal_pi_transfer_matches_column_stacking(self, axis):
        for n in range(1, 5):
            for k in range(n):
                u = segment_unitary(IdealPi(axis, k), n)
                r = segment_transfer(IdealPi(axis, k), n)
                assert max_norm(r - superop_to_pauli(conjugation_superop(u))) < 1e-14

    def test_compile_makes_no_exponential(self, monkeypatch):
        calls = []
        real = sequences.expm
        monkeypatch.setattr(sequences, "expm",
                            lambda *args: calls.append(1) or real(*args))
        sequences.segment_unitary.cache_clear()
        sequences.segment_transfer.cache_clear()
        prog = transport_protocol(CHAIN3, W1)
        windows = compile_program(prog, CHAIN3, BathSpec(0.0, tau_c=1e-18))
        transfers = [segment_transfer(w, 3) for w in windows
                     if isinstance(w, (VirtualZ, IdealPi))]
        assert transfers and calls == []


class TestProgramStructure:
    def test_duration_additivity_under_splitting(self):
        prog = PulseProgram((Delay(3e-6), SquarePulse(W1, 0.0, (0,), 1e-6)))
        split = PulseProgram(
            (Delay(1.5e-6), Delay(1.5e-6), SquarePulse(W1, 0.0, (0,), 1e-6))
        )
        np.testing.assert_allclose(prog.total_duration, split.total_duration)

    def test_total_duration_counts_pulses_and_delays(self):
        prog = swap_nonidentical((0, 1), J, W1)
        pulses = sum(
            s.duration for s in prog.segments if isinstance(s, SquarePulse)
        )
        np.testing.assert_allclose(prog.total_duration, prog.delay_total + pulses)

    @pytest.mark.parametrize("value", [0.0, np.nan, np.inf], ids=["zero", "nan", "inf"])
    @pytest.mark.parametrize("build", [swap_nonidentical, swap_identical])
    def test_builder_inputs_must_be_positive_and_finite(self, build, value):
        with pytest.raises(ValueError, match="J must be positive and finite"):
            build((0, 1), value, W1)
        with pytest.raises(ValueError, match="drive amplitude must be positive and finite"):
            build((0, 1), J, value)

    @pytest.mark.parametrize("segment, match", [
        (lambda: Delay(-1.0), "delay duration must be >= 0"),
        (lambda: SquarePulse(W1, 0.0, (0,), -1e-6), "pulse duration must be >= 0"),
        (lambda: SquarePulse(-W1, 0.0, (0,), 1e-6), "amplitude must be >= 0"),
        (lambda: IdealPi("q", 0), "axis must be x, y or z"),
        (lambda: Delay(np.nan), "delay duration must be >= 0 and finite"),
        (lambda: Delay(np.inf), "delay duration must be >= 0 and finite"),
        (lambda: SquarePulse(np.inf, 0.0, (0,), 1e-6), "amplitude must be >= 0 and finite"),
        (lambda: SquarePulse(W1, 0.0, (0,), np.nan), "pulse duration must be >= 0 and finite"),
        (lambda: SquarePulse(W1, np.nan, (0,), 1e-6), "pulse phase must be finite"),
        (lambda: VirtualZ(np.nan, 0), "virtual-z angle must be finite"),
        (lambda: VirtualZ(-np.inf, 0), "virtual-z angle must be finite"),
        (lambda: SquarePulse(W1, 0.0, (1.5,), 1e-6), "pulse target must be an integer"),
        (lambda: SquarePulse(W1, 0.0, (True,), 1e-6), "pulse target must be an integer"),
        (lambda: VirtualZ(np.pi, 1.5), "virtual-z target must be an integer"),
        (lambda: IdealPi("x", True), "ideal-pi target must be an integer"),
        (lambda: IdealPi("x", np.nan), "ideal-pi target must be an integer"),
    ], ids=["delay-negative", "pulse-negative-duration", "pulse-negative-amplitude",
            "ideal-pi-axis", "delay-nan", "delay-inf", "pulse-inf-amplitude",
            "pulse-nan-duration", "pulse-nan-phase", "virtual-z-nan", "virtual-z-minus-inf",
            "pulse-fractional-target", "pulse-bool-target", "virtual-z-fractional-target",
            "ideal-pi-bool-target", "ideal-pi-nan-target"])
    def test_negative_durations_rejected(self, segment, match):
        # every duration, amplitude, phase and angle must be finite (durations
        # and amplitudes >= 0) and every target an integer, named in the error
        with pytest.raises(ValueError, match=match):
            segment()

    def test_integral_float_targets_are_site_indices(self):
        # 1.0 is site 1: the segment equals the integer-target one and runs
        segments = (VirtualZ(np.pi, 1.0), IdealPi("x", 1.0),
                    SquarePulse(W1, 0.0, (np.float64(1.0),), 1e-6))
        assert segments == (VirtualZ(np.pi, 1), IdealPi("x", 1), SquarePulse(W1, 0.0, (1,), 1e-6))
        assert all(type(t) is int for s in segments
                   for t in getattr(s, "targets", (getattr(s, "target", 0),)))
        windows = compile_program(PulseProgram(segments), CHAIN3, BathSpec(0.0, tau_c=1e-18))
        propagate(ket2dm(np.eye(8)[:, 0]), windows)

    @pytest.mark.parametrize("record, match", [
        ({"kind": "delay", "duration_s": float("nan")}, "delay duration"),
        ({"kind": "virtual_z", "angle_rad": float("inf"), "target": 0}, "virtual-z angle"),
        ({"kind": "ideal_pi", "axis": "x", "target": 0.5}, "ideal-pi target"),
    ], ids=["delay-nan", "virtual-z-inf", "ideal-pi-fractional-target"])
    def test_program_from_json_inherits_the_segment_checks(self, record, match):
        doc = json.dumps({"segments": [record], "meta": {}})
        with pytest.raises(ValueError, match=match):
            program_from_json(doc)


class TestSerialization:
    def test_round_trip_lossless(self):
        for prog in (
            swap_nonidentical((0, 1), J, W1),
            swap_identical((0, 1), J, W1),
            transport_protocol(CHAIN3, W1),
        ):
            back = program_from_json(program_to_json(prog))
            assert len(back.segments) == len(prog.segments)
            for a, b in zip(prog.segments, back.segments):
                assert type(a) is type(b)
                assert a == b

    @pytest.mark.parametrize("preset", ["fig2", "fig3"])
    def test_recorded_document_round_trips_byte_for_byte(self, preset):
        text = PRESET_PROGRAMS["presets"][preset]
        assert program_to_json(program_from_json(text)) == text

    def test_carrier_record_rejected(self):
        # every pulse is resonant with its targets; a record that names a
        # carrier describes a drive this program cannot simulate
        doc = json.loads(program_to_json(swap_identical((0, 1), J, W1)))
        pulse = next(r for r in doc["segments"] if r["kind"] == "square_pulse")
        assert pulse["carrier_rad_per_s"] is None
        pulse["carrier_rad_per_s"] = 2 * np.pi * 1e7
        with pytest.raises(ValueError, match="carrier_rad_per_s = 62831853"):
            program_from_json(json.dumps(doc))

    def test_units_declared(self):
        doc = program_to_json(swap_identical((0, 1), J, W1))
        assert '"rad/s"' in doc and '"s"' in doc and '"rad"' in doc


def test_compile_warns_on_timescale_violation():
    from spinswap.model import TimescaleSeparationWarning

    bath = BathSpec(0.0, tau_c=1e-5)
    prog = PulseProgram((SquarePulse(W1, 0.0, (0,), 1e-6),))
    with pytest.warns(TimescaleSeparationWarning):
        compile_program(prog, NONIDEN, bath)


def test_timescale_warning_names_the_compiling_code():
    from spinswap.model import TimescaleSeparationWarning

    bath = BathSpec(0.0, tau_c=1e-5)
    prog = PulseProgram((SquarePulse(W1, 0.0, (0,), 1e-6),))
    with pytest.warns(TimescaleSeparationWarning) as seen:
        compile_program(prog, NONIDEN, bath)
    assert [w.filename for w in seen] == [__file__]


def test_compiled_closed_limit_identical_regime():
    # fig3-style chain: compiled pipeline with the bath off reproduces the
    # ideal transport through the zero-quantum gate
    chain = resolved_chain(
        (2 * np.pi * 1e7, 2 * np.pi * 1e6, 2 * np.pi * 1e7),
        ((0, 2, J), (0, 1, J), (1, 2, J)),
    )
    bath0 = BathSpec(0.0, tau_c=1e-18)
    prog = transport_protocol(chain, W1, refocus=True)
    assert prog.meta["regime"] == "zero_quantum"
    windows = compile_program(prog, chain, bath0)
    total = pauli_to_superop(
        propagate(ket2dm(prog.meta["initial_state"]), windows).channel_pass.channel)
    psi_i, psi_f = prog.meta["initial_state"], prog.meta["target_state"]
    rho = unvec(total @ vec(ket2dm(psi_i)))
    fid = np.real(np.conj(psi_f) @ rho @ psi_f)
    assert fid > 1 - 1e-6
