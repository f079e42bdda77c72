from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinswap.evolve as evolve
import spinswap.linalg as linalg
import spinswap.sequences as sequences
from spinswap.config import load_preset
from spinswap.evolve import (
    EIG_FLOOR,
    HERM_TOL,
    TRACE_TOL,
    ChannelError,
    PositivityError,
    Trajectory,
    channel_pass,
    export_trajectory,
    propagate,
)
from spinswap.linalg import (
    basis_state,
    clip_to_density,
    conjugation_superop,
    dagger,
    identity,
    ket2dm,
    max_norm,
    spin_half_ops,
    superop_to_pauli,
    unvec,
    vec,
)
from spinswap.master import GeneratorSpec, assemble
from spinswap.model import BathSpec, ChainSpec, HarmonicComponent, system_env_coupling
from spinswap.sequences import (
    Delay,
    PulseProgram,
    SquarePulse,
    UnitaryWindow,
    compile_program,
    transport_protocol,
)
from spinswap.model import Regime, SecularMode, default_coarse_grain_dt
import spinswap.sweep as sweep
from spinswap.sweep import GridSpec, evaluate_point, run_sweep, run_transport

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
        gen_analytic = assemble(spec)
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
        mode = SecularMode(Regime.AUTO, default_coarse_grain_dt(bath, omega1))
        prog = transport_protocol(chain, omega1, mode)
        windows = compile_program(prog, chain, bath, mode)
        rho0 = ket2dm(prog.meta["initial_state"])
        traj = propagate(rho0, windows)
        assert max_norm(unvec(traj.channel @ vec(rho0)) - traj.final_state) < 1e-12
        tr_vec = vec(identity(8)).conj()
        assert max_norm(tr_vec @ traj.channel - tr_vec) < 1e-12


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=5, deadline=None)
@given(
    larmor_khz=st.lists(st.floats(100.0, 1e4), min_size=3, max_size=3),
    omega1_khz=st.floats(20.0, 500.0),
    wse_tauc=st.floats(0.01, 0.3),
)
def test_pass_matches_sampled_propagation(larmor_khz, omega1_khz, wse_tauc):
    # random 3-spin transport runs: the pass alone gives the sampled final
    # state and the channel, which is trace preserving and completely
    # positive by an explicitly built Choi matrix
    j = 1.5e5
    chain = ChainSpec(
        tuple(2 * np.pi * 1e3 * w for w in larmor_khz),
        ((0, 2, j), (0, 1, j), (1, 2, j)),
    )
    omega1 = 2 * np.pi * 1e3 * omega1_khz
    bath = BathSpec(WSE, tau_c=wse_tauc / WSE)
    mode = SecularMode(Regime.AUTO, default_coarse_grain_dt(bath, omega1))
    prog = transport_protocol(chain, omega1, mode)
    windows = compile_program(prog, chain, bath, mode)
    rho0 = ket2dm(prog.meta["initial_state"])
    run = channel_pass(rho0, windows, meta=prog.meta)
    traj = propagate(rho0, windows, meta=prog.meta)
    assert max_norm(run.final_state - traj.final_state) < 1e-12
    assert max_norm(run.channel - traj.channel) < 1e-12
    assert run.meta == traj.meta
    tr_vec = vec(identity(8)).conj()
    assert run.tp_defect == np.abs(tr_vec @ run.channel - tr_vec).max() <= 1e-12
    choi = np.zeros((64, 64), dtype=complex)
    for i in range(8):
        for k in range(8):
            e_ik = np.zeros((8, 8))
            e_ik[i, k] = 1.0
            choi += np.kron(e_ik, unvec(run.channel @ vec(e_ik)))
    assert abs(np.trace(choi) - 8) < 1e-12
    assert abs(run.choi_min - np.linalg.eigvalsh(choi).min()) < 1e-12
    assert run.choi_min >= 0.0


def complex_reference_pass(rho0, windows):
    """The program channel and the final state walked in column-stacking
    complex arithmetic, one scipy expm per generator window (reference)."""
    from scipy.linalg import expm as scipy_expm

    v = vec(rho0)
    channel = np.eye(v.size, dtype=complex)
    for w in windows:
        if isinstance(w, UnitaryWindow):
            full = conjugation_superop(w.unitary)
        else:
            full = scipy_expm(assemble(w.spec) * w.duration)
        v = full @ v
        channel = full @ channel
    return channel, unvec(v)


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=8, deadline=None)
@given(
    larmor_khz=st.lists(st.floats(100.0, 1e4), min_size=3, max_size=3),
    identical=st.booleans(),
    omega1_khz=st.floats(20.0, 2000.0),
    wse_khz=st.floats(10.0, 300.0),
    wse_tauc=st.floats(1e-3, 0.5),
)
def test_pass_matches_complex_reference_walk(larmor_khz, identical, omega1_khz,
                                             wse_khz, wse_tauc):
    # the real Pauli-basis walk against a complex column-stacking walk, in
    # both secular regimes of the SWAP (identical spins 1 and 3 select the
    # zero-quantum sequence)
    if identical:
        larmor_khz = [larmor_khz[0], larmor_khz[1], larmor_khz[0]]
    j = 1.5e5
    chain = ChainSpec(
        tuple(2 * np.pi * 1e3 * w for w in larmor_khz),
        ((0, 2, j), (0, 1, j), (1, 2, j)),
    )
    omega1 = 2 * np.pi * 1e3 * omega1_khz
    wse = 2 * np.pi * 1e3 * wse_khz
    bath = BathSpec(wse, tau_c=wse_tauc / wse)
    mode = SecularMode(Regime.AUTO, default_coarse_grain_dt(bath, omega1))
    prog = transport_protocol(chain, omega1, mode)
    windows = compile_program(prog, chain, bath, mode)
    rho0 = ket2dm(prog.meta["initial_state"])
    run = channel_pass(rho0, windows)
    channel, final = complex_reference_pass(rho0, windows)
    assert max_norm(run.channel - channel) < 1e-12
    assert max_norm(run.final_state - final) < 1e-12


def run_preset_point(name, sampled=False):
    cfg = load_preset(name)
    return run_transport(cfg.chain, cfg.bath, cfg.mode, cfg.omega1,
                         2 * np.pi * cfg.chain.coupling_j((0, 2)), cfg.refocusing,
                         sampled=sampled)


def test_each_instantaneous_segment_adds_a_row_at_the_same_time():
    # a unitary window takes no time: its sample repeats the previous
    # sample's time and holds the state right after the unitary
    program, traj, _ = run_preset_point("fig2", sampled=True)
    cfg = load_preset("fig2")
    unitaries = [w.unitary for w in compile_program(program, cfg.chain, cfg.bath, cfg.mode)
                 if isinstance(w, UnitaryWindow)]
    repeats = [k for k in range(1, len(traj.times)) if traj.times[k] == traj.times[k - 1]]
    assert len(repeats) == len(unitaries) == 16
    for k, u in zip(repeats, unitaries):
        expected = u @ traj.states[k - 1] @ dagger(u)
        assert max_norm(traj.states[k] - expected) < 1e-12


def counting_calls(monkeypatch, targets):
    """Count the calls of each (module, name) in `targets`."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in targets:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


class TestDistinctGenerators:
    @pytest.mark.parametrize("preset, assembles, expms, segments, validated",
                             [("fig2", 9, 22, 7, 850), ("fig3", 3, 8, 1, 524)],
                             ids=["fig2-9-22", "fig3-3-8"])
    def test_one_assemble_and_expm_pair_per_distinct_generator(
            self, monkeypatch, preset, assembles, expms, segments, validated):
        # simulate walks the windows once: one conversion to the Pauli
        # basis per distinct generator, one full-window and one
        # sampling-step expm per distinct (generator, duration), and each
        # boundary state and sample validated once.  The walk builds no
        # conjugation superoperator: each distinct segment's transfer
        # matrix is built once per process and serves every later run.
        sequences.segment_unitary.cache_clear()
        sequences.segment_transfer.cache_clear()
        calls = counting_calls(monkeypatch, [(evolve, "assemble"), (evolve, "expm"),
                                             (evolve, "superop_to_pauli"),
                                             (sequences, "conjugation_superop")])
        checked = []
        real = evolve._checked
        monkeypatch.setattr(evolve, "_checked",
                            lambda rhos, *args: checked.append(len(rhos)) or real(rhos, *args))
        run_preset_point(preset, sampled=True)
        assert (calls["assemble"], calls["expm"]) == (assembles, expms)
        assert calls["superop_to_pauli"] == assembles
        assert calls["conjugation_superop"] == segments
        assert sum(checked) == validated
        run_preset_point(preset, sampled=True)
        assert calls["conjugation_superop"] == segments

    def test_warm_point_makes_two_kronecker_products_per_generator(self, monkeypatch):
        # once the operator table and the segment transfer matrices exist,
        # a fig2 sweep point builds no embedded operator and no
        # conjugation superoperator: its only Kronecker products are the
        # two of each of its 9 generator assemblies
        run_preset_point("fig2")
        calls = []
        kron = np.kron
        monkeypatch.setattr(np, "kron", lambda a, b: calls.append(1) or kron(a, b))
        embeds = counting_calls(monkeypatch, [(linalg, "embed")])
        run_preset_point("fig2")
        assert len(calls) == 2 * 9
        assert embeds["embed"] == 0

    @pytest.mark.parametrize("preset, assembles, expms",
                             [("fig2", 9, 11), ("fig3", 3, 4)])
    def test_sweep_point_exponentiates_full_windows_only(
            self, monkeypatch, preset, assembles, expms):
        calls = counting_calls(monkeypatch, [(evolve, "assemble"), (evolve, "expm"),
                                             (sweep, "propagate")])
        run_preset_point(preset)
        assert (calls["assemble"], calls["expm"]) == (assembles, expms)
        cfg = load_preset(preset)
        evaluate_point(cfg.chain, cfg.bath, cfg.mode, cfg.omega1,
                       2 * np.pi * cfg.chain.coupling_j((0, 2)), cfg.bath.tau_c)
        assert (calls["assemble"], calls["expm"]) == (2 * assembles, 2 * expms)
        assert calls["propagate"] == 0

    def test_shared_specs_change_no_number(self):
        # a copy of the spec per window defeats the memo: every window is
        # then assembled and exponentiated on its own, as before sharing
        program, traj, _ = run_preset_point("fig2", sampled=True)
        cfg = load_preset("fig2")
        windows = [
            replace(w, spec=replace(w.spec)) if hasattr(w, "spec") else w
            for w in compile_program(program, cfg.chain, cfg.bath, cfg.mode)
        ]
        own = propagate(ket2dm(program.meta["initial_state"]), windows)
        np.testing.assert_array_equal(own.times, traj.times)
        np.testing.assert_array_equal(np.array(own.states), np.array(traj.states))
        np.testing.assert_array_equal(own.channel, traj.channel)
        np.testing.assert_array_equal(own.channel_pass.final_state,
                                      traj.channel_pass.final_state)
        assert (own.clip_count, own.min_eigenvalue) == (traj.clip_count, traj.min_eigenvalue)


def transpose_superop(d):
    """Superoperator of rho -> rho^T: positive, trace preserving, not CP."""
    return np.eye(d * d)[np.arange(d * d).reshape(d, d).T.reshape(-1)]


def test_direct_calls_run_expm_on_one_blas_thread(monkeypatch):
    # the pin sits in the window walk itself, so direct calls get it, not
    # only runs through run_transport; compile_program makes no expm call
    # (the segment unitaries have closed forms)
    handles = linalg._openblas_handles()
    if not handles:
        pytest.skip("no OpenBLAS with thread-count symbols is loaded")
    counts = lambda: [get() for get, _ in handles]
    before = counts()
    for _, set_ in handles:
        set_(2)
    try:
        if counts() != [2] * len(handles):
            pytest.skip("OpenBLAS does not take a thread count of 2 here")
        seen = {"compile": [], "walk": []}
        for module, key in ((sequences, "compile"), (evolve, "walk")):
            real = module.expm
            monkeypatch.setattr(module, "expm", lambda g, t=1.0, real=real, key=key: (
                seen[key].append(counts()) or real(g, t)))
        cfg = load_preset("fig3")
        program = transport_protocol(cfg.chain, cfg.omega1, cfg.mode,
                                     refocus=cfg.refocusing)
        windows = compile_program(program, cfg.chain, cfg.bath, cfg.mode)
        assert counts() == [2] * len(handles)
        channel_pass(ket2dm(program.meta["initial_state"]), windows)
        assert (len(seen["compile"]), len(seen["walk"])) == (0, 4)
        assert all(c == [1] * len(handles) for c in seen["walk"])
        assert counts() == [2] * len(handles)
    finally:
        for (_, set_), n in zip(handles, before):
            set_(n)


class TestChannelChecks:
    """A doctored window that breaks TP or CP stops the pass and fails the
    sweep point with the check's message."""

    CASES = [
        (lambda: transpose_superop(8), "channel not completely positive: Choi eigenvalue"),
        (lambda: 1.001 * np.eye(64), "channel not trace preserving: defect"),
    ]

    @pytest.mark.parametrize("superop, message", CASES, ids=["transpose", "trace-scaling"])
    def test_pass_and_sweep_point_fail(self, monkeypatch, superop, message):
        # fig2's first pulse window has a generator of its own: replace its
        # propagator, and only that one, by the doctored superoperator.  The
        # bath is off: a strongly depolarizing remainder would make even a
        # transposed window's program CP.
        cfg = load_preset("fig2")
        bath = BathSpec(0.0, tau_c=1e-18)
        program = transport_protocol(cfg.chain, cfg.omega1, cfg.mode)
        windows = compile_program(program, cfg.chain, bath, cfg.mode)
        rho0 = ket2dm(program.meta["initial_state"])
        channel_pass(rho0, windows)  # the undoctored program passes
        first = next(w for w in windows if hasattr(w, "spec"))
        assert sum(w.spec is first.spec for w in windows if hasattr(w, "spec")) == 1
        # the walk exponentiates the generator's Pauli transfer matrix, so
        # the doctored window enters in that basis too
        gen = superop_to_pauli(assemble(first.spec))
        real = evolve.expm
        monkeypatch.setattr(evolve, "expm", lambda g, t: (
            superop_to_pauli(superop()) if np.array_equal(g, gen) else real(g, t)))
        with pytest.raises(ChannelError, match=message):
            channel_pass(rho0, windows)
        grid = GridSpec((cfg.omega1,), (2 * np.pi * cfg.chain.coupling_j((0, 2)),),
                        (bath.tau_c,), cfg.chain, bath, cfg.mode)
        (record,) = run_sweep(grid, workers=1)
        assert record.status == "failed(ChannelError)"
        assert record.error.startswith(message)
        assert np.isnan(record.tp_defect) and np.isnan(record.choi_min)

    def test_invalid_initial_state_fails_the_boundary_check(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(PositivityError):
            channel_pass(bad, [])


def per_sample_checked(rhos, times):
    """The per-sample validation the batched check replaced (reference)."""
    stats = {"clips": 0, "min_eig": 0.0}
    out = []
    for rho, t in zip(rhos, times):
        tr = np.trace(rho)
        if abs(tr - 1.0) > TRACE_TOL:
            raise RuntimeError(f"trace drifted to {tr:.12f} at t = {t:.6e} s")
        if np.max(np.abs(rho - dagger(rho))) > HERM_TOL:
            raise RuntimeError(f"state lost Hermiticity at t = {t:.6e} s")
        wmin = float(np.linalg.eigvalsh(0.5 * (rho + dagger(rho))).min())
        stats["min_eig"] = min(stats["min_eig"], wmin)
        if wmin < EIG_FLOOR:
            raise PositivityError(t, wmin)
        if wmin < 0.0:
            stats["clips"] += 1
            rho = clip_to_density(rho)
        out.append(rho)
    return out, stats


def state_stack(min_eigs, seed=3):
    """8x8 unit-trace states in a random eigenbasis with the given smallest
    eigenvalues, one per sample."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    rhos = []
    for e in min_eigs:
        p = np.concatenate([[e], np.full(7, (1.0 - e) / 7)])
        rhos.append((q * p) @ dagger(q))
    return np.array(rhos)


class TestBatchedChecks:
    TIMES = list(np.linspace(1e-6, 2e-6, 6))

    def test_clipping_matches_per_sample_path(self):
        rhos = state_stack([0.0, -1e-10, 1e-3, -3e-9, -1e-12, 0.0])
        stats = {"clips": 0, "min_eig": 0.0}
        got = evolve._checked(rhos, self.TIMES, stats)
        want, want_stats = per_sample_checked(rhos, self.TIMES)
        assert stats == want_stats
        assert stats["clips"] >= 3
        np.testing.assert_array_equal(np.array(got), np.array(want))

    def test_first_failing_sample_raises(self):
        rhos = state_stack([0.0, -1e-10, -2e-6, 0.0, -5e-6, 0.0])
        with pytest.raises(PositivityError) as got:
            evolve._checked(rhos, self.TIMES, {"clips": 0, "min_eig": 0.0})
        with pytest.raises(PositivityError) as want:
            per_sample_checked(rhos, self.TIMES)
        assert got.value.time == self.TIMES[2]
        assert str(got.value) == str(want.value)
        # a trace failure before the positivity failure wins, and after it loses
        for k, expected in ((1, RuntimeError), (3, PositivityError)):
            bad = rhos.copy()
            bad[k] *= 1.1
            with pytest.raises(expected) as got:
                evolve._checked(bad, self.TIMES, {"clips": 0, "min_eig": 0.0})
            with pytest.raises(expected) as want:
                per_sample_checked(bad, self.TIMES)
            assert type(got.value) is type(want.value) is expected
            assert str(got.value) == str(want.value)


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
