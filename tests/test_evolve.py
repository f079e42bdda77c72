import io
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
    channel_pass,
    export_trajectory,
    propagate,
)
from spinswap.linalg import basis_state, clip_to_density, dagger, identity, ket2dm, max_norm
import spinswap.master as master
from spinswap.master import GeneratorSpec, assemble
from spinswap.model import BathSpec, ChainSpec, drive_hamiltonian, system_env_coupling
from spinswap.sequences import (
    Delay,
    IdealPi,
    PulseProgram,
    SquarePulse,
    VirtualZ,
    compile_program,
    segment_unitary,
    transport_protocol,
)
from spinswap.model import default_coarse_grain_dt
import spinswap.sweep as sweep
from spinswap.sweep import GridSpec, evaluate_point, run_sweep, run_transport

from chains import resolved_chain
from oracles import (brute_force_dissipator, checked_reference, choi_of_superop,
                     conjugation_superop, pauli_to_superop, reference_dissipator,
                     reference_first_order, superop_to_pauli, unvec, vec)

W1 = 2 * np.pi * 1.5e5
WSE = 2 * np.pi * 1.0e5
TAU_C = 0.1 / WSE
CHAIN1 = ChainSpec((2 * np.pi * 1e6,), ())


def drive_window(amplitude, duration, bath, phase=0.0):
    prog = PulseProgram((SquarePulse(amplitude, phase, (0,), duration),))
    return compile_program(prog, CHAIN1, bath)


class TestPropagate:
    def test_no_windows_returns_initial_state(self):
        rho0 = ket2dm(basis_state([0]))
        traj = propagate(rho0, [])
        assert len(traj.states) == 1
        np.testing.assert_allclose(traj.states[-1], rho0)

    def test_pi_pulse_population_inversion(self):
        bath = BathSpec(0.0, tau_c=1e-18)
        windows = drive_window(W1, np.pi / W1, bath)
        traj = propagate(ket2dm(basis_state([0])), windows)
        target = ket2dm(basis_state([1]))
        assert abs(traj.states[-1][1, 1].real - 1.0) < 1e-9
        assert max_norm(traj.states[-1] - target) < 1e-6

    def test_composition_of_windows(self):
        bath = BathSpec(WSE, tau_c=TAU_C)
        w_a = drive_window(W1, 2e-6, bath)
        w_b = drive_window(W1, 3e-6, bath, phase=np.pi / 2)
        rho0 = ket2dm(basis_state([0]))
        step = propagate(propagate(rho0, w_a).states[-1], w_b).states[-1]
        joint = propagate(rho0, w_a + w_b).states[-1]
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
        windows = compile_program(prog, CHAIN1, bath)
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

        bath = BathSpec(WSE, tau_c=TAU_C)
        comps = tuple(drive_hamiltonian(W1, 0.0, (0,), CHAIN1)) + tuple(
            system_env_coupling(CHAIN1, bath)
        )
        spec = GeneratorSpec(comps, bath)
        gen_analytic = pauli_to_superop(assemble(spec))
        gen_brute = reference_first_order(spec) + brute_force_dissipator(
            comps, bath.tau_c, 2
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
        np.testing.assert_array_equal(traj.channel_pass.channel, np.eye(4))
        assert traj.channel_pass.channel.dtype == np.float64

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
        omega1 = 2 * np.pi * 1e3 * omega1_khz
        bath = BathSpec(WSE, tau_c=wse_tauc / WSE)
        chain = resolved_chain(
            tuple(2 * np.pi * 1e3 * w for w in larmor_khz),
            ((0, 2, j), (0, 1, j), (1, 2, j)),
            coarse_grain_dt=default_coarse_grain_dt(bath, omega1),
        )
        prog = transport_protocol(chain, omega1)
        windows = compile_program(prog, chain, bath)
        rho0 = ket2dm(prog.meta["initial_state"])
        traj = propagate(rho0, windows)
        channel = pauli_to_superop(traj.channel_pass.channel)
        assert max_norm(unvec(channel @ vec(rho0)) - traj.states[-1]) < 1e-12
        tr_vec = vec(identity(8)).conj()
        assert max_norm(tr_vec @ channel - tr_vec) < 1e-12


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=5, deadline=None)
@given(
    larmor_khz=st.lists(st.floats(100.0, 1e4), min_size=3, max_size=3),
    omega1_khz=st.floats(20.0, 500.0),
    wse_tauc=st.floats(0.01, 0.3),
)
def test_pass_matches_sampled_propagation(larmor_khz, omega1_khz, wse_tauc):
    # random 3-spin transport runs: the pass alone gives the sampled final
    # state and the channel, a real Pauli transfer matrix, which is trace
    # preserving (row 0) and completely positive by the oracle's
    # column-stacking Choi matrix
    j = 1.5e5
    omega1 = 2 * np.pi * 1e3 * omega1_khz
    bath = BathSpec(WSE, tau_c=wse_tauc / WSE)
    chain = resolved_chain(
        tuple(2 * np.pi * 1e3 * w for w in larmor_khz),
        ((0, 2, j), (0, 1, j), (1, 2, j)),
        coarse_grain_dt=default_coarse_grain_dt(bath, omega1),
    )
    prog = transport_protocol(chain, omega1)
    windows = compile_program(prog, chain, bath)
    rho0 = ket2dm(prog.meta["initial_state"])
    run = channel_pass(rho0, windows)
    traj = propagate(rho0, windows)
    assert max_norm(run.final_state - traj.states[-1]) < 1e-12
    assert max_norm(run.channel - traj.channel_pass.channel) < 1e-12
    assert run.channel.dtype == np.float64
    assert run.tp_defect == np.abs(run.channel[0] - np.eye(64)[0]).max() <= 1e-12
    superop = pauli_to_superop(run.channel)
    tr_vec = vec(identity(8)).conj()
    assert max_norm(tr_vec @ superop - tr_vec) < 1e-12
    choi = choi_of_superop(superop)
    assert abs(np.trace(choi) - 8) < 1e-12
    assert abs(run.choi_min - np.linalg.eigvalsh(choi).min()) < 1e-12
    assert run.choi_min >= 0.0


def complex_reference_pass(rho0, windows):
    """The program channel and the final state walked in column-stacking
    complex arithmetic, one scipy expm per generator window of the
    per-pair column-stacking first and second orders (reference)."""
    from scipy.linalg import expm as scipy_expm

    v = vec(rho0)
    channel = np.eye(v.size, dtype=complex)
    for w in windows:
        if isinstance(w, (VirtualZ, IdealPi)):
            full = conjugation_superop(segment_unitary(w, 3))
        else:
            gen = reference_first_order(w.spec) + reference_dissipator(w.spec)
            full = scipy_expm(gen * w.duration)
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
    omega1 = 2 * np.pi * 1e3 * omega1_khz
    wse = 2 * np.pi * 1e3 * wse_khz
    bath = BathSpec(wse, tau_c=wse_tauc / wse)
    chain = resolved_chain(
        tuple(2 * np.pi * 1e3 * w for w in larmor_khz),
        ((0, 2, j), (0, 1, j), (1, 2, j)),
        coarse_grain_dt=default_coarse_grain_dt(bath, omega1),
    )
    prog = transport_protocol(chain, omega1)
    windows = compile_program(prog, chain, bath)
    rho0 = ket2dm(prog.meta["initial_state"])
    run = channel_pass(rho0, windows)
    channel, final = complex_reference_pass(rho0, windows)
    assert max_norm(pauli_to_superop(run.channel) - channel) < 1e-12
    assert max_norm(run.final_state - final) < 1e-12


def run_preset_point(name, sampled=False):
    cfg = load_preset(name)
    return run_transport(cfg.chain, cfg.bath, cfg.omega1, cfg.refocusing,
                         sampled=sampled)


def test_each_instantaneous_segment_adds_a_row_at_the_same_time():
    # a unitary window takes no time: its sample repeats the previous
    # sample's time and holds the state right after the unitary
    program, traj, _ = run_preset_point("fig2", sampled=True)
    cfg = load_preset("fig2")
    unitaries = [segment_unitary(w, 3)
                 for w in compile_program(program, cfg.chain, cfg.bath)
                 if isinstance(w, (VirtualZ, IdealPi))]
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
    @pytest.mark.parametrize("preset, assembles, expms, segments, validated, monomials",
                             [("fig2", 9, 22, 7, 850, 43), ("fig3", 3, 8, 1, 524, 13)],
                             ids=["fig2-9-22", "fig3-3-8"])
    def test_one_assemble_and_expm_pair_per_distinct_generator(
            self, monkeypatch, preset, assembles, expms, segments, validated, monomials):
        # simulate walks the windows once: one assemble per distinct
        # generator, one full-window and one sampling-step expm per
        # distinct (generator, duration), and each boundary state and
        # sample validated once.  The walk builds no transfer matrix: each
        # distinct shape's monomial matrices and each distinct segment's
        # transfer matrix are built once per process (one
        # `linalg.pauli_transfer` call each) and serve every later run.  A pulse shape has 5 monomials (the drive's linear
        # term; coupling-coupling, coupling-drive, environment-environment
        # and drive-drive quadratic terms), the delay shape 3.
        sequences.segment_unitary.cache_clear()
        sequences.segment_transfer.cache_clear()
        master._cached_polynomial.cache_clear()
        calls = counting_calls(monkeypatch, [(evolve, "assemble"), (evolve, "expm")])
        # the shapes call master's binding; the segments reach linalg's
        # through `linalg.unitary_transfer`
        monomial_calls = counting_calls(monkeypatch, [(master, "pauli_transfer")])
        segment_calls = counting_calls(monkeypatch, [(linalg, "pauli_transfer")])
        checked = []
        real = evolve._checked
        monkeypatch.setattr(evolve, "_checked",
                            lambda rhos, *args: checked.append(len(rhos)) or real(rhos, *args))
        run_preset_point(preset, sampled=True)
        assert (calls["assemble"], calls["expm"]) == (assembles, expms)
        assert master._cached_polynomial.cache_info().currsize == assembles
        assert monomial_calls["pauli_transfer"] == monomials
        assert segment_calls["pauli_transfer"] == segments
        assert sum(checked) == validated
        run_preset_point(preset, sampled=True)
        assert monomial_calls["pauli_transfer"] == monomials
        assert segment_calls["pauli_transfer"] == segments
        assert master._cached_polynomial.cache_info().currsize == assembles

    def test_warm_point_builds_no_shape_and_no_kronecker_product(self, monkeypatch):
        # once the operator table, the segment transfer matrices and the
        # generator shapes exist, a fig2 sweep point at a new omega_1, J
        # and tau_c builds no embedded operator, no transfer matrix and no
        # shape: it makes no Kronecker product
        run_preset_point("fig2")
        cfg = load_preset("fig2")
        before = master._cached_polynomial.cache_info()
        calls = []
        kron = np.kron
        monkeypatch.setattr(np, "kron", lambda a, b: calls.append(1) or kron(a, b))
        counts = counting_calls(monkeypatch, [(linalg, "embed"), (master, "pauli_transfer"),
                                              (linalg, "pauli_transfer")])
        rep = evaluate_point(cfg.chain, cfg.bath, 1.37 * cfg.omega1,
                             2 * np.pi * 0.8 * cfg.chain.coupling_j((0, 2)),
                             0.7 * cfg.bath.tau_c)
        after = master._cached_polynomial.cache_info()
        assert 0.0 <= rep.fidelity <= 1.0
        assert len(calls) == 0
        assert sum(counts.values()) == 0
        assert (after.misses, after.currsize) == (before.misses, before.currsize)
        assert after.hits == before.hits + 9

    @pytest.mark.parametrize("preset, assembles, expms",
                             [("fig2", 9, 11), ("fig3", 3, 4)])
    def test_sweep_point_exponentiates_full_windows_only(
            self, monkeypatch, preset, assembles, expms):
        calls = counting_calls(monkeypatch, [(evolve, "assemble"), (evolve, "expm"),
                                             (sweep, "propagate")])
        run_preset_point(preset)
        assert (calls["assemble"], calls["expm"]) == (assembles, expms)
        cfg = load_preset(preset)
        evaluate_point(cfg.chain, cfg.bath, cfg.omega1,
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
            for w in compile_program(program, cfg.chain, cfg.bath)
        ]
        own = propagate(ket2dm(program.meta["initial_state"]), windows)
        np.testing.assert_array_equal(own.times, traj.times)
        np.testing.assert_array_equal(np.array(own.states), np.array(traj.states))
        np.testing.assert_array_equal(own.channel_pass.channel, traj.channel_pass.channel)
        np.testing.assert_array_equal(own.channel_pass.final_state,
                                      traj.channel_pass.final_state)
        assert (own.clip_count, own.min_eigenvalue) == (traj.clip_count, traj.min_eigenvalue)

    @pytest.mark.parametrize("preset", ["fig2", "fig3"])
    def test_lazy_windows_match_the_list(self, preset):
        # a generator expression that builds a fresh spec per window frees
        # each spec once its window is walked; the memo must still never
        # hand one window another window's propagator
        cfg = load_preset(preset)
        program = transport_protocol(cfg.chain, cfg.omega1, cfg.refocusing)
        windows = compile_program(program, cfg.chain, cfg.bath)
        rho0 = ket2dm(program.meta["initial_state"])

        def lazy():
            return (replace(w, spec=GeneratorSpec(w.spec.components, w.spec.bath))
                    if hasattr(w, "spec") else w for w in windows)

        want, got = channel_pass(rho0, windows), channel_pass(rho0, lazy())
        np.testing.assert_array_equal(got.channel, want.channel)
        np.testing.assert_array_equal(got.final_state, want.final_state)
        want, got = propagate(rho0, windows), propagate(rho0, lazy())
        np.testing.assert_array_equal(got.times, want.times)
        np.testing.assert_array_equal(got.states, want.states)
        np.testing.assert_array_equal(got.channel_pass.channel, want.channel_pass.channel)


@pytest.mark.parametrize("preset", ["fig2", "fig3"])
def test_presets_clip_no_state(preset):
    # the pure states at the start of the program carry rounding-level
    # negative eigenvalues only: nothing to clip
    _, traj, _ = run_preset_point(preset, sampled=True)
    assert traj.clip_count == 0
    assert traj.min_eigenvalue >= -evolve.rounding_floor(8)


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
        program = transport_protocol(cfg.chain, cfg.omega1, refocus=cfg.refocusing)
        windows = compile_program(program, cfg.chain, cfg.bath)
        assert counts() == [2] * len(handles)
        channel_pass(ket2dm(program.meta["initial_state"]), windows)
        assert (len(seen["compile"]), len(seen["walk"])) == (0, 4)
        assert all(c == [1] * len(handles) for c in seen["walk"])
        assert counts() == [2] * len(handles)
    finally:
        for (_, set_), n in zip(handles, before):
            set_(n)


class TestChannelChecks:
    """A doctored window that breaks TP or CP, or is not finite, stops the
    pass and fails the sweep point with the check's message."""

    CASES = [
        (lambda: superop_to_pauli(transpose_superop(8)),
         "channel not completely positive: Choi eigenvalue"),
        (lambda: 1.001 * np.eye(64), "channel not trace preserving: defect"),
        # NaN fails every comparison: without its own check it would pass
        # the defect and stop the Choi eigvalsh with a LinAlgError
        (lambda: np.full((64, 64), np.nan), "program channel has a non-finite entry"),
    ]

    @pytest.mark.parametrize("transfer, message", CASES,
                             ids=["transpose", "trace-scaling", "non-finite"])
    def test_pass_and_sweep_point_fail(self, monkeypatch, transfer, message):
        # fig2's first pulse window has a generator of its own: replace its
        # propagator, and only that one, by the doctored Pauli transfer
        # matrix.  The bath is off: a strongly depolarizing remainder would
        # make even a transposed window's program CP.
        cfg = load_preset("fig2")
        bath = BathSpec(0.0, tau_c=1e-18)
        program = transport_protocol(cfg.chain, cfg.omega1)
        windows = compile_program(program, cfg.chain, bath)
        rho0 = ket2dm(program.meta["initial_state"])
        channel_pass(rho0, windows)  # the undoctored program passes
        first = next(w for w in windows if hasattr(w, "spec"))
        assert sum(w.spec is first.spec for w in windows if hasattr(w, "spec")) == 1
        # the walk exponentiates the assembled Pauli transfer generator, so
        # the doctored window enters in that basis too
        gen = assemble(first.spec)
        real = evolve.expm
        monkeypatch.setattr(evolve, "expm", lambda g, t: (
            transfer() if np.array_equal(g, gen) else real(g, t)))
        with pytest.raises(ChannelError, match=message):
            channel_pass(rho0, windows)
        grid = GridSpec((cfg.omega1,), (2 * np.pi * cfg.chain.coupling_j((0, 2)),),
                        (bath.tau_c,), cfg.chain, bath)
        (record,) = run_sweep(grid, workers=1)
        assert record.status == "failed(ChannelError)"
        assert record.error.startswith(message)
        assert np.isnan(record.tp_defect) and np.isnan(record.choi_min)

    def test_invalid_initial_state_fails_the_boundary_check(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(PositivityError):
            channel_pass(bad, [])

    @pytest.mark.parametrize("entry", [channel_pass, propagate])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_state_fails_the_boundary_check(self, entry, value):
        # every comparison with NaN is false, and a Hermitian pair of
        # infinities passes the trace and Hermiticity checks: neither may
        # pass as a validated state
        bad = np.diag([0.5, 0.5]).astype(complex)
        bad[0, 1] = bad[1, 0] = value
        with np.errstate(invalid="ignore"), pytest.raises(
                RuntimeError, match=r"non-finite entry at t = 0\.000000e\+00 s"):
            entry(bad, [])


def per_sample_checked(rhos, times):
    """The per-sample validation the batched check replaced (reference),
    clipping only below the rounding floor."""
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
        if wmin < -evolve.rounding_floor(len(rho)):
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


STATE_KINDS = ("mixed", "near_diagonal", "gershgorin_edge", "rank_deficient", "clipped",
               "rounding", "below_floor", "non_hermitian", "wrong_trace", "non_finite")


def random_state(rng, d, kind):
    """A d x d test state of the given kind (see STATE_KINDS)."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    p = rng.dirichlet(np.ones(d))
    if kind in ("near_diagonal", "gershgorin_edge"):
        # a positive diagonal with Hermitian off-diagonal noise, scaled so
        # that Gershgorin's lower bound is `bound`: well above zero, or
        # close to it on either side of CERT_MARGIN
        bound = (0.5 * p.min() if kind == "near_diagonal"
                 else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15.0, -8.0))
        noise = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        noise = noise + dagger(noise)
        np.fill_diagonal(noise, 0.0)
        scale = ((p - bound) / np.abs(noise).sum(axis=1)).min()
        return np.diag(p).astype(complex) + scale * noise
    if kind == "rank_deficient":
        p[rng.permutation(d)[:rng.integers(1, d)]] = 0.0  # rank 1 is pure
        p /= p.sum()
    floor = evolve.rounding_floor(d)
    low = {"clipped": -10.0 ** rng.uniform(np.log10(floor) + 0.01, -8.0),
           "rounding": -rng.uniform(0.0, 1.0) * floor,
           "below_floor": -10.0 ** rng.uniform(-7.5, -3.0)}.get(kind)
    if low is not None:
        p = np.concatenate([[low], (1.0 - low) * p[1:] / p[1:].sum()])
    rho = (q * p) @ dagger(q)
    if kind == "non_hermitian":
        # a traceless perturbation on either side of HERM_TOL
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x -= np.trace(x) / d * np.eye(d)
        rho = rho + 10.0 ** rng.uniform(-12.0, -6.0) * x / np.abs(x).max()
    elif kind == "wrong_trace":
        rho = rho * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -6.0))
    elif kind == "non_finite":
        i, j = rng.integers(0, d, size=2)
        rho[i, j] = rng.choice([np.nan, np.inf, -np.inf])
    return rho


class TestBatchedChecks:
    TIMES = list(np.linspace(1e-6, 2e-6, 6))

    @settings(max_examples=300, deadline=None)
    @given(d=st.sampled_from([2, 4, 8]),
           kinds=st.lists(st.sampled_from(STATE_KINDS), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1), column_major=st.booleans())
    def test_matches_all_eigvalsh_reference(self, d, kinds, seed, column_major):
        # the Gershgorin certificate changes no result: the same stack bit
        # for bit, the same stats, or the same error with the same message
        rng = np.random.default_rng(seed)
        rhos = np.array([random_state(rng, d, k) for k in kinds])
        if column_major:  # the layout the walk passes
            rhos = np.ascontiguousarray(rhos.transpose(0, 2, 1)).transpose(0, 2, 1)
        times = list(np.cumsum(rng.uniform(1e-7, 1e-6, len(kinds))))
        got_stats, want_stats = {"clips": 0, "min_eig": 0.0}, {"clips": 0, "min_eig": 0.0}
        try:
            want = checked_reference(rhos, times, want_stats)
        except (RuntimeError, ValueError) as exc:
            with pytest.raises(type(exc)) as got:
                evolve._checked(rhos, times, got_stats)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
            return
        got = evolve._checked(rhos, times, got_stats)
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        assert got_stats == want_stats

    @pytest.mark.parametrize("preset", ["fig2", "fig3"])
    def test_certificate_spares_most_preset_states(self, monkeypatch, preset):
        # eigvalsh sees the Choi matrix and fewer than half of the states of
        # each checked stack (boundary states, then samples)
        checked, shapes = [], []
        real_checked, real_eigvalsh = evolve._checked, np.linalg.eigvalsh
        monkeypatch.setattr(evolve, "_checked", lambda rhos, *args: (
            checked.append(len(rhos)) or real_checked(rhos, *args)))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: (
            shapes.append(a.shape) or real_eigvalsh(a)))
        run_preset_point(preset, sampled=True)
        assert shapes[0] == (64, 64)
        assert len(shapes) == 1 + len(checked) == 3
        for shape, total in zip(shapes[1:], checked):
            assert 0 < shape[0] < 0.5 * total

    def test_clipping_matches_per_sample_path(self):
        rhos = state_stack([0.0, -1e-10, 1e-3, -3e-9, -1e-12, 0.0])
        stats = {"clips": 0, "min_eig": 0.0}
        got = evolve._checked(rhos, self.TIMES, stats)
        want, want_stats = per_sample_checked(rhos, self.TIMES)
        assert stats == want_stats
        assert stats["clips"] >= 3
        np.testing.assert_array_equal(np.array(got), np.array(want))

    def test_rounding_level_negatives_are_kept(self):
        # eigenvalues within d * eps below zero are rounding, not states to
        # repair: kept as they are, uncounted, but seen by min_eig
        floor = evolve.rounding_floor(8)
        rhos = state_stack([-0.5 * floor, -0.25 * floor, 0.0, -4 * floor])
        stats = {"clips": 0, "min_eig": 0.0}
        got = evolve._checked(rhos, self.TIMES[:4], stats)
        want, want_stats = per_sample_checked(rhos, self.TIMES[:4])
        assert stats == want_stats
        assert stats["clips"] == 1 and stats["min_eig"] < -floor
        np.testing.assert_array_equal(np.array(got[:3]), rhos[:3])
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
        traj = propagate(ket2dm(basis_state([0])), windows)
        out = io.StringIO()
        export_trajectory(traj, psi_t, out)
        lines = out.getvalue().strip().split("\n")
        header = lines[0].split(", ")
        assert header[0] == "time_s"
        assert header[-1] == "fidelity"
        assert len(header) == 1 + 2 * 4 + 1  # time + re/im of 2x2 + fidelity
        assert len(lines) == len(traj.states) + 1
