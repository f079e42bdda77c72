from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinswap.master as master
from spinswap.config import load_preset
from spinswap.linalg import (
    commutator_superop,
    dagger,
    embed,
    identity,
    left_mult,
    max_norm,
    partial_trace,
    pauli_to_superop,
    right_mult,
    spin_half_ops,
    unvec,
    vec,
)
from spinswap.master import (
    GeneratorSpec,
    assemble,
    first_order_generator,
    kossakowski_matrix,
    regulator_integral,
    second_order_dissipator,
)
from spinswap.model import (
    BathSpec,
    ChainSpec,
    HarmonicComponent,
    Mechanism,
    system_env_coupling,
    tagged,
)
from spinswap.sequences import compile_program, transport_protocol

IX, IY, IZ, IP, IM = spin_half_ops()

W1 = 2 * np.pi * 1.5e5
WSE = 2 * np.pi * 1.0e5
TAU_C = 0.1 / WSE


def lindblad_superop(l_op):
    ld = dagger(l_op)
    return np.kron(ld.T, l_op) - 0.5 * (left_mult(ld @ l_op) + right_mult(ld @ l_op))


def double_commutator_superop(a):
    c = left_mult(a) - right_mult(a)
    return c @ c


def brute_force_dissipator(comps, tau_c, cutoff, sys_dim, upper=20.0, steps_per_tau=200):
    """Independent dissipator evaluation: explicit local environments and a
    trapezoid quadrature of the memory integral (step tau_c/steps_per_tau,
    upper limit upper*tau_c)."""
    env_sites = sorted({c.env_site for c in comps if c.has_env})
    n_env = len(env_sites)
    env_dim = 2**n_env
    dim = sys_dim * env_dim

    def joint(c):
        op = np.kron(c.op, identity(env_dim))
        if c.has_env:
            pos = env_sites.index(c.env_site)
            factors = [identity(2)] * n_env
            factors[pos] = c.env_op
            env = factors[0]
            for f in factors[1:]:
                env = np.kron(env, f)
            op = np.kron(c.op, env)
        return op

    rho_env = identity(env_dim) / env_dim
    taus = np.arange(0, int(upper * steps_per_tau) + 1) * (tau_c / steps_per_tau)
    weights = np.exp(-taus / tau_c)

    diss = np.zeros((sys_dim**2, sys_dim**2), dtype=complex)
    joints = [joint(c) for c in comps]
    for a_idx, ca in enumerate(comps):
        for b_idx, cb in enumerate(comps):
            if abs(ca.freq + cb.freq) >= cutoff:
                continue
            integrand = weights * np.exp(1j * cb.freq * taus)
            g = np.trapezoid(integrand, taus)
            aj, bj = joints[a_idx], joints[b_idx]
            # map on system space, one basis matrix at a time
            for i in range(sys_dim):
                for j in range(sys_dim):
                    e = np.zeros((sys_dim, sys_dim), dtype=complex)
                    e[i, j] = 1.0
                    full = np.kron(e, rho_env)
                    inner = bj @ full - full @ bj
                    outer = aj @ inner - inner @ aj
                    reduced = partial_trace(
                        outer, (0,), (sys_dim, env_dim)
                    )
                    diss[:, j * sys_dim + i] -= g * vec(reduced)
    return diss


class TestRegulator:
    def test_zero_frequency(self):
        assert regulator_integral(0.0, 1.6e-7) == 1.6e-7

    def test_unit_product(self):
        tc = 2.2e-7
        np.testing.assert_allclose(
            regulator_integral(1.0 / tc, tc), tc * (1 + 1j) / 2, rtol=1e-12
        )

    def test_large_frequency_limit(self):
        assert abs(regulator_integral(1e12, 1e-6)) < 2e-6 * 1e-6

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            regulator_integral(0.0, 0.0)

    def test_frequency_arrays_elementwise(self):
        freqs = np.array([-3.0, 0.0, 0.7]) / TAU_C
        np.testing.assert_allclose(
            regulator_integral(freqs, TAU_C),
            [regulator_integral(float(f), TAU_C) for f in freqs],
            rtol=1e-15,
        )
        with pytest.raises(ValueError):
            regulator_integral(freqs, 0.0)


def make_bath(omega_se=WSE, tau_c=TAU_C):
    return BathSpec(omega_se, tau_c=tau_c)


def assembled(spec):
    """The assembled generator in column stacking."""
    return pauli_to_superop(assemble(spec))


class TestFirstOrder:
    def test_resonant_drive_only(self):
        spec = GeneratorSpec(
            (HarmonicComponent(W1 * IX, 0.0),), make_bath(), 1e9
        )
        expected = -1j * (left_mult(W1 * IX) - right_mult(W1 * IX))
        np.testing.assert_allclose(first_order_generator(spec), expected, atol=1e-9)

    def test_env_components_traced_away(self):
        static = 2 * np.pi * 5e4 * np.kron(IZ, IZ) * 4  # arbitrary static term
        chain = ChainSpec((1e7, 1e7), ())
        comps = (HarmonicComponent(static, 0.0),) + tuple(
            system_env_coupling(chain, make_bath())
        )
        spec = GeneratorSpec(comps, make_bath(), 1e9)
        expected = -1j * (left_mult(static) - right_mult(static))
        np.testing.assert_allclose(first_order_generator(spec), expected, atol=1e-9)

    def test_fast_component_excluded(self):
        cutoff = 1e6
        fast = HarmonicComponent(0.5 * W1 * IP, 5e6)
        fast_c = HarmonicComponent(0.5 * W1 * IM, -5e6)
        spec = GeneratorSpec((fast, fast_c), make_bath(), cutoff)
        assert max_norm(first_order_generator(spec)) == 0.0

    def test_empty_components_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec((), make_bath(), 1e9)

    def test_incoherent_component_excluded(self):
        comp = HarmonicComponent(W1 * IX, 0.0, coherent=False)
        spec = GeneratorSpec((comp,), make_bath(), 1e9)
        assert max_norm(first_order_generator(spec)) == 0.0


class TestSecondOrder:
    def test_zero_amplitudes_zero_map(self):
        spec = GeneratorSpec(
            (HarmonicComponent(0.0 * IX, 0.0),), make_bath(), 1e9
        )
        assert max_norm(second_order_dissipator(spec)) == 0.0

    def test_drive_induced_dissipation_form(self):
        spec = GeneratorSpec(
            (HarmonicComponent(W1 * IX, 0.0),), make_bath(), 1e9
        )
        got = second_order_dissipator(spec)
        np.testing.assert_allclose(
            got, -TAU_C * double_commutator_superop(W1 * IX), atol=1e-9
        )

    def test_env_channels_equal_weight_raising_lowering(self):
        chain = ChainSpec((2 * np.pi * 1e6,), ())
        bath = make_bath()
        comps = tuple(system_env_coupling(chain, bath))
        spec = GeneratorSpec(comps, bath, 1e9)
        rate = bath.omega_se**2 * bath.tau_c / 4.0
        expected = rate * (lindblad_superop(IP) + lindblad_superop(IM))
        np.testing.assert_allclose(second_order_dissipator(spec), expected, atol=1e-9)

    def test_quadratic_scaling_in_omega_se(self):
        chain = ChainSpec((2 * np.pi * 1e6,), ())
        d1 = second_order_dissipator(
            GeneratorSpec(
                tuple(system_env_coupling(chain, make_bath(WSE))),
                make_bath(WSE), 1e9,
            )
        )
        d2 = second_order_dissipator(
            GeneratorSpec(
                tuple(system_env_coupling(chain, make_bath(2 * WSE))),
                make_bath(2 * WSE), 1e9,
            )
        )
        np.testing.assert_allclose(max_norm(d2), 4.0 * max_norm(d1), rtol=1e-12)

    def test_drive_bath_cross_pairs_vanish(self):
        chain = ChainSpec((2 * np.pi * 1e6,), ())
        bath = make_bath()
        drive = (HarmonicComponent(W1 * IX, 0.0),)
        env = tuple(system_env_coupling(chain, bath))
        combined = second_order_dissipator(
            GeneratorSpec(drive + env, bath, 1e9)
        )
        separate = second_order_dissipator(
            GeneratorSpec(drive, bath, 1e9)
        ) + second_order_dissipator(GeneratorSpec(env, bath, 1e9))
        np.testing.assert_allclose(combined, separate, atol=1e-12)


class TestBruteForceOracle:
    def test_resonant_driven_qubit_matches(self):
        # analytic engine vs literal memory-integral with an explicit
        # two-level environment; relative map-norm agreement to 1e-4
        chain = ChainSpec((2 * np.pi * 1e6,), ())
        bath = make_bath()
        comps = (HarmonicComponent(W1 * IX, 0.0),) + tuple(
            system_env_coupling(chain, bath)
        )
        spec = GeneratorSpec(comps, bath, 1e9)
        engine = second_order_dissipator(spec)
        brute = brute_force_dissipator(comps, bath.tau_c, 1e9, 2)
        rel = max_norm(engine - brute) / max_norm(engine)
        assert rel < 1e-4

    def test_detuned_drive_matches(self):
        # off-resonant drive: conjugate component pair at +-Omega exercises
        # the complex regulator weights (decay and shift parts)
        bath = make_bath()
        omega = 0.35 / bath.tau_c
        up = HarmonicComponent(0.5 * W1 * IP, -omega)
        dn = HarmonicComponent(0.5 * W1 * IM, +omega)
        spec = GeneratorSpec((up, dn), bath, 1e9)
        engine = second_order_dissipator(spec)
        brute = brute_force_dissipator((up, dn), bath.tau_c, 1e9, 2)
        rel = max_norm(engine - brute) / max_norm(engine)
        assert rel < 1e-4
        # the shift part is present: the map is not Hermiticity-trivial
        assert max_norm(engine.imag) > 0


class TestAssemble:
    def _paper_spec(self):
        chain = ChainSpec((2 * np.pi * 1e6,), ())
        bath = make_bath()
        comps = (HarmonicComponent(W1 * IX, 0.0),) + tuple(
            system_env_coupling(chain, bath)
        )
        return GeneratorSpec(comps, bath, 1e9)

    def test_trace_annihilation(self):
        gen = assembled(self._paper_spec())
        scale = max(max_norm(gen), 1.0)
        tr_vec = vec(identity(2)).conj()
        assert max_norm(tr_vec @ gen) <= 1e-10 * scale

    def test_hermiticity_preservation(self):
        gen = assembled(self._paper_spec())
        rng = np.random.default_rng(21)
        for _ in range(100):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = m + dagger(m)
            out = unvec(gen @ vec(rho))
            scale = max(max_norm(out), 1.0)
            assert max_norm(out - dagger(out)) <= 1e-10 * scale

    def test_gkls_valid_at_operating_point(self):
        evals = np.linalg.eigvalsh(kossakowski_matrix(assembled(self._paper_spec())))
        assert evals.min() >= -1e-9 * max(evals.max(), 1.0)

    def test_dissipator_linear_in_tau_c(self):
        # unitary limit: scaling tau_c down by 10 scales the dissipator by 10
        norms = []
        for tc in (1e-9, 1e-10):
            bath = BathSpec(WSE, tau_c=tc)
            spec = GeneratorSpec(
                (HarmonicComponent(W1 * IX, 0.0),), bath, 1e12
            )
            norms.append(max_norm(second_order_dissipator(spec)))
        assert abs(norms[0] / norms[1] - 10.0) < 0.1

    def test_short_memory_dissipator_norm(self):
        # frozen from the exact DID form: max-norm = w1^2 tau_c / 2 at
        # tau_c = 1 ns (the [Ix,[Ix,.]] superoperator has max entry 1/2)
        bath = BathSpec(WSE, tau_c=1e-9)
        spec = GeneratorSpec(
            (HarmonicComponent(W1 * IX, 0.0),), bath, 1e12
        )
        norm = max_norm(second_order_dissipator(spec))
        np.testing.assert_allclose(norm, 0.5 * W1**2 * 1e-9, rtol=1e-9)
        # far below the coherent scale w1
        assert norm < 1e-3 * W1

    def test_gen_annihilates_trace_of_identity(self):
        gen = assembled(self._paper_spec())
        out = unvec(gen @ vec(identity(2) / 2))
        assert abs(np.trace(out)) < 1e-10


class TestKossakowski:
    def test_recovers_known_rates(self):
        gamma = 1234.5
        gen = gamma * lindblad_superop(IM)
        evals = np.sort(np.linalg.eigvalsh(kossakowski_matrix(gen)))
        np.testing.assert_allclose(evals, [0.0, 0.0, gamma], atol=1e-9)

    def test_hamiltonian_part_projects_out(self):
        h = 2 * np.pi * 1e6 * (0.3 * IX + 0.7 * IZ)
        gen = -1j * (left_mult(h) - right_mult(h))
        assert max_norm(kossakowski_matrix(gen)) < 1e-9

    def test_two_qubit_channel(self):
        # sigma- on one qubit expands over the normalized two-qubit Pauli
        # basis with squared coefficient norm 2, so each rate appears as
        # 2*gamma; positivity is the invariant content
        gamma1, gamma2 = 100.0, 250.0
        l1 = np.kron(IM, identity(2))
        l2 = np.kron(identity(2), IM)
        gen = gamma1 * lindblad_superop(l1) + gamma2 * lindblad_superop(l2)
        evals = np.sort(np.linalg.eigvalsh(kossakowski_matrix(gen)))
        np.testing.assert_allclose(evals[-2:], [2 * gamma1, 2 * gamma2], atol=1e-8)
        assert evals.min() > -1e-9


def reference_first_order(spec):
    """The coherent generator as built before vectorization (reference)."""
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    for c in spec.components:
        if c.has_env or not c.coherent:
            continue
        if abs(c.freq) < spec.secular_cutoff:
            h = h + c.op
    return commutator_superop(0.5 * (h + dagger(h)))


def reference_env_trace_coeffs(a, b):
    if not a.has_env and not b.has_env:
        return 1.0, 1.0
    if a.has_env != b.has_env:
        return 0.0, 0.0
    if a.env_site != b.env_site:
        return 0.0, 0.0
    c1 = 0.5 * np.trace(a.env_op @ b.env_op)
    c2 = 0.5 * np.trace(b.env_op @ a.env_op)
    return complex(c1), complex(c2)


def reference_dissipator(spec):
    """The per-pair Kronecker loop the vectorized dissipator replaced
    (reference)."""
    d = spec.dim
    diss = np.zeros((d * d, d * d), dtype=complex)
    tau_c = spec.bath.tau_c
    eye = identity(d)
    comps = spec.components
    for a in comps:
        for b in comps:
            if abs(a.freq + b.freq) >= spec.secular_cutoff:
                continue
            c1, c2 = reference_env_trace_coeffs(a, b)
            if c1 == 0.0 and c2 == 0.0:
                continue
            g = regulator_integral(b.freq, tau_c)
            sa, sb = a.op, b.op
            term = c1 * (np.kron(eye, sa @ sb) - np.kron(sa.T, sb))
            term += c2 * (np.kron((sb @ sa).T, eye) - np.kron(sb.T, sa))
            diss -= g * term
    return diss


def assert_matches_reference(spec, rel=1e-12):
    want = reference_first_order(spec) + reference_dissipator(spec)
    got = assembled(spec)
    scale = max(max_norm(want), 1e-300)
    assert max_norm(got - want) <= rel * scale
    want_diss = reference_dissipator(spec)
    assert max_norm(second_order_dissipator(spec) - want_diss) <= rel * max(
        max_norm(want_diss), 1e-300
    )


def random_matrix(rng, d, scale):
    return scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


def component(op, freq, env_site=None, env_op=None, coherent=True, mechanism=None,
              scale=1.0):
    """An untagged component, or with `mechanism` one of that mechanism at
    `scale`, its label naming the unit operator and environment factor by
    their bytes."""
    if mechanism is None:
        return HarmonicComponent(op, freq, env_site, env_op, coherent)
    unit = op / scale
    label = (unit.tobytes(), None if env_op is None else env_op.tobytes())
    return tagged(mechanism, label, unit, scale, freq, env_site, env_op, coherent)


def random_components(rng, nsites, n_static, n_detuned, env_sites, coherent,
                      tag=False):
    """System-only Hermitian terms at zero frequency, detuned conjugate
    pairs, and two environment-coupled components per listed site.  With
    `tag` they are coupling, drive and environment components, each
    mechanism at a random scale of its own."""
    d = 2**nsites
    scales = rng.uniform(0.5, 2.0, size=3) * np.array([W1, W1, WSE])
    mech = dict(zip(("static", "detuned", "env"),
                    zip((Mechanism.COUPLING, Mechanism.DRIVE, Mechanism.ENVIRONMENT),
                        scales)))
    kind = (lambda k: dict(zip(("mechanism", "scale"), mech[k]))) if tag else (lambda k: {})
    comps = []
    for _ in range(n_static):
        m = random_matrix(rng, d, W1)
        comps.append(component(m + dagger(m), 0.0, coherent=coherent, **kind("static")))
    for _ in range(n_detuned):
        up = random_matrix(rng, d, W1)
        f = rng.uniform(-5, 5) / TAU_C
        comps.append(component(up, -f, coherent=coherent, **kind("detuned")))
        comps.append(component(dagger(up), f, coherent=coherent, **kind("detuned")))
    for k in env_sites:
        e = random_matrix(rng, 2, 1.0)
        f = rng.uniform(-1, 1) / TAU_C
        amp = WSE * rng.uniform(0.1, 1.0)
        comps.append(component(amp * embed(IP, k, nsites), f, k, e, **kind("env")))
        comps.append(component(amp * embed(IM, k, nsites), -f, k, dagger(e), **kind("env")))
    return comps


def preset_specs(name):
    """The distinct generator specs of one preset transport point."""
    cfg = load_preset(name)
    program = transport_protocol(cfg.chain, cfg.omega1, cfg.mode, refocus=cfg.refocusing)
    windows = compile_program(program, cfg.chain, cfg.bath, cfg.mode)
    return list({id(w.spec): w.spec for w in windows if hasattr(w, "spec")}.values())


class TestVectorizedAssembly:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nsites=st.integers(1, 2),
        n_static=st.integers(0, 2),
        n_detuned=st.integers(0, 3),
        env_sites=st.lists(st.integers(0, 1), max_size=3),
        coherent=st.booleans(),
        cut=st.floats(0.0, 1.0),
        tag=st.booleans(),
    )
    def test_equals_per_pair_loop(self, seed, nsites, n_static, n_detuned,
                                  env_sites, coherent, cut, tag):
        # the polynomial form, untagged (one group at scale 1, no cache) and
        # tagged (three mechanisms at their own scales, cached shape),
        # against the per-pair oracle: detuned pairs weigh in with a
        # complex g, and the random cutoffs drop some pairs
        rng = np.random.default_rng(seed)
        sites = [k % nsites for k in env_sites]
        comps = random_components(rng, nsites, n_static, n_detuned, sites, coherent, tag)
        if not comps:
            comps = [HarmonicComponent(np.zeros((2**nsites,) * 2), 0.0)]
        # a cutoff between two distinct combined frequencies |f_a + f_b|
        # keeps some pairs and drops the rest
        sums = np.unique(np.abs(np.add.outer(*[[c.freq for c in comps]] * 2)))
        edges = np.concatenate([sums, [2 * sums[-1] + 1.0]])
        k = min(int(cut * len(sums)), len(sums) - 1)
        cutoff = 0.5 * (edges[k] + edges[k + 1])
        spec = GeneratorSpec(tuple(comps), make_bath(), cutoff)
        assert (spec.shape().key is not None) == (tag and comps[0].label is not None)
        assert_matches_reference(spec)
        # a second tau_c reuses the cached shape; flipped coherent flags and
        # another cutoff are other shapes
        other = GeneratorSpec(tuple(comps), make_bath(tau_c=2.7 * TAU_C), cutoff)
        assert_matches_reference(other)
        flipped = tuple(replace(c, coherent=not c.coherent) for c in comps)
        assert_matches_reference(GeneratorSpec(flipped, make_bath(), cutoff))
        k2 = (k + 1) % len(sums)
        assert_matches_reference(
            GeneratorSpec(tuple(comps), make_bath(), 0.5 * (edges[k2] + edges[k2 + 1])))

    @pytest.mark.parametrize("preset, distinct", [("fig2", 9), ("fig3", 3)])
    def test_equals_per_pair_loop_on_presets(self, preset, distinct):
        specs = preset_specs(preset)
        assert len(specs) == distinct
        for spec in specs:
            assert_matches_reference(spec)

    def test_warm_assemble_makes_no_kronecker_product(self, monkeypatch):
        # a cached shape leaves only its linear combination to assemble
        specs = preset_specs("fig2")
        for spec in specs:
            assemble(spec)
        calls = []
        kron = np.kron
        monkeypatch.setattr(np, "kron", lambda a, b: calls.append(1) or kron(a, b))
        monkeypatch.setattr(master, "pauli_transfer", lambda s: calls.append(1))
        for spec in specs:
            assert assemble(spec).dtype == np.float64
        assert calls == []

    def test_shapes_are_keyed_by_descriptors(self):
        # a new amplitude, coupling and tau_c give new specs of the same
        # shapes; new pulse phases give new pulse shapes
        cfg = load_preset("fig2")
        chain = replace(cfg.chain, couplings=tuple((a, b, 2.3 * j)
                                                   for a, b, j in cfg.chain.couplings))
        bath = BathSpec(cfg.bath.omega_se, tau_c=0.6 * cfg.bath.tau_c)
        program = transport_protocol(chain, 1.7 * cfg.omega1, cfg.mode)
        windows = compile_program(program, chain, bath, cfg.mode)
        specs = list({id(w.spec): w.spec for w in windows if hasattr(w, "spec")}.values())
        assert [s.shape() for s in specs] == [s.shape() for s in preset_specs("fig2")]
        assert len({s.shape() for s in specs}) == 9
        shifted = replace(program, segments=tuple(
            replace(seg, phase=seg.phase + 0.25) if hasattr(seg, "phase") else seg
            for seg in program.segments))
        windows = compile_program(shifted, chain, bath, cfg.mode)
        shapes = {w.spec.shape() for w in windows if hasattr(w, "spec")}
        # only the delay windows' shape, which has no drive, is shared
        assert len(shapes) == 9
        assert len(shapes & {s.shape() for s in specs}) == 1

    def test_non_hermitian_coherent_hamiltonian_raises(self):
        # I+ alone is not closed under conjugation
        spec = GeneratorSpec((HarmonicComponent(W1 * IP, 0.0),), make_bath(), 1e9)
        with pytest.raises(ValueError, match="not Hermitian"):
            assemble(spec)
        with pytest.raises(ValueError, match="not Hermitian"):
            first_order_generator(spec)
        # tagged: raised when the shape is built, at unit scale
        drive = component(W1 * IP, 0.0, mechanism=Mechanism.DRIVE, scale=W1)
        with pytest.raises(ValueError, match="Hamiltonian not Hermitian"):
            assemble(GeneratorSpec((drive,), make_bath(), 1e9))

    @pytest.mark.parametrize("tag", [False, True])
    def test_non_hermiticity_preserving_dissipator_raises(self, tag):
        # I+ alone, kept out of the first order: its self pair gives
        # rho -> 2 g I+ rho I+, which does not preserve Hermiticity; its
        # Pauli transfer matrix stays complex, and so does the combination
        # with the complex g of a detuned frequency
        kind = {"mechanism": Mechanism.DRIVE, "scale": W1} if tag else {}
        for freq in (0.0, 0.3 / TAU_C):
            comp = component(W1 * IP, freq, coherent=False, **kind)
            spec = GeneratorSpec((comp,), make_bath(), 1e9)
            with pytest.raises(ValueError, match="does not preserve Hermiticity"):
                assemble(spec)

    def test_one_scale_per_mechanism(self):
        a = component(W1 * IX, 0.0, mechanism=Mechanism.DRIVE, scale=W1)
        b = component(W1 * IY, 0.0, mechanism=Mechanism.DRIVE, scale=2 * W1)
        with pytest.raises(ValueError, match="different scales"):
            GeneratorSpec((a, b), make_bath(), 1e9)
