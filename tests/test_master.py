from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinswap.master as master
from spinswap.config import load_preset
from spinswap import linalg
from spinswap.linalg import dagger, embed, identity, max_norm, spin_half_ops
from spinswap.master import GeneratorSpec, assemble
from spinswap.model import (
    BathSpec,
    ChainSpec,
    HarmonicComponent,
    Mechanism,
    drive_hamiltonian,
    system_env_coupling,
)
from spinswap.sequences import compile_program, transport_protocol

from oracles import (
    brute_force_dissipator,
    kossakowski_matrix,
    left_mult,
    pauli_to_superop,
    reference_dissipator,
    reference_first_order,
    reference_monomials,
    right_mult,
    superop_to_pauli,
    unvec,
    vec,
)

IX, IY, IZ, IP, IM = spin_half_ops()

W1 = 2 * np.pi * 1.5e5
WSE = 2 * np.pi * 1.0e5
TAU_C = 0.1 / WSE
QUBIT = ChainSpec((2 * np.pi * 1e6,), ())


def lindblad_superop(l_op):
    ld = dagger(l_op)
    return np.kron(ld.T, l_op) - 0.5 * (left_mult(ld @ l_op) + right_mult(ld @ l_op))


def double_commutator_superop(a):
    c = left_mult(a) - right_mult(a)
    return c @ c


def component(op, env_site=None, env_op=None, coherent=True,
              mechanism=Mechanism.DRIVE, scale=1.0):
    """A component of `mechanism` at `scale` with operator `op`, its label
    naming the unit operator and environment factor by their bytes."""
    unit = op / scale
    label = (unit.tobytes(), None if env_op is None else env_op.tobytes())
    return HarmonicComponent(mechanism, label, unit, scale, env_site, env_op, coherent)


def incoherent(comps):
    """The components kept out of the first order: the generator they give
    is the second order alone."""
    return tuple(replace(c, coherent=False) for c in comps)


def x_drive():
    """omega_1 Ix on a single spin, as `compile_program` builds it."""
    return tuple(drive_hamiltonian(W1, 0.0, (0,), QUBIT))


def make_bath(omega_se=WSE, tau_c=TAU_C):
    return BathSpec(omega_se, tau_c=tau_c)


def assembled(spec):
    """The assembled generator in column stacking."""
    return pauli_to_superop(assemble(spec))


def first_order(comps, bath):
    """The engine's first order: what the coherent flags add to the
    generator."""
    return (assembled(GeneratorSpec(comps, bath))
            - assembled(GeneratorSpec(incoherent(comps), bath)))


class TestFirstOrder:
    def test_resonant_drive_only(self):
        expected = -1j * (left_mult(W1 * IX) - right_mult(W1 * IX))
        np.testing.assert_allclose(first_order(x_drive(), make_bath()), expected, atol=1e-9)

    def test_env_components_traced_away(self):
        static = 2 * np.pi * 5e4 * np.kron(IZ, IZ) * 4  # arbitrary static term
        chain = ChainSpec((1e7, 1e7), ())
        comps = (component(static, mechanism=Mechanism.COUPLING),) + tuple(
            system_env_coupling(chain, make_bath())
        )
        expected = -1j * (left_mult(static) - right_mult(static))
        np.testing.assert_allclose(first_order(comps, make_bath()), expected, atol=1e-9)

    def test_empty_components_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec((), make_bath())

    def test_incoherent_component_excluded(self):
        spec = GeneratorSpec(incoherent(x_drive()), make_bath())
        assert max_norm(reference_first_order(spec)) == 0.0
        np.testing.assert_allclose(assembled(spec), reference_dissipator(spec), atol=1e-9)


class TestSecondOrder:
    def test_zero_amplitudes_zero_map(self):
        spec = GeneratorSpec((component(0.0 * IX),), make_bath())
        assert max_norm(assembled(spec)) == 0.0

    def test_drive_induced_dissipation_form(self):
        spec = GeneratorSpec(incoherent(x_drive()), make_bath())
        np.testing.assert_allclose(
            assembled(spec), -TAU_C * double_commutator_superop(W1 * IX), atol=1e-9
        )

    def test_env_channels_equal_weight_raising_lowering(self):
        bath = make_bath()
        spec = GeneratorSpec(tuple(system_env_coupling(QUBIT, bath)), bath)
        rate = bath.omega_se**2 * bath.tau_c / 4.0
        expected = rate * (lindblad_superop(IP) + lindblad_superop(IM))
        np.testing.assert_allclose(assembled(spec), expected, atol=1e-9)

    def test_quadratic_scaling_in_omega_se(self):
        d1, d2 = (assembled(GeneratorSpec(tuple(system_env_coupling(QUBIT, make_bath(w))),
                                          make_bath(w)))
                  for w in (WSE, 2 * WSE))
        np.testing.assert_allclose(max_norm(d2), 4.0 * max_norm(d1), rtol=1e-12)

    def test_drive_bath_cross_pairs_vanish(self):
        bath = make_bath()
        drive = incoherent(x_drive())
        env = tuple(system_env_coupling(QUBIT, bath))
        combined = assembled(GeneratorSpec(drive + env, bath))
        separate = (assembled(GeneratorSpec(drive, bath))
                    + assembled(GeneratorSpec(env, bath)))
        np.testing.assert_allclose(combined, separate, atol=1e-12)


class TestBruteForceOracle:
    def test_resonant_driven_qubit_matches(self):
        # the engine's second order vs the literal memory integral with an
        # explicit two-level environment; relative map-norm agreement to 1e-4
        bath = make_bath()
        comps = incoherent(x_drive()) + tuple(system_env_coupling(QUBIT, bath))
        engine = assembled(GeneratorSpec(comps, bath))
        brute = brute_force_dissipator(comps, bath.tau_c, 2)
        rel = max_norm(engine - brute) / max_norm(engine)
        assert rel < 1e-4


class TestAssemble:
    def _paper_spec(self):
        bath = make_bath()
        return GeneratorSpec(x_drive() + tuple(system_env_coupling(QUBIT, bath)), bath)

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
            spec = GeneratorSpec(incoherent(x_drive()), BathSpec(WSE, tau_c=tc))
            norms.append(max_norm(assembled(spec)))
        assert abs(norms[0] / norms[1] - 10.0) < 0.1

    def test_short_memory_dissipator_norm(self):
        # frozen from the exact DID form: max-norm = w1^2 tau_c / 2 at
        # tau_c = 1 ns (the [Ix,[Ix,.]] superoperator has max entry 1/2)
        spec = GeneratorSpec(incoherent(x_drive()), BathSpec(WSE, tau_c=1e-9))
        norm = max_norm(assembled(spec))
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


def assert_matches_reference(spec, rel=1e-12):
    want = reference_first_order(spec) + reference_dissipator(spec)
    got = assembled(spec)
    scale = max(max_norm(want), 1e-300)
    assert max_norm(got - want) <= rel * scale


def random_matrix(rng, d, scale):
    return scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


def random_components(rng, nsites, n_static, env_sites, coherent):
    """System-only Hermitian terms, alternately coupling and drive, and two
    environment-coupled components per listed site, each mechanism at a
    random scale of its own."""
    d = 2**nsites
    scale = dict(zip((Mechanism.COUPLING, Mechanism.DRIVE, Mechanism.ENVIRONMENT),
                     rng.uniform(0.5, 2.0, size=3) * np.array([W1, W1, WSE])))
    comps = []
    for k in range(n_static):
        mech = (Mechanism.COUPLING, Mechanism.DRIVE)[k % 2]
        m = random_matrix(rng, d, W1)
        comps.append(component(m + dagger(m), coherent=coherent, mechanism=mech,
                               scale=scale[mech]))
    env = {"mechanism": Mechanism.ENVIRONMENT, "scale": scale[Mechanism.ENVIRONMENT]}
    for k in env_sites:
        e = random_matrix(rng, 2, 1.0)
        amp = WSE * rng.uniform(0.1, 1.0)
        comps.append(component(amp * embed(IP, k, nsites), k, e, **env))
        comps.append(component(amp * embed(IM, k, nsites), k, dagger(e), **env))
    return comps


def preset_specs(name):
    """The distinct generator specs of one preset transport point."""
    cfg = load_preset(name)
    program = transport_protocol(cfg.chain, cfg.omega1, refocus=cfg.refocusing)
    windows = compile_program(program, cfg.chain, cfg.bath)
    return list(dict.fromkeys(w.spec for w in windows if hasattr(w, "spec")))


class TestVectorizedAssembly:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nsites=st.integers(1, 2),
        n_static=st.integers(0, 3),
        env_sites=st.lists(st.integers(0, 1), max_size=3),
        coherent=st.booleans(),
        wse_tauc=st.floats(1e-3, 0.5),
    )
    def test_equals_per_pair_loop(self, seed, nsites, n_static, env_sites, coherent,
                                  wse_tauc):
        # the polynomial form (three mechanisms at their own scales, cached
        # shape) against the per-pair oracle
        rng = np.random.default_rng(seed)
        sites = [k % nsites for k in env_sites]
        comps = random_components(rng, nsites, n_static, sites, coherent)
        if not comps:
            comps = [component(np.zeros((2**nsites,) * 2, dtype=complex))]
        bath = make_bath(tau_c=wse_tauc / WSE)
        assert_matches_reference(GeneratorSpec(tuple(comps), bath))
        # a second tau_c reuses the cached shape; flipped coherent flags
        # are another shape
        assert_matches_reference(GeneratorSpec(tuple(comps), make_bath(tau_c=2.7 * TAU_C)))
        flipped = tuple(replace(c, coherent=not c.coherent) for c in comps)
        assert_matches_reference(GeneratorSpec(flipped, bath))

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nsites=st.integers(1, 4),
        n_static=st.integers(0, 3),
        env_sites=st.lists(st.integers(0, 3), max_size=3),
        coherent=st.booleans(),
    )
    def test_every_monomial_equals_column_stacking(self, seed, nsites, n_static,
                                                   env_sites, coherent):
        # each monomial matrix, read off the images of the Pauli strings,
        # against its column-stacking Kronecker form
        rng = np.random.default_rng(seed)
        comps = random_components(rng, nsites, n_static,
                                  [k % nsites for k in env_sites], coherent)
        if not comps:
            comps = [component(np.zeros((2**nsites,) * 2, dtype=complex))]
        poly = master._build_polynomial(GeneratorSpec(tuple(comps), make_bath()).shape())
        want = reference_monomials(comps)
        assert len(poly.stack) == len(poly.linear) + len(poly.quadratic) == len(want)
        for got, ref in zip(poly.stack, want):
            ref = superop_to_pauli(ref)
            assert max_norm(got - ref.reshape(-1)) <= 1e-14 * max_norm(ref)

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

    def test_shape_build_makes_no_kronecker_product(self, monkeypatch):
        # with the register's Pauli strings built, a shape is built from
        # products in Hilbert space alone
        specs = preset_specs("fig2")
        linalg.pauli_strings(3)
        calls = []
        kron = np.kron
        monkeypatch.setattr(np, "kron", lambda a, b: calls.append(1) or kron(a, b))
        for spec in specs:
            master._build_polynomial(spec.shape())
        assert calls == []

    def test_shapes_are_keyed_by_descriptors(self):
        # a new amplitude, coupling and tau_c give new specs of the same
        # shapes; new pulse phases give new pulse shapes
        cfg = load_preset("fig2")
        chain = replace(cfg.chain, couplings=tuple((a, b, 2.3 * j, r)
                                                   for a, b, j, r in cfg.chain.couplings))
        bath = BathSpec(cfg.bath.omega_se, tau_c=0.6 * cfg.bath.tau_c)
        program = transport_protocol(chain, 1.7 * cfg.omega1)
        windows = compile_program(program, chain, bath)
        specs = list(dict.fromkeys(w.spec for w in windows if hasattr(w, "spec")))
        assert [s.shape() for s in specs] == [s.shape() for s in preset_specs("fig2")]
        assert len({s.shape() for s in specs}) == 9
        shifted = replace(program, segments=tuple(
            replace(seg, phase=seg.phase + 0.25) if hasattr(seg, "phase") else seg
            for seg in program.segments))
        windows = compile_program(shifted, chain, bath)
        shapes = {w.spec.shape() for w in windows if hasattr(w, "spec")}
        # only the delay windows' shape, which has no drive, is shared
        assert len(shapes) == 9
        assert len(shapes & {s.shape() for s in specs}) == 1

    def test_non_hermitian_coherent_hamiltonian_raises(self):
        # I+ alone is not closed under conjugation: raised when the shape
        # is built, at unit scale
        drive = component(W1 * IP, scale=W1)
        with pytest.raises(ValueError, match="Hamiltonian not Hermitian"):
            assemble(GeneratorSpec((drive,), make_bath()))

    @pytest.mark.parametrize("with_drive", [False, True])
    def test_non_hermiticity_preserving_dissipator_raises(self, with_drive):
        # I+, kept out of the first order: its self pair gives
        # rho -> 2 tau_c I+ rho I+, which does not preserve Hermiticity, so
        # its Pauli transfer matrix is complex when the shape is built; a
        # Hermitian coherent drive beside it does not mend the pairs
        comps = (component(W1 * IP, coherent=False, scale=W1),)
        if with_drive:
            comps += (component(W1 * IX, scale=W1),)
        spec = GeneratorSpec(comps, make_bath())
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            assemble(spec)

    def test_one_scale_per_mechanism(self):
        a = component(W1 * IX, scale=W1)
        b = component(W1 * IY, scale=2 * W1)
        with pytest.raises(ValueError, match="different scales"):
            GeneratorSpec((a, b), make_bath())


class TestSpecValue:
    """Specs compare and hash by value: the shape key, the scales and tau_c."""

    @staticmethod
    def compiled_specs(preset="fig2"):
        cfg = load_preset(preset)
        program = transport_protocol(cfg.chain, cfg.omega1, cfg.refocusing)
        return [w.spec for w in compile_program(program, cfg.chain, cfg.bath)
                if hasattr(w, "spec")]

    @pytest.mark.parametrize("preset", ["fig2", "fig3"])
    def test_equal_specs_from_two_compiles(self, preset):
        first, second = self.compiled_specs(preset), self.compiled_specs(preset)
        for a, b in zip(first, second):
            assert a is not b
            assert a == b and hash(a) == hash(b)
            assert a.shape() == b.shape()
        assert len(set(first + second)) == len(set(first))

    def test_tau_c_scales_and_labels_make_specs_unequal(self):
        spec = next(s for s in self.compiled_specs()
                    if any(c.mechanism is Mechanism.DRIVE for c in s.components))
        bath = spec.bath
        changed = [GeneratorSpec(spec.components,
                                 BathSpec(bath.omega_se, tau_c=1.5 * bath.tau_c))]
        for m in spec.scales:
            changed.append(GeneratorSpec(tuple(
                replace(c, scale=1.5 * c.scale) if c.mechanism is m else c
                for c in spec.components), bath))
        for k, c in enumerate(spec.components):
            comps = list(spec.components)
            comps[k] = replace(c, label=c.label + ("other",))
            changed.append(GeneratorSpec(tuple(comps), bath))
        assert len(spec.scales) == 3 and len(changed) == 1 + 3 + len(spec.components)
        for other in changed:
            assert other != spec
        assert len(set(changed)) == len(changed)
        assert GeneratorSpec(spec.components, bath) == spec
