"""Acceptance suite: one test per criterion, each printing a summary line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time
from dataclasses import replace

import numpy as np

from spinswap.config import load_preset
from spinswap.evolve import channel_pass, propagate
from spinswap.linalg import (
    basis_state,
    identity,
    ket2dm,
    max_norm,
    pauli_strings,
    unitary_transfer,
)
from spinswap.master import GeneratorSpec, assemble
from spinswap.metrics import concurrence, report, swap_efficiency
from spinswap.model import (
    BathSpec,
    ChainSpec,
    drive_hamiltonian,
    system_env_coupling,
)
from spinswap.sequences import (
    U_SWAP,
    compile_program,
    ideal_propagator,
    swap_identical,
    swap_nonidentical,
    transport_protocol,
)
from spinswap.sweep import GridSpec, format_table, run_sweep

from chains import resolved_chain
from oracles import brute_force_dissipator, kossakowski_matrix, pauli_to_superop, unvec, vec

WSE = 2 * np.pi * 1.0e5
TAU_C = 0.1 / WSE
W1_REF = 2 * np.pi * 1.5e5
J_REF = 1.5e5


def stamp(name, ok, detail, t0):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({time.perf_counter() - t0:.2f}s)"
    print(line)
    assert ok, line


def test_criterion_1_gate_correctness():
    t0 = time.perf_counter()
    results = []
    cases = (
        ("non-identical", swap_nonidentical,
         resolved_chain((2 * np.pi * 1e7, 2 * np.pi * 5e5), ((0, 1, J_REF),),
                        coarse_grain_dt=4.11e-7),
         -np.pi / 4),
        ("identical", swap_identical,
         resolved_chain((2 * np.pi * 1e7, 2 * np.pi * 1e7), ((0, 1, J_REF),),
                        coarse_grain_dt=4.11e-7),
         -3 * np.pi / 4),
    )
    for label, builder, chain, expected_phase in cases:
        prog = builder((0, 1), J_REF, W1_REF)
        u = ideal_propagator(prog, chain)
        phase = np.angle(u[0, 0])
        mismatch = max_norm(u - np.exp(1j * phase) * U_SWAP)
        phase_err = abs(np.exp(1j * phase) - np.exp(1j * expected_phase))
        budget_err = abs(prog.delay_total - 3.5 / J_REF) / (3.5 / J_REF)
        results.append((label, mismatch, phase_err, budget_err, phase))
    ok = all(m < 1e-10 and p < 1e-10 and b < 1e-12 for _, m, p, b, _ in results)
    detail = "; ".join(
        f"{lbl}: |U-e^(i phi)SWAP|={m:.1e}, phase {ph/np.pi:+.3f}pi, "
        f"delay-budget rel err {b:.1e}"
        for lbl, m, p, b, ph in results
    )
    elapsed = time.perf_counter() - t0
    stamp("criterion 1 (gate correctness, both regimes)", ok and elapsed < 1.0,
          detail, t0)


def test_criterion_2_transport_correctness():
    t0 = time.perf_counter()
    cfg = load_preset("fig2")
    bath_off = BathSpec(0.0, tau_c=1e-18)  # the chain keeps the preset's regimes

    prog = transport_protocol(cfg.chain, cfg.omega1, refocus=True)
    windows = compile_program(prog, cfg.chain, bath_off)
    run = channel_pass(ket2dm(prog.meta["initial_state"]), windows)
    rep = report(run, prog, cfg.chain)

    prog_off = transport_protocol(cfg.chain, cfg.omega1, refocus=False)
    u_off = ideal_propagator(prog_off, cfg.chain)
    psi_i, psi_f = prog_off.meta["initial_state"], prog_off.meta["target_state"]
    fid_off = abs(np.vdot(psi_f, u_off @ psi_i)) ** 2

    ok = (rep.fidelity >= 1 - 1e-6 and rep.concurrence_23 >= 1 - 1e-6
          and fid_off < 0.99)
    elapsed = time.perf_counter() - t0
    stamp(
        "criterion 2 (closed transport + negative control)",
        ok and elapsed < 5.0,
        f"fidelity={rep.fidelity:.9f}, concurrence={rep.concurrence_23:.9f}, "
        f"no-refocus fidelity={fid_off:.4f}",
        t0,
    )


def test_criterion_3_frqme_structural_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_trace = worst_herm = worst_koss = worst_eig = 0.0
    tr_vec = vec(identity(8)).conj()
    for _ in range(20):
        wse = 2 * np.pi * 10 ** rng.uniform(4.5, 5.5)
        tauc = rng.uniform(0.01, 0.29) / wse
        w1 = rng.uniform(0.01, 0.29) / tauc
        j = 10 ** rng.uniform(4.7, 5.5)
        chain = resolved_chain(
            (2 * np.pi * 1e7, 2 * np.pi * 1e6, 2 * np.pi * 5e5),
            ((0, 2, j), (0, 1, j), (1, 2, j)),
            coarse_grain_dt=4.11e-7,
        )
        bath = BathSpec(wse, tau_c=tauc)
        prog = transport_protocol(chain, w1, refocus=True)
        windows = compile_program(prog, chain, bath)
        gen_windows = [w for w in windows if hasattr(w, "spec")]
        # first pulse window and first delay window are representative
        for w in (gen_windows[0], gen_windows[-1]):
            gen = pauli_to_superop(assemble(w.spec))
            scale = max(max_norm(gen), 1.0)
            worst_trace = max(worst_trace, max_norm(tr_vec @ gen) / scale)
            m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            rho = m + m.conj().T
            out = unvec(gen @ vec(rho))
            worst_herm = max(
                worst_herm,
                max_norm(out - out.conj().T) / max(max_norm(out), 1.0),
            )
            evals = np.linalg.eigvalsh(kossakowski_matrix(gen))
            worst_koss = max(worst_koss, -evals.min() / max(evals.max(), 1.0))
        traj = propagate(ket2dm(prog.meta["initial_state"]), windows)
        worst_eig = min(worst_eig, traj.min_eigenvalue)
    ok = (worst_trace <= 1e-10 and worst_herm <= 1e-10
          and worst_koss <= 1e-9 and worst_eig >= -1e-8)
    elapsed = time.perf_counter() - t0
    stamp(
        "criterion 3 (FRQME structure, 20 random parameter sets)",
        ok and elapsed < 30.0,
        f"trace defect<={worst_trace:.1e}, herm defect<={worst_herm:.1e}, "
        f"kossakowski min>=-{worst_koss:.1e} rel, traj eig floor {worst_eig:.1e}",
        t0,
    )


def test_criterion_4_regulator_oracle_equivalence():
    t0 = time.perf_counter()
    chain = ChainSpec((2 * np.pi * 1e6,), ())
    bath = BathSpec(WSE, tau_c=TAU_C)
    # the drive kept out of the first order: the engine gives the second
    # order alone
    drive = [replace(c, coherent=False) for c in drive_hamiltonian(W1_REF, 0.0, (0,), chain)]
    comps = tuple(drive) + tuple(system_env_coupling(chain, bath))
    engine = pauli_to_superop(assemble(GeneratorSpec(comps, bath)))
    brute = brute_force_dissipator(comps, bath.tau_c, 2, upper=20.0, steps_per_tau=200)
    rel = max_norm(engine - brute) / max_norm(engine)
    elapsed = time.perf_counter() - t0
    stamp(
        "criterion 4 (analytic regulator vs brute-force memory integral)",
        rel < 1e-4 and elapsed < 10.0,
        f"relative map-norm deviation {rel:.2e}",
        t0,
    )


def _fidelity_column(records):
    fids = [r.fidelity for r in records]
    assert all(np.isfinite(f) for f in fids)
    return fids


def test_criterion_5_drive_amplitude_optimum():
    t0 = time.perf_counter()
    cfg = load_preset("fig2")
    records = run_sweep(cfg.grid, workers=1)
    fids = _fidelity_column(records)
    i = int(np.argmax(fids))
    w1_star = records[i].omega1
    interior = 0 < i < len(fids) - 1
    non_monotonic = fids[i] > fids[0] and fids[i] > fids[-1]
    ratio = w1_star / WSE
    ok = interior and non_monotonic and (1 / 3 <= ratio <= 3)
    elapsed = time.perf_counter() - t0
    stamp(
        "criterion 5 (interior fidelity optimum in omega_1)",
        ok and elapsed < 300.0,
        f"argmax omega_1/omega_SE = {ratio:.3f} at fidelity {fids[i]:.4f} "
        f"(edges {fids[0]:.4f}, {fids[-1]:.4f})",
        t0,
    )


def test_criterion_6_coupling_strength_optimum():
    t0 = time.perf_counter()
    cfg = load_preset("fig2")
    # omega_D axis of the reference figures: sweep the coupling at fixed
    # omega_1 = 2pi x 150 kHz over the decade around omega_SE where the
    # narrow-pulse model is valid (omega_D t_pulse <~ 10)
    grid = GridSpec(
        omega1_values=(cfg.omega1,),
        omegaD_values=tuple(
            np.logspace(np.log10(2 * np.pi * 1e4), np.log10(2 * np.pi * 1e6), 12)
        ),
        tauc_values=(TAU_C,),
        chain=cfg.chain,
        bath=cfg.bath,
    )
    records = run_sweep(grid, workers=1)
    fids = _fidelity_column(records)
    i = int(np.argmax(fids))
    ratio = records[i].omegaD / WSE
    interior = 0 < i < len(fids) - 1
    non_monotonic = fids[i] > fids[0] and fids[i] > fids[-1]
    ok = interior and non_monotonic and (1 / 3 <= ratio <= 3)
    elapsed = time.perf_counter() - t0
    stamp(
        "criterion 6 (interior fidelity optimum in omega_D)",
        ok and elapsed < 300.0,
        f"argmax omega_D/omega_SE = {ratio:.3f} at fidelity {fids[i]:.4f} "
        f"(edges {fids[0]:.4f}, {fids[-1]:.4f})",
        t0,
    )


def test_criterion_7_metrics_oracles():
    t0 = time.perf_counter()
    psi_m = (basis_state([1, 0]) - basis_state([0, 1])) / np.sqrt(2)
    worst = 0.0
    for p in (0.0, 0.25, 1.0 / 3.0, 0.5, 0.8, 1.0):
        rho = p * ket2dm(psi_m) + (1 - p) * identity(4) / 4
        worst = max(worst, abs(concurrence(rho) - max(0.0, (3 * p - 1) / 2)))
    eff_swap = swap_efficiency(unitary_transfer(U_SWAP))
    eff_id = swap_efficiency(np.eye(16))
    # independent overlap-sum oracle for the identity channel
    paulis = pauli_strings(2)
    s = sum(
        np.trace(U_SWAP @ p.conj().T @ U_SWAP.conj().T @ p).real for p in paulis
    )
    oracle_id = (4.0 * (s / 16.0) + 1.0) / 5.0
    ok = (worst < 1e-9 and abs(eff_swap - 1.0) < 1e-10
          and abs(eff_id - oracle_id) < 1e-12 and abs(oracle_id - 0.4) < 1e-12)
    elapsed = time.perf_counter() - t0
    stamp(
        "criterion 7 (metrics oracles)",
        ok and elapsed < 1.0,
        f"Werner worst err {worst:.1e}, F(SWAP)={eff_swap:.12f}, "
        f"F(identity)={eff_id:.12f} vs oracle {oracle_id:.12f}",
        t0,
    )


def test_criterion_8_sweep_determinism():
    t0 = time.perf_counter()
    cfg = load_preset("fig2")
    table1 = format_table(run_sweep(cfg.grid, workers=1))
    table8 = format_table(run_sweep(cfg.grid, workers=8))
    ok = table1.encode() == table8.encode()
    elapsed = time.perf_counter() - t0
    stamp(
        "criterion 8 (worker-count determinism)",
        ok,
        f"tables byte-identical: {ok} ({len(table1.splitlines()) - 1} rows)",
        t0,
    )
