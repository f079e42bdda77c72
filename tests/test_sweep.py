from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinswap.evolve as evolve
import spinswap.linalg as linalg
import spinswap.master as master
import spinswap.sequences as sequences
import spinswap.sweep as sweep
from spinswap.model import BathSpec, default_coarse_grain_dt
from spinswap.sweep import (
    GridSpec,
    SweepRecord,
    argmax_report,
    evaluate_point,
    format_table,
    run_sweep,
    summary_dict,
)
from spinswap.sequences import transport_protocol

from chains import resolved_chain
from conftest import clear_package_caches, package_caches

J = 1.5e5
W1 = 2 * np.pi * 1.5e5
WSE = 2 * np.pi * 1.0e5
TAU_C = 0.1 / WSE
BATH = BathSpec(WSE, tau_c=TAU_C)
CHAIN3 = resolved_chain(
    (2 * np.pi * 1e7, 2 * np.pi * 1e6, 2 * np.pi * 5e5),
    ((0, 2, J), (0, 1, J), (1, 2, J)),
    coarse_grain_dt=default_coarse_grain_dt(BATH, W1),
)


def small_grid(**kw):
    defaults = dict(
        omega1_values=(0.8 * W1, W1),
        omegaD_values=(2 * np.pi * J,),
        tauc_values=(TAU_C,),
        chain=CHAIN3,
        bath=BATH,
    )
    defaults.update(kw)
    return GridSpec(**defaults)


class TestGridSpec:
    def test_row_major_point_order(self):
        grid = small_grid(
            omega1_values=(1.0, 2.0), omegaD_values=(10.0, 20.0), tauc_values=(1e-7, 2e-7)
        )
        pts = list(grid.points())
        assert pts[0] == (1.0, 10.0, 1e-7)
        assert pts[1] == (1.0, 10.0, 2e-7)
        assert pts[2] == (1.0, 20.0, 1e-7)
        assert pts[-1] == (2.0, 20.0, 2e-7)

    @pytest.mark.parametrize("field, values", [
        ("omega1_values", ()),
        ("omega1_values", (2.0, 1.0)),
        ("tauc_values", (-1e-7,)),
        # a pulse of pi/inf = 0 s would be skipped and the point read ok
        ("omega1_values", (W1, np.inf)),
        ("omegaD_values", (np.nan,)),
        ("tauc_values", (-np.inf,)),
    ], ids=["empty", "decreasing", "negative", "inf", "nan", "-inf"])
    def test_axis_validation(self, field, values):
        with pytest.raises(ValueError, match=field):
            small_grid(**{field: values})


class TestRunSweep:
    def test_degenerate_grid_matches_direct_call(self):
        grid = small_grid(omega1_values=(W1,))
        records = run_sweep(grid, workers=1)
        assert len(records) == 1
        rep = evaluate_point(CHAIN3, BATH, W1, 2 * np.pi * J, TAU_C)
        assert records[0].fidelity == rep.fidelity
        assert records[0].concurrence_23 == rep.concurrence_23
        assert records[0].efficiency == rep.efficiency
        assert records[0].status == "ok"

    def test_parallel_serial_equivalence(self):
        grid = small_grid()
        serial = run_sweep(grid, workers=1)
        parallel = run_sweep(grid, workers=2)
        assert format_table(serial) == format_table(parallel)
        for a, b in zip(serial, parallel):
            assert a.fidelity == b.fidelity

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(max_examples=4, deadline=None)
    @given(shape=st.sampled_from([(1, 1), (2, 1), (3, 1), (1, 2), (1, 3)]),
           omega1_scale=st.floats(0.2, 5.0), wse_tauc=st.floats(0.005, 0.5),
           step=st.floats(1.1, 3.0))
    def test_any_worker_count_gives_the_same_records(self, shape, omega1_scale,
                                                     wse_tauc, step):
        # with every cache emptied first, each forked pool worker builds its
        # own Pauli basis, operator tables, unit operators, segment transfer
        # matrices, generator shapes, block patterns and window
        # propagators; the records must not notice
        n_w1, n_tc = shape
        grid = small_grid(
            omega1_values=tuple(omega1_scale * W1 * step**k for k in range(n_w1)),
            tauc_values=tuple(wse_tauc / WSE * step**k for k in range(n_tc)),
        )
        clear_package_caches()
        parallel = run_sweep(grid, workers=2)
        serial = run_sweep(grid, workers=1)
        # repr keeps NaN fields comparable and every float exact
        assert ([repr(replace(r, wall_time=0.0)) for r in serial]
                == [repr(replace(r, wall_time=0.0)) for r in parallel])

    def test_cache_helper_finds_every_cache(self):
        assert {evolve._propagator, master._cached_polynomial,
                sequences.segment_transfer, linalg._block_cells} <= package_caches()

    def test_starts_at_most_one_worker_per_point(self, monkeypatch):
        # the pool starts every worker it is asked for up front; a fake
        # pool records the request and maps in this process
        requested = []

        class RecordingPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", RecordingPool)
        grid = small_grid()
        assert len(list(grid.points())) == 2
        assert len(run_sweep(grid, workers=10_000)) == 2
        assert requested == [2]
        # one point runs serially, with no pool at all
        run_sweep(small_grid(omega1_values=(W1,)), workers=3)
        assert requested == [2]

    def test_records_carry_the_transfer_time(self):
        # the protocol's duration at each point's omega_1 and J, from any
        # worker count
        grid = small_grid()
        chain = replace(CHAIN3, couplings=tuple(
            (a, b, grid.omegaD_values[0] / (2 * np.pi), r) for a, b, _, r in CHAIN3.couplings))
        want = [transport_protocol(chain, w1).total_duration
                for w1 in grid.omega1_values]
        assert want[0] != want[1]
        for workers in (1, 2):
            records = run_sweep(grid, workers=workers)
            assert [r.transfer_time_s for r in records] == want
        assert summary_dict(records)["records"][1]["transfer_time_s"] == want[1]

    def test_removing_a_point_removes_only_that_record(self):
        full = run_sweep(small_grid(), workers=1)
        reduced = run_sweep(small_grid(omega1_values=(W1,)), workers=1)
        assert len(full) == 2 and len(reduced) == 1
        assert format_table([full[1]]) == format_table(reduced)

    def test_failure_containment(self):
        # a chain without the 1-3 coupling makes the protocol builder raise;
        # the sweep must mark the point rather than die
        chain = resolved_chain(CHAIN3.larmor, ((0, 1, J),))
        grid = small_grid(chain=chain)
        records = run_sweep(grid, workers=1)
        assert len(records) == 2
        assert all(r.status.startswith("failed(") for r in records)
        assert all("spins 1 and 3" in r.error for r in records)
        assert all(np.isnan(r.fidelity) for r in records)
        assert all(np.isnan(r.transfer_time_s) for r in records)

    def test_scaled_columns(self):
        records = run_sweep(small_grid(omega1_values=(W1,)), workers=1)
        r = records[0]
        np.testing.assert_allclose(r.omega1_scaled, W1 / WSE)
        np.testing.assert_allclose(r.tauc_scaled, TAU_C * WSE)

    def test_ratio_columns_are_nan_without_omega_se(self):
        # omega / omega_SE has no value at omega_SE = 0; raw rad/s under a
        # ratio's name would read as a ratio
        (r,) = run_sweep(small_grid(omega1_values=(W1,), bath=BathSpec(0.0, tau_c=TAU_C)),
                         workers=1)
        assert r.status == "ok"
        assert np.isnan(r.omega1_scaled) and np.isnan(r.omegaD_scaled)
        assert r.tauc_scaled == 0.0


class TestArgmax:
    def _rec(self, fid, w1=1.0, tc=1.0, wd=1.0):
        return SweepRecord(w1, wd, tc, 0, 0, 0, fid, 0.0, 0.0, "ok", 0.0)

    def test_single_record(self):
        r = self._rec(0.5)
        assert argmax_report([r]) is r

    def test_tie_breaks_to_smaller_omega1_then_tauc(self):
        a = self._rec(0.5, w1=1.0, tc=2.0)
        b = self._rec(0.5, w1=2.0, tc=1.0)
        c = self._rec(0.5, w1=1.0, tc=1.0)
        assert argmax_report([a, b, c]) is c
        assert argmax_report([a, b]) is a

    def test_failed_records_ignored(self):
        bad = SweepRecord(1, 1, 1, 0, 0, 0, float("nan"), 0, 0, "failed(X)", 0.0)
        good = self._rec(0.1)
        assert argmax_report([bad, good]) is good
        with pytest.raises(ValueError):
            argmax_report([bad])


class TestTable:
    def test_header_and_shape(self):
        records = run_sweep(small_grid(), workers=1)
        table = format_table(records)
        lines = table.strip().split("\n")
        assert lines[0] == (
            "omega1_rad_s, omegaD_rad_s, tauc_s, omega1_over_omegaSE, "
            "omegaD_over_omegaSE, tauc_times_omegaSE, fidelity, concurrence_23, "
            "efficiency, status"
        )
        assert len(lines) == 3
        assert lines[1].endswith(", ok")
        # fidelity column parses back to the record value at 12 digits
        fid = float(lines[1].split(", ")[6])
        np.testing.assert_allclose(fid, records[0].fidelity, rtol=1e-11)

    def test_summary_contains_argmax_and_config(self):
        records = run_sweep(small_grid(), workers=1)
        s = summary_dict(records, {"tag": "unit-test"})
        assert s["config"] == {"tag": "unit-test"}
        assert s["argmax"]["fidelity"] == max(r.fidelity for r in records)
        assert len(s["records"]) == 2
