from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinswap.linalg as linalg
import spinswap.sequences as sequences
from spinswap.model import (
    BathSpec,
    ChainSpec,
    Regime,
    SecularMode,
    default_coarse_grain_dt,
)
from spinswap.sweep import (
    GridSpec,
    SweepRecord,
    TABLE_HEADER,
    argmax_report,
    evaluate_point,
    format_table,
    run_sweep,
    summary_dict,
)

J = 1.5e5
W1 = 2 * np.pi * 1.5e5
WSE = 2 * np.pi * 1.0e5
TAU_C = 0.1 / WSE
CHAIN3 = ChainSpec(
    (2 * np.pi * 1e7, 2 * np.pi * 1e6, 2 * np.pi * 5e5),
    ((0, 2, J), (0, 1, J), (1, 2, J)),
)
BATH = BathSpec(WSE, tau_c=TAU_C)
MODE = SecularMode(Regime.AUTO, default_coarse_grain_dt(BATH, W1))


def small_grid(**kw):
    defaults = dict(
        omega1_values=(0.8 * W1, W1),
        omegaD_values=(2 * np.pi * J,),
        tauc_values=(TAU_C,),
        chain=CHAIN3,
        bath=BATH,
        mode=MODE,
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

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            small_grid(omega1_values=())
        with pytest.raises(ValueError):
            small_grid(omega1_values=(2.0, 1.0))
        with pytest.raises(ValueError):
            small_grid(tauc_values=(-1e-7,))


class TestRunSweep:
    def test_degenerate_grid_matches_direct_call(self):
        grid = small_grid(omega1_values=(W1,))
        records = run_sweep(grid, workers=1)
        assert len(records) == 1
        rep = evaluate_point(CHAIN3, BATH, MODE, W1, 2 * np.pi * J, TAU_C)
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
        # with the caches emptied first, each pool worker builds its own
        # Pauli basis, operator table and segment transfer matrices; the
        # records must not notice
        n_w1, n_tc = shape
        grid = small_grid(
            omega1_values=tuple(omega1_scale * W1 * step**k for k in range(n_w1)),
            tauc_values=tuple(wse_tauc / WSE * step**k for k in range(n_tc)),
        )
        for cached in (linalg.site_operators, linalg.pauli_strings,
                       linalg._pauli_vec_basis, sequences.segment_unitary,
                       sequences.segment_transfer):
            cached.cache_clear()
        parallel = run_sweep(grid, workers=2)
        serial = run_sweep(grid, workers=1)
        # repr keeps NaN fields comparable and every float exact
        assert ([repr(replace(r, wall_time=0.0)) for r in serial]
                == [repr(replace(r, wall_time=0.0)) for r in parallel])

    def test_removing_a_point_removes_only_that_record(self):
        full = run_sweep(small_grid(), workers=1)
        reduced = run_sweep(small_grid(omega1_values=(W1,)), workers=1)
        assert len(full) == 2 and len(reduced) == 1
        assert format_table([full[1]]) == format_table(reduced)

    def test_failure_containment(self):
        # a chain without the 1-3 coupling makes the protocol builder raise;
        # the sweep must mark the point rather than die
        chain = ChainSpec(CHAIN3.larmor, ((0, 1, J),))
        grid = small_grid(chain=chain)
        records = run_sweep(grid, workers=1)
        assert len(records) == 2
        assert all(r.status.startswith("failed(") for r in records)
        assert all("spins 1 and 3" in r.error for r in records)
        assert all(np.isnan(r.fidelity) for r in records)

    def test_scaled_columns(self):
        records = run_sweep(small_grid(omega1_values=(W1,)), workers=1)
        r = records[0]
        np.testing.assert_allclose(r.omega1_scaled, W1 / WSE)
        np.testing.assert_allclose(r.tauc_scaled, TAU_C * WSE)


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
        assert lines[0] == TABLE_HEADER
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
