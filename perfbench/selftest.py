"""Self-test of the spinswap benchmark.

    python3 perfbench/selftest.py

Checks that every workload runs at a tiny size and reports every metric
named in BENCHMARK.json with its unit; that a perturbed reference value is
caught; that two seeds give different, valid configurations; that the
window counts at the fig2 and fig3 nominal points are the documented ones;
and that tracing survives a missing entry point and restores every wrapped
attribute.  Exits non-zero on the first failed check.
"""

import contextlib
import copy
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import spinswap.cli as cli  # noqa: E402
from tracing import ENTRY_POINTS, Tracer  # noqa: E402

# fig2 and fig3 nominal points: windows, generator windows, distinct
# generators, distinct exponentials, trajectory samples
NOMINAL_COUNTS = {"fig2": (32, 16, 9, 11, 817), "fig3": (16, 10, 3, 4, 507)}


def check(cond, message: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok   {message}")


def spec_units(section: str) -> dict:
    doc = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def test_tiny_runs() -> None:
    reference = bench.load_reference()
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        units = spec_units(section)
        for name in bench.WORKLOADS:
            result, detail = bench.run_workload(name, 1, 0, trace, tiny=True,
                                                reference=reference)
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{name} trace={int(trace)} runs and is correct: "
                  f"{result['attempted']} points")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            check(got == units, f"{name} trace={int(trace)} reports every {section} metric with its unit")
            for key, m in result["metrics"].items():
                print(f"       {key:34s} {m['value']:.6g} {m['unit']}")
            check("cores" in detail["env"] and "threads" in detail["env"]["blas"],
                  f"{name} trace={int(trace)} carries the environment record")
            if not trace:
                check(len(detail["setup_samples_s"]) == bench.SETUP_REPEATS,
                      f"{name} takes {bench.SETUP_REPEATS} set-up samples")


def test_perturbed_reference() -> None:
    reference = copy.deepcopy(bench.load_reference())
    for entry in reference.values():
        entry["fidelity"] += 1e-9
    for name in bench.WORKLOADS:
        result, detail = bench.run_workload(name, 1, 0, False, tiny=True,
                                            reference=reference)
        check(not result["correct"] and detail["failed_frac"] > 0,
              f"{name}: a reference perturbed by 1e-9 gives failed_frac "
              f"{detail['failed_frac']}")


def test_seeds() -> None:
    with tempfile.TemporaryDirectory(dir=bench.ROOT) as tmp:
        for name in bench.WORKLOADS:
            first = [next(bench.draw_ops(name, seed)) for seed in (1, 2)]
            check(first[0].config != first[1].config,
                  f"{name}: seeds 1 and 2 give different configurations")
            check(first[0].config == next(bench.draw_ops(name, 1)).config,
                  f"{name}: a seed always gives the same configuration")
            for op in first:
                path = Path(tmp) / "config.json"
                path.write_text(json.dumps(op.config))
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(["validate", "--config", str(path)])
                in_range = all(
                    w1 in bench.OMEGA1 and wd in bench.OMEGAD and tc in bench.TAUCS
                    for w1, wd, tc in op.grid)
                check(rc == 0 and in_range,
                      f"{name}: configuration validates, {len(op.grid)} points in range")


def test_nominal_counts() -> None:
    with tempfile.TemporaryDirectory(dir=bench.ROOT) as tmp:
        for preset, expected in NOMINAL_COUNTS.items():
            tracer = Tracer()
            with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["simulate", "--preset", preset, "--out", tmp])
            c = tracer.counts
            got = (c["windows"], c["generator_windows"], c["distinct_generators"],
                   c["distinct_exponentials"], c["samples"])
            check(rc == 0 and got == expected,
                  f"{preset} nominal windows/generator/distinct/exponentials/samples = {got}")
            assembles = tracer.totals()["master.assemble"]["calls"]
            check(assembles == c["linalg.expm.matrices"] == 2 * expected[1],
                  f"{preset} nominal: {assembles} assemble and expm calls, "
                  f"{assembles / expected[2]:.2f} per distinct generator")


def _bindings() -> dict:
    return {(name, key): id(value) for name, mod in list(sys.modules.items())
            if name.partition(".")[0] == "spinswap"
            for key, value in vars(mod).items() if not key.startswith("__")}


def test_tracer_robustness() -> None:
    before = _bindings()
    points = ENTRY_POINTS + (
        ("spinswap.evolve", "renamed_away", "evolve.gone"),
        ("spinswap.no_such_module", "run", "gone.module"),
    )
    tracer = Tracer(points)
    with tempfile.TemporaryDirectory(dir=bench.ROOT) as tmp:
        with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
            replaced = _bindings() != before
            rc = cli.main(["simulate", "--preset", "fig3", "--out", tmp])
    check(replaced, "tracing replaces the entry points")
    totals = tracer.totals()
    check(rc == 0 and "evolve.gone" not in totals and "gone.module" not in totals
          and tracer.missing == ["spinswap.evolve.renamed_away",
                                 "spinswap.no_such_module.run"],
          "missing entry points are listed and yield no spans")
    check(_bindings() == before, "every wrapped attribute is restored")


def main() -> int:
    test_seeds()
    test_nominal_counts()
    test_tracer_robustness()
    test_perturbed_reference()
    test_tiny_runs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
