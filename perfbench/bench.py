"""Workloads, correctness checks and metrics of the spinswap benchmark.

Each workload runs the program as a user would: the benchmark writes a JSON
configuration and calls `spinswap.cli.main([...])` in-process with `sweep`
or `simulate`, then checks every output against `reference.json`.

Inputs come from the workload seed.  Parameter values are drawn from fixed
lattices inside the preset ranges (omega_1 over 2pi x [10 kHz, 10 MHz],
omega_D and tau_c around the preset values), so the stored reference, made
once by make_reference.py, covers every point any seed can draw.

The benchmark sets no BLAS or OpenMP thread variable: choosing threads is
the program's job.  It records the core count and the BLAS thread count
with every result instead.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"

TOL = 1e-12  # metric agreement allowed for reordered floating-point operations
TRAJ_TOL = 1e-11  # trajectory.txt prints 12 significant digits
SETUP_REPEATS = 11  # set-up samples per untraced run, spread over the run
# setup_s is the lower quartile of the samples.  The machine's speed changes
# in phases of seconds, which makes set-up samples bimodal; their median
# jumps between the modes from run to run, their lower quartile does not.
CHILD_TIMEOUT_S = 120
TRACE_SHARE = 1 / 4  # share of --seconds the traced run spends on its first pass
VALUES = ("fidelity", "concurrence_23", "efficiency")

TWO_PI = 2 * math.pi
OMEGA1 = tuple(TWO_PI * 1e4 * 10 ** (3 * k / 24) for k in range(25))  # rad/s
OMEGAD = tuple(TWO_PI * 1e3 * f for f in (75, 100, 125, 150, 175, 200, 250, 300))
TAUC = 0.1 / (TWO_PI * 1e5)  # s; omega_SE tau_c = 0.1 as in the presets
TAUCS = tuple(TAUC * f for f in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0))  # s
OMEGAD_FIG3 = OMEGAD[3]  # 2pi x 150 kHz, the fig3 preset value
# A sweep takes one omega_1 from each third of its lattice and one omega_D
# (fig2) or tau_c (fig3) from each half, so that every sweep spans the
# ranges and the cost of a run varies little with the seed.
OMEGA1_STRATA = (range(0, 8), range(8, 16), range(16, 25))
OMEGAD_STRATA = (range(0, 4), range(4, 8))
TAUC_STRATA = (range(0, 3), range(3, 6))

LARMOR = {
    "fig2": ("2*pi*10000 kHz", "2*pi*1000 kHz", "2*pi*500 kHz"),
    "fig3": ("2*pi*10000 kHz", "2*pi*1000 kHz", "2*pi*10000 kHz"),
}
GEOMETRY = {"fig2": "z-chain", "fig3": "x-chain"}
PAIRS = ((0, 2), (0, 1), (1, 2))
COARSE_GRAIN_DT = "4.109362960409999e-7 s"  # pinned as in the presets


@dataclass(frozen=True)
class Workload:
    command: str  # CLI subcommand
    chain: str  # preset whose chain it uses
    # --workers of the traced run's first pass, which gives sweep.pool_wait_s.
    # Timed end-to-end runs are serial: with a pool, each worker's BLAS
    # threads contend for the same cores, and per-point times then measure
    # the host's scheduler more than the program.
    pool_workers: int = 1


# Why each workload exists is in BENCHMARK.json.
WORKLOADS = {
    "sweep-nonidentical": Workload("sweep", "fig2"),
    "sweep-identical": Workload("sweep", "fig3", pool_workers=2),
    "simulate-trajectory": Workload("simulate", "fig2"),
}


@dataclass
class Op:
    """One CLI invocation and the outputs it must reproduce."""

    command: str
    config: dict
    keys: list  # reference keys, in output order
    grid: list  # (omega1, omegaD, tauc) per point, in output order
    path: Path | None = None


@dataclass
class Phase:
    """Outcome of running a list of operations."""

    ops: list = field(default_factory=list)
    setup: list = field(default_factory=list)  # set-up samples, seconds
    walls: list = field(default_factory=list)  # wall time of each CLI call
    cpus: list = field(default_factory=list)  # CPU time of each CLI call
    sizes: list = field(default_factory=list)  # points of each CLI call
    points: int = 0
    latencies: list = field(default_factory=list)
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.walls)


def _q(value: float, unit: str) -> str:
    return f"{value!r} {unit}"


def ref_key(command: str, i: int, j: int) -> str:
    return f"{command}/{i},{j}"


def config_doc(chain: str, omega1: str, j_hz: str, grid: dict | None = None) -> dict:
    doc = {
        "chain": {
            "larmor": list(LARMOR[chain]),
            "couplings": [{"pair": list(p), "j": j_hz} for p in PAIRS],
            "geometry": GEOMETRY[chain],
        },
        "bath": {"omega_se": "2*pi*100 kHz", "tau_c": _q(TAUC, "s")},
        "drive": {"omega1": omega1},
        "regime": {"mode": "auto", "coarse_grain_dt": COARSE_GRAIN_DT},
        "protocol": "transport",
        "refocusing": True,
        "workers": 1,
    }
    if grid is not None:
        doc["grid"] = grid
    return doc


def sweep_op(iw, jd) -> Op:
    """fig2 sweep over lattice indices iw (omega_1) x jd (omega_D)."""
    grid = {
        "omega1": [_q(OMEGA1[i], "rad/s") for i in iw],
        "omegaD": [_q(OMEGAD[j], "rad/s") for j in jd],
        "tau_c": [_q(TAUC, "s")],
        "scale_to_omega_se": True,
    }
    idx = list(itertools.product(iw, jd))  # the CLI's row-major order
    return Op(
        "sweep",
        config_doc("fig2", "2*pi*150 kHz", "150 kHz", grid),
        [ref_key("sweep", i, j) for i, j in idx],
        [(OMEGA1[i], OMEGAD[j], TAUC) for i, j in idx],
    )


def sweep_fig3_op(iw, kt) -> Op:
    """fig3 sweep over lattice indices iw (omega_1) x kt (tau_c)."""
    grid = {
        "omega1": [_q(OMEGA1[i], "rad/s") for i in iw],
        "omegaD": [_q(OMEGAD_FIG3, "rad/s")],
        "tau_c": [_q(TAUCS[k], "s") for k in kt],
        "scale_to_omega_se": True,
    }
    idx = list(itertools.product(iw, kt))
    return Op(
        "sweep",
        config_doc("fig3", "2*pi*150 kHz", "150 kHz", grid),
        [ref_key("sweep-fig3", i, k) for i, k in idx],
        [(OMEGA1[i], OMEGAD_FIG3, TAUCS[k]) for i, k in idx],
    )


def simulate_op(i: int, j: int) -> Op:
    return Op(
        "simulate",
        config_doc("fig2", _q(OMEGA1[i], "rad/s"), _q(OMEGAD[j] / TWO_PI, "Hz")),
        [ref_key("simulate", i, j)],
        [(OMEGA1[i], OMEGAD[j], TAUC)],
    )


def draw_ops(name: str, seed: int, tiny: bool = False):
    """Endless, seed-determined sequence of operations for a workload.

    tiny keeps one omega_1 per sweep (two points) for the self-test; it
    draws the same random numbers, so the sequence is otherwise unchanged.
    """
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    for n in itertools.count():
        if wl.command == "simulate":
            i = rng.choice(OMEGA1_STRATA[n % len(OMEGA1_STRATA)])
            yield simulate_op(i, rng.randrange(len(OMEGAD)))
            continue
        iw = [rng.choice(s) for s in OMEGA1_STRATA]
        iw = iw[:1] if tiny else iw
        if wl.chain == "fig3":
            yield sweep_fig3_op(iw, [rng.choice(s) for s in TAUC_STRATA])
        else:
            yield sweep_op(iw, [rng.choice(s) for s in OMEGAD_STRATA])


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["points"]


def compare(status, values: dict, ref: dict | None) -> str | None:
    """Why a point's outputs are wrong, or None when they match."""
    if str(status).startswith("failed("):
        return f"status {status}"
    if ref is None:
        return "no reference value"
    for name in VALUES:
        got, want = values.get(name), ref[name]
        if not (isinstance(got, (int, float)) and math.isfinite(got)
                and abs(got - want) <= TOL):
            return f"{name} {got!r} differs from reference {want!r}"
    return None


def _last_line(path: Path) -> str:
    with open(path, "rb") as fh:
        fh.seek(0, os.SEEK_END)
        fh.seek(max(0, fh.tell() - 65536))
        return fh.read().decode().strip().splitlines()[-1]


class Runner:
    """Runs operations through the CLI and checks what they wrote."""

    def __init__(self, workdir: Path, reference: dict):
        import spinswap.cli

        self.cli = spinswap.cli
        self.workdir = workdir
        self.reference = reference
        self.out = workdir / "out"
        self._written = 0

    def write_config(self, op: Op) -> None:
        if op.path is None:
            op.path = self.workdir / f"config-{self._written}.json"
            self._written += 1
            op.path.write_text(json.dumps(op.config, indent=1))

    def argv(self, op: Op, workers: int) -> list:
        argv = [op.command, "--config", str(op.path), "--out", str(self.out)]
        if op.command == "sweep":
            argv += ["--workers", str(workers)]
        return argv

    def run(self, op: Op, workers: int, phase: Phase) -> None:
        self.write_config(op)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            rc = self.cli.main(self.argv(op, workers))
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - cpu0
        if op.command == "sweep":
            latencies, problems = self._check_sweep(op)
        else:
            latencies, problems = [wall], self._check_simulate(op, rc)
        shutil.rmtree(self.out, ignore_errors=True)
        if latencies is None:  # no per-point times: charge the call evenly
            latencies = [wall / len(op.keys)] * len(op.keys)
        phase.ops.append(op)
        phase.points += len(op.keys)
        phase.sizes.append(len(op.keys))
        phase.walls.append(wall)
        phase.cpus.append(cpu)
        phase.latencies += latencies
        bad = [(k, p) for k, p in zip(op.keys, problems) if p is not None]
        phase.failed += len(bad)
        phase.problems += [f"{k}: {p}" for k, p in bad]
        if bad and rc != 0:
            phase.problems.append(f"exit {rc}: {sink.getvalue().strip()[-500:]}")

    def _check_sweep(self, op: Op):
        try:
            summary = json.loads((self.out / "sweep_summary.json").read_text())
            records = summary["records"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return None, [f"no sweep summary ({exc})"] * len(op.keys)
        if len(records) != len(op.keys):
            return None, [f"{len(records)} records for {len(op.keys)} points"] * len(op.keys)
        latencies, problems = [], []
        for rec, key, expect in zip(records, op.keys, op.grid):
            got = (rec.get("omega1"), rec.get("omegaD"), rec.get("tauc"))
            if got != expect:
                problems.append(f"grid point {got} where {expect} was configured")
            else:
                problems.append(compare(rec.get("status"), rec, self.reference.get(key)))
            if isinstance(rec.get("wall_time"), (int, float)):
                latencies.append(rec["wall_time"])
        return latencies or None, problems

    def _check_simulate(self, op: Op, rc: int):
        try:
            rep = json.loads((self.out / "report.json").read_text())
            last = float(_last_line(self.out / "trajectory.txt").split(",")[-1])
        except (OSError, ValueError, IndexError) as exc:
            return [f"exit {rc}, outputs unreadable ({exc})"]
        problem = compare("ok" if rc == 0 else f"failed(exit {rc})", rep,
                          self.reference.get(op.keys[0]))
        if problem is None and abs(last - rep["fidelity"]) > TRAJ_TOL:
            problem = (f"last trajectory fidelity {last!r} differs from "
                       f"report {rep['fidelity']!r}")
        return [problem]


def measure(runner: Runner, ops, seconds: float, workers: int,
            setup_config: Path | None = None) -> Phase:
    """Run operations for about `seconds` (at least one operation).

    The next operation starts only if it is expected to end less than half
    an operation past the deadline, so runs overshoot little on average.
    With `setup_config`, SETUP_REPEATS set-up samples are taken between
    operations, each when it falls due on an even schedule over the run, so
    that they see the same machine as the operations.  Their time, and the
    expected time of those still due, counts against the deadline.
    """
    phase = Phase()
    t0 = time.perf_counter()
    t_end = t0 + seconds
    due = ([t0 + k * seconds / SETUP_REPEATS for k in range(SETUP_REPEATS)]
           if setup_config is not None else [])

    def take_setup(until: float) -> None:
        while due and due[0] <= until:
            due.pop(0)
            phase.setup.append(setup_sample(setup_config))

    for op in ops:
        take_setup(time.perf_counter())
        runner.run(op, workers, phase)
        pending = len(due) * statistics.mean(phase.setup) if due else 0.0
        if time.perf_counter() + pending + 0.5 * phase.wall / len(phase.ops) >= t_end:
            break
    take_setup(math.inf)
    return phase


def tail(samples) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, but never below the median; the maximum when there
    are ten samples or fewer."""
    s = sorted(samples)
    rank = max(len(s) - 11, len(s) // 2) if len(s) > 10 else len(s) - 1
    return s[rank], 100.0 * (rank + 1) / len(s)


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    kib = max(resource.getrusage(w).ru_maxrss
              for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib * 1024 / 1e6


def setup_sample(config: Path) -> float:
    """Seconds a fresh interpreter takes to import the program and load
    `config`, measured in a child process."""
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(config)], capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def blas_info() -> dict:
    """BLAS library and thread count, read without changing them."""
    info = {"library": None, "threads": None,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    libs = sorted({ln.split()[-1] for ln in maps.splitlines()
                   if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info.update(library=os.path.basename(path), threads=int(fn()))
                return info
    value = info["OPENBLAS_NUM_THREADS"]
    if value and value.isdigit():
        info["threads"] = int(value)
    return info


def git_commit() -> str | None:
    """HEAD commit read from the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


@contextlib.contextmanager
def workdir(name: str):
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def end_to_end(name: str, seed: int, seconds: float, tiny: bool,
               reference: dict) -> tuple[dict, dict]:
    ops = draw_ops(name, seed, tiny)
    with workdir(name) as wd:
        runner = Runner(wd, reference)
        first = next(ops)
        runner.write_config(first)
        phase = measure(runner, itertools.chain([first], ops), seconds, 1,
                        setup_config=first.path)
    tail_s, tail_pct = tail(phase.latencies)
    metrics = {
        "setup_s": (statistics.quantiles(phase.setup, n=4)[0], "s"),
        # Medians over CLI calls, so that a call slowed by the machine
        # moves a run's figure less than a mean would.
        "points_per_s": (statistics.median(
            n / w for n, w in zip(phase.sizes, phase.walls)), "1/s"),
        "point_p50_s": (statistics.median(phase.latencies), "s"),
        "point_tail_s": (tail_s, "s"),
        "cpu_per_op_s": (statistics.median(
            c / n for n, c in zip(phase.sizes, phase.cpus)), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    named = {"failed_frac": (phase.failed / phase.points, "ratio")}
    if WORKLOADS[name].command == "simulate":
        named["simulate_p50_s"] = metrics["point_p50_s"]
        named["simulate_tail_s"] = metrics["point_tail_s"]
    detail = {
        "ops": len(phase.ops),
        "op_walls_s": phase.walls,
        "latency_samples": len(phase.latencies),
        "tail_percentile": round(tail_pct, 1),
        "setup_samples_s": phase.setup,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
    }
    return {"phase": phase, "metrics": metrics}, detail


def per_layer(name: str, seed: int, seconds: float, tiny: bool,
              reference: dict, env: dict) -> tuple[dict, dict]:
    """Three passes over the same operations: untraced with the workload's
    pool workers (it picks the operations, warms up and gives the pool wait),
    then traced and untraced (the overhead baseline), alternating operation
    by operation so that drift of the machine's speed cancels.  The last
    two run serially, so that all spans stay in one process."""
    from tracing import Tracer

    wl = WORKLOADS[name]
    with workdir(name) as wd:
        runner = Runner(wd, reference)
        first = measure(runner, draw_ops(name, seed, tiny), seconds * TRACE_SHARE,
                        wl.pool_workers)
        tracer = Tracer()
        traced, serial = Phase(), Phase()
        for op in first.ops:
            with tracer.installed():
                runner.run(op, 1, traced)
            runner.run(op, 1, serial)
    WORK.mkdir(exist_ok=True)
    trace_path = WORK / f"trace-{name}-seed{seed}.json"
    tracer.write(trace_path)

    totals, counts = tracer.totals(), tracer.counts
    pts = traced.points

    def self_s(span):
        return totals.get(span, {}).get("self_s", 0.0) / pts

    def mean_incl(span):
        t = totals.get(span)
        return t["incl_s"] / t["calls"] if t else 0.0

    distinct = counts["distinct_generators"]
    assembles = totals.get("master.assemble", {}).get("calls", 0)
    expms = counts["linalg.expm.matrices"]
    pool_wait = 0.0
    if wl.command == "sweep":
        pool_wait = (first.wall - sum(first.latencies) / wl.pool_workers) / first.points
    metrics = {
        "config.load_s": (mean_incl("config.load"), "s"),
        "sequences.protocol_s": (self_s("sequences.protocol"), "s"),
        "sequences.compile_s": (self_s("sequences.compile"), "s"),
        "sequences.windows": (counts["windows"] / pts, "count"),
        "sequences.generator_windows": (counts["generator_windows"] / pts, "count"),
        "sequences.distinct_generators": (distinct / pts, "count"),
        "sequences.distinct_exponentials": (counts["distinct_exponentials"] / pts, "count"),
        "master.assemble_calls": (assembles / pts, "count"),
        "master.assemble_s": (self_s("master.assemble"), "s"),
        "master.assemble_per_distinct": (assembles / distinct if distinct else 0.0, "ratio"),
        "linalg.expm_calls": (expms / pts, "count"),
        "linalg.expm_s": (self_s("linalg.expm"), "s"),
        "linalg.expm_per_distinct": (expms / distinct if distinct else 0.0, "ratio"),
        "evolve.total_superop_s": (self_s("evolve.total_superop"), "s"),
        "evolve.propagate_s": (self_s("evolve.propagate"), "s"),
        "evolve.samples": (counts["samples"] / pts, "count"),
        "evolve.export_s": (self_s("evolve.export"), "s"),
        "metrics.report_s": (self_s("metrics.report"), "s"),
        "metrics.pair_channel_s": (self_s("metrics.pair_channel"), "s"),
        "cli.write_s": (self_s("cli.command"), "s"),
        "sweep.point_s": (mean_incl("sweep.point"), "s"),
        "sweep.pool_wait_s": (pool_wait, "s"),
        "trace.overhead_s": ((traced.wall - serial.wall) / pts, "s"),
        "env.cores": (env["cores"], "count"),
        "env.blas_threads": (env["blas"]["threads"] or 0, "count"),
    }
    phase = Phase()
    for p in (first, traced, serial):
        phase.points += p.points
        phase.failed += p.failed
        phase.problems += p.problems
    detail = {
        "ops": len(first.ops),
        "traced_points": pts,
        "trace_file": str(trace_path.relative_to(ROOT)),
        "missing_entry_points": tracer.missing,
        "hook_errors": dict(tracer.hook_errors),
        "untraced_serial_wall_s": serial.wall,
        "traced_wall_s": traced.wall,
        "spans": {k: {"calls": v["calls"], "self_s": v["self_s"]} for k, v in totals.items()},
    }
    return {"phase": phase, "metrics": metrics}, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, reference: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; return the result object and a detail record."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    reference = load_reference() if reference is None else reference
    env = environment()
    fn = per_layer if trace else end_to_end
    args = (name, seed, seconds, tiny, reference) + ((env,) if trace else ())
    out, detail = fn(*args)
    phase = out["phase"]
    result = {
        "correct": phase.failed == 0,
        "attempted": phase.points,
        "failed": phase.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }
    detail.update(workload=name, seed=seed, seconds=seconds, trace=int(trace),
                  env=env, failed_frac=phase.failed / phase.points,
                  problems=phase.problems[:20])
    return result, detail
