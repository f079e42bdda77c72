"""Regenerate reference.json: the program's outputs at every lattice point.

    python3 perfbench/make_reference.py

Runs one `simulate` per fig2 lattice point and, serially, one fig2 sweep
over the omega_1 x omega_D lattice and one fig3 sweep over the omega_1 x
tau_c lattice, through the CLI.  Stores fidelity, concurrence_23,
efficiency and status per point; a point that fails is stored with its
failed status and listed in failed_at_generation.  The committed file was made at the commit that
introduced the benchmark; make it again only when the program's results are
meant to change.
"""

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import spinswap.cli as cli  # noqa: E402


def _cli(argv) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(argv)
    if rc != 0:
        print(f"exit {rc} from {argv}: {sink.getvalue()}", file=sys.stderr)
    return rc


def _entry(status, values=None) -> dict:
    return {"status": status,
            **{k: values[k] if values else math.nan for k in bench.VALUES}}


def main() -> int:
    points = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        tmp = Path(tmp)
        config, out = tmp / "config.json", tmp / "out"
        sweeps = [
            bench.sweep_op(range(len(bench.OMEGA1)), range(len(bench.OMEGAD))),
            bench.sweep_fig3_op(range(len(bench.OMEGA1)), range(len(bench.TAUCS))),
        ]
        simulates = [bench.simulate_op(i, j) for i in range(len(bench.OMEGA1))
                     for j in range(len(bench.OMEGAD))]
        for op in simulates + sweeps:
            shutil.rmtree(out, ignore_errors=True)
            config.write_text(json.dumps(op.config))
            argv = [op.command, "--config", str(config), "--out", str(out)]
            rc = _cli(argv + (["--workers", "1"] if op.command == "sweep" else []))
            if op.command == "simulate":
                points[op.keys[0]] = (
                    _entry("ok", json.loads((out / "report.json").read_text()))
                    if rc == 0 else _entry(f"failed(exit {rc})"))
                continue
            records = json.loads((out / "sweep_summary.json").read_text())["records"]
            for key, rec in zip(op.keys, records, strict=True):
                points[key] = _entry(rec["status"], rec)
    failed = sorted(k for k, v in points.items() if v["status"] != "ok")
    doc = {
        "environment": bench.environment(),
        "tolerance": bench.TOL,
        "failed_at_generation": failed,
        "points": points,
    }
    bench.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{len(points)} points, {len(failed)} not ok -> {bench.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
