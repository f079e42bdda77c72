"""spinswap benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S]

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
carries the environment record and details.  `--workload all` runs every
workload in a fresh process, untraced, and prints each metric by name with
its unit.

The program is imported from the `src` directory beside this benchmark's
directory; without it the benchmark exits with status 2 and prints no
result.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _print_metrics(name: str, result: dict, detail: dict) -> None:
    rows = dict(result["metrics"])
    rows.update(detail.get("named", {}))
    print(f"# {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for key, m in rows.items():
        print(f"#   {key:34s} {m['value']:.6g} {m['unit']}")


def run_all(seed: int, seconds: int) -> int:
    from bench import WORKLOADS

    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"# {name}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            status = 1
            continue
        _print_metrics(name, json.loads(lines[-1]), json.loads(lines[-2])["detail"])
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spinswap" / "__init__.py").is_file():
        print(f"error: no spinswap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spinswap

    if Path(spinswap.__file__).resolve().parent != SRC / "spinswap":
        print(f"error: imported spinswap from {spinswap.__file__}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, int(args.seconds))

    from bench import run_workload

    result, detail = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    _print_metrics(args.workload, result, detail)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
