"""Child process of the spinswap benchmark: one set-up sample.

    child.py CONFIG   time `import spinswap.cli` plus loading CONFIG

Prints the seconds taken as one JSON number on standard output.  The
program is imported from the `src` directory next to the benchmark's own
directory.
"""

import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def setup(config_path: str) -> float:
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import spinswap.cli  # noqa: F401  (the import is what is timed)
    from spinswap.config import load_config

    load_config(config_path)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(setup(sys.argv[1]))
