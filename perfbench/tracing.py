"""Per-layer spans and counts for the spinswap benchmark.

The program carries no instrumentation of its own.  `Tracer.installed()`
wraps the entry points listed in ENTRY_POINTS by attribute replacement,
inside the benchmark process only, and puts every original back when the
block ends.  Because the package imports names with `from .x import y`, a
function has one binding per importing module; each binding that is the
original object is replaced, so a call is recorded whichever module makes
it.

Every call records a span (name, start, end, parent span).  A span's self
time is its duration minus the durations of its child spans.  Entry points
that do not exist (renamed or removed by a later change) are listed in
`missing` and simply yield no spans, so their metrics read 0.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import importlib
import json
import sys
import time
from collections import Counter

# (module, attribute, span name).  The span name of linalg.expm depends on
# the argument: Liouville-space generators (64x64 for three spins) are the
# per-window exponentials, Hilbert-space ones (8x8) are unitary windows.
ENTRY_POINTS = (
    ("spinswap.config", "load_config", "config.load"),
    ("spinswap.config", "load_preset", "config.load"),
    ("spinswap.sequences", "transport_protocol", "sequences.protocol"),
    ("spinswap.sequences", "compile_program", "sequences.compile"),
    ("spinswap.master", "assemble", "master.assemble"),
    ("spinswap.linalg", "expm", "linalg.expm"),
    ("spinswap.evolve", "total_superoperator", "evolve.total_superop"),
    ("spinswap.evolve", "propagate", "evolve.propagate"),
    ("spinswap.evolve", "export_trajectory", "evolve.export"),
    ("spinswap.metrics", "report", "metrics.report"),
    ("spinswap.metrics", "pair_channel", "metrics.pair_channel"),
    ("spinswap.sweep", "run_sweep", "sweep.run"),
    ("spinswap.sweep", "evaluate_point", "sweep.point"),
    ("spinswap.cli", "cmd_sweep", "cli.command"),
    ("spinswap.cli", "cmd_simulate", "cli.command"),
)

LIOUVILLE_MIN_DIM = 16


def _expm_name(args) -> str:
    try:
        dim = args[0].shape[-1]
    except (IndexError, AttributeError):
        return "linalg.expm"
    return "linalg.expm" if dim >= LIOUVILLE_MIN_DIM else "linalg.expm_hilbert"


def _matrices(args) -> int:
    """Number of matrices in an expm argument (a batch counts each one)."""
    try:
        shape = args[0].shape
    except (IndexError, AttributeError):
        return 1
    n = 1
    for s in shape[:-2]:
        n *= int(s)
    return n


def _feed(obj, h) -> None:
    """Hash the structure and values of a generator description."""
    if hasattr(obj, "tobytes") and hasattr(obj, "shape"):
        h.update(f"A{obj.shape}{obj.dtype}".encode())
        h.update(obj.tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(getattr(obj, f.name), h)
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for item in obj:
            _feed(item, h)
        h.update(b")")
    else:
        h.update(repr(obj).encode())


def fingerprint(obj) -> str:
    """Digest of a window's generator: component operators, frequencies,
    flags and bath parameters.  Windows with equal digests share one
    Liouville generator."""
    h = hashlib.blake2b(digest_size=16)
    _feed(obj, h)
    return h.hexdigest()


def window_counts(windows) -> dict:
    """Windows, generator windows, distinct generators and distinct
    (generator, duration) exponentials of one compiled program."""
    windows = list(windows)
    gens = [w for w in windows if hasattr(w, "spec")]
    keys = [fingerprint(w.spec) for w in gens]
    return {
        "windows": len(windows),
        "generator_windows": len(gens),
        "distinct_generators": len(set(keys)),
        "distinct_exponentials": len(
            {(k, float(w.duration)) for k, w in zip(keys, gens)}
        ),
    }


class Tracer:
    """Spans and counts collected while `installed()` is active."""

    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = entry_points
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.hook_errors: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextlib.contextmanager
    def installed(self):
        try:
            self._install()
            yield self
        finally:
            self._restore()

    def _install(self) -> None:
        hooks = {
            "linalg.expm": self._after_expm,
            "sequences.compile": self._after_compile,
            "evolve.propagate": self._after_propagate,
        }
        for modname, attr, span in self.entry_points:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                mod = None
            original = getattr(mod, attr, None)
            if not callable(original):
                self.missing.append(f"{modname}.{attr}")
                continue
            name = _expm_name if span == "linalg.expm" else span
            wrapper = self._wrap(original, name, hooks.get(span))
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").partition(".")[0] != "spinswap":
                    continue
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patches.append((m, key, original))

    def _restore(self) -> None:
        while self._patches:
            mod, key, original = self._patches.pop()
            setattr(mod, key, original)

    def _wrap(self, fn, name, after):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            idx = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            spans[idx][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if after is not None:
                try:
                    after(label, args, result)
                except Exception:  # a changed return type must not stop the run
                    self.hook_errors[label] += 1
            return result

        return wrapper

    def _after_expm(self, label, args, result) -> None:
        self.counts[label + ".matrices"] += _matrices(args)

    def _after_compile(self, label, args, windows) -> None:
        self.counts.update(window_counts(windows))

    def _after_propagate(self, label, args, traj) -> None:
        self.counts["samples"] += len(traj.times)

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        dur = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        out: dict[str, dict] = {}
        for i, (name, _, _, _) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["incl_s"] += dur[i]
            t["self_s"] += dur[i] - child[i]
        return out

    def write(self, path) -> None:
        """Write the spans (times relative to the first span) as JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": names,
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[index[n], s - t0, e - t0, p] for n, s, e, p in self.spans],
            "counts": dict(self.counts),
            "missing": self.missing,
            "hook_errors": dict(self.hook_errors),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
