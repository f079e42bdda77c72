"""Run configuration: unit-checked quantities, validation, presets.

Configs are JSON documents in which every physical quantity is a string
carrying an explicit unit suffix, e.g. "2*pi*150 kHz" or "1.6e-7 s".
Angular frequencies follow the conventional notation where the 2*pi factor
is written out in the expression and the unit names the cycle scale, so
"2*pi*100 kHz" parses to 2*pi*1e5 rad/s.  Plain dipolar couplings J are
given in Hz without the 2*pi.  Bare numbers in quantity fields are
rejected: missing units are the likeliest silent-bug vector here.
Expressions are evaluated in floating point; overflow, division by zero
or a non-real value is a ConfigError naming the field.
"""

from __future__ import annotations

import ast
import contextlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .model import BathSpec, ChainSpec, Regime, default_coarse_grain_dt, resolve_regime
from .sequences import check_transport_chain
from .sweep import GridSpec

_UNIT_SCALES = {
    "angular_frequency": {"rad/s": 1.0, "Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9},
    "kappa": {"1/sqrt(s)": 1.0},
}

_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Load,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd,
)


class ConfigError(ValueError):
    """Configuration failed validation; message names the offending field."""


def _eval_expr(expr: str, where: str) -> float:
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"{where}: cannot parse expression {expr!r}") from exc
    try:
        for node in ast.walk(tree):
            if not isinstance(node, _ALLOWED_NODES):
                raise ConfigError(f"{where}: disallowed syntax in {expr!r}")
            if isinstance(node, ast.Name) and node.id != "pi":
                raise ConfigError(f"{where}: unknown name {node.id!r} in {expr!r}")
            if isinstance(node, ast.Constant):
                if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
                    raise ConfigError(f"{where}: non-numeric constant in {expr!r}")
                # float operands: ** overflows at once, never builds a huge integer
                node.value = float(node.value)
        value = eval(compile(tree, "<config>", "eval"), {"__builtins__": {}}, {"pi": math.pi})
    except ArithmeticError as exc:
        raise ConfigError(f"{where}: cannot evaluate {expr!r} ({type(exc).__name__})") from None
    if isinstance(value, complex):
        raise ConfigError(f"{where}: non-real value from {expr!r}")
    return value


def parse_quantity(text, kind: str, where: str) -> float:
    """Parse '<expression> <unit>' into base units (rad/s, Hz, s, ...)."""
    if not isinstance(text, str):
        raise ConfigError(
            f"{where}: expected a quantity string with an explicit unit, got {text!r}"
        )
    scales = _UNIT_SCALES[kind]
    parts = text.rsplit(None, 1)
    if len(parts) != 2 or parts[1] not in scales:
        units = ", ".join(sorted(scales))
        raise ConfigError(f"{where}: missing or unknown unit in {text!r} (expected one of: {units})")
    expr, unit = parts
    value = _eval_expr(expr, where) * scales[unit]
    if not np.isfinite(value):
        raise ConfigError(f"{where}: non-finite value from {text!r}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration.

    Every coupling of `chain` carries its resolved coupling form, and
    `grid.chain` is the same chain, so gate-check, simulate and every sweep
    point couple each pair alike.
    """

    chain: ChainSpec
    bath: BathSpec
    omega1: float  # rad/s
    refocusing: bool = True
    grid: GridSpec | None = None
    workers: int = 1
    echo: dict = field(default_factory=dict)

    def physics_echo(self) -> dict:
        """Config echo without the runtime-only field (workers)."""
        return {k: v for k, v in self.echo.items() if k != "workers"}


@contextlib.contextmanager
def _reading(where: str):
    """Read one part of a config, naming it in every error: a missing key
    becomes ConfigError "<where>: missing field <key>", and a TypeError or
    ValueError "<where>: <message>"; a ConfigError passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{where}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _section(value, where: str, fields: tuple[str, ...]) -> dict:
    """A config section, which must be a JSON object whose keys are all
    among `fields`: the first other key is ConfigError "<where>: unknown
    field <key>", raised before any key is read, so that a misspelt
    required key reads as unknown, not missing."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {value!r}")
    unknown = [key for key in value if key not in fields]
    if unknown:
        raise ConfigError(f"{where}: unknown field {unknown[0]!r}")
    return value


def _integer(value, where: str, minimum: int) -> int:
    """A JSON integer >= minimum; bools, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{where}: expected an integer >= {minimum}, got {value!r}")
    return value


def _parse_axis(doc, kind: str, where: str) -> tuple[float, ...]:
    """Grid axis: either a list of quantities or a log-spaced range spec."""
    if isinstance(doc, dict):
        _section(doc, where, ("log_points", "min", "max"))
        for key in ("log_points", "min", "max"):
            if key not in doc:
                raise ConfigError(f"{where}: range spec needs 'log_points', 'min', 'max'")
        n = _integer(doc["log_points"], f"{where}.log_points", 1)
        lo = parse_quantity(doc["min"], kind, f"{where}.min")
        hi = parse_quantity(doc["max"], kind, f"{where}.max")
        if lo <= 0 or hi <= lo:
            raise ConfigError(f"{where}: need 0 < min < max")
        return tuple(np.logspace(np.log10(lo), np.log10(hi), n))
    if isinstance(doc, list):
        return tuple(parse_quantity(v, kind, f"{where}[{i}]") for i, v in enumerate(doc))
    raise ConfigError(f"{where}: expected a list of quantities or a range spec")


def parse_config(doc: dict) -> RunConfig:
    """Validate and resolve a configuration document."""
    # description, seed and chain.geometry are echoed and select nothing
    _section(doc, "top level", ("description", "chain", "bath", "drive", "regime",
                                "protocol", "refocusing", "grid", "workers", "seed"))

    with _reading("chain"):
        chain_doc = _section(doc["chain"], "chain", ("larmor", "couplings", "geometry"))
        larmor = [
            parse_quantity(v, "angular_frequency", f"chain.larmor[{i}]")
            for i, v in enumerate(chain_doc["larmor"])
        ]
        couplings = []
        for i, c in enumerate(chain_doc.get("couplings", [])):
            where = f"chain.couplings[{i}]"
            with _reading(where):
                c = _section(c, where, ("pair", "j"))
                pair = c["pair"]
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ConfigError(f"{where}.pair: expected two site indices, got {pair!r}")
                a, b = (_integer(site, f"{where}.pair", 0) for site in pair)
                j = parse_quantity(c["j"], "frequency", f"{where}.j")
            couplings.append((a, b, j))

    with _reading("bath"):
        bath_doc = _section(doc["bath"], "bath", ("omega_se", "tau_c", "kappa"))
        omega_se = parse_quantity(bath_doc["omega_se"], "angular_frequency",
                                  "bath.omega_se")
        tau_c = kappa = None
        if "tau_c" in bath_doc:
            tau_c = parse_quantity(bath_doc["tau_c"], "time", "bath.tau_c")
        if "kappa" in bath_doc:
            kappa = parse_quantity(bath_doc["kappa"], "kappa", "bath.kappa")
        bath = BathSpec(omega_se=omega_se, tau_c=tau_c, kappa=kappa)

    with _reading("drive"):
        omega1 = parse_quantity(_section(doc["drive"], "drive", ("omega1",))["omega1"],
                                "angular_frequency", "drive.omega1")
    if omega1 <= 0:
        raise ConfigError("drive.omega1: must be positive")

    regime_doc = _section(doc.get("regime", {}), "regime", ("mode", "coarse_grain_dt"))
    mode_name = regime_doc.get("mode", "auto")
    try:
        regime = Regime(mode_name)
    except ValueError:
        raise ConfigError(
            f"regime.mode: {mode_name!r} not one of auto, ising_only, zero_quantum"
        ) from None
    if "coarse_grain_dt" in regime_doc:
        dt = parse_quantity(regime_doc["coarse_grain_dt"], "time",
                            "regime.coarse_grain_dt")
    else:
        dt = default_coarse_grain_dt(bath, omega1)
    # the one place each pair's form is resolved (a pair outside the chain
    # keeps `regime`, and ChainSpec names it invalid)
    with _reading("regime.coarse_grain_dt"):
        couplings = [(a, b, j, resolve_regime(regime, larmor[a], larmor[b], dt)
                      if max(a, b) < len(larmor) else regime) for a, b, j in couplings]

    protocol = doc.get("protocol", "transport")
    if protocol != "transport":
        raise ConfigError(f"protocol: {protocol!r} is not supported (only transport)")
    with _reading("chain"):
        chain = ChainSpec(tuple(larmor), tuple(couplings))
        check_transport_chain(chain)
    refocusing = doc.get("refocusing", True)
    if not isinstance(refocusing, bool):
        raise ConfigError(f"refocusing: expected true or false, got {refocusing!r}")

    grid = None
    if "grid" in doc:
        g = _section(doc["grid"], "grid", ("omega1", "omegaD", "tau_c", "scale_to_omega_se"))
        # the ratio columns are always scaled to omega_SE; true is kept valid
        if g.get("scale_to_omega_se", True) is not True:
            raise ConfigError(f"grid.scale_to_omega_se: {json.dumps(g['scale_to_omega_se'])} "
                              "is not supported (only true)")
        with _reading("grid"):
            grid = GridSpec(
                omega1_values=_parse_axis(g["omega1"], "angular_frequency", "grid.omega1"),
                omegaD_values=_parse_axis(g["omegaD"], "angular_frequency", "grid.omegaD"),
                tauc_values=_parse_axis(g["tau_c"], "time", "grid.tau_c"),
                chain=chain,
                bath=bath,
                refocus=refocusing,
            )

    workers = _integer(doc.get("workers", 1), "workers", 1)

    return RunConfig(
        chain=chain,
        bath=bath,
        omega1=omega1,
        refocusing=refocusing,
        grid=grid,
        workers=workers,
        echo=doc,
    )


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse_config(doc)


def preset_names() -> list[str]:
    """The bundled presets: the names of the package's presets/*.json files,
    sorted."""
    return sorted(f.name.removesuffix(".json")
                  for f in resources.files("spinswap.presets").iterdir()
                  if f.name.endswith(".json"))


def load_preset(name: str) -> RunConfig:
    """Bundled configurations reproducing the reference parameter sets."""
    names = preset_names()
    if name not in names:
        raise ConfigError(f"unknown preset {name!r} (available: {', '.join(names)})")
    text = resources.files("spinswap.presets").joinpath(f"{name}.json").read_text()
    return parse_config(json.loads(text))
