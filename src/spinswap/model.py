"""Physical model of the dipolar-coupled spin chain and its environment.

Builds the rotating-frame Hamiltonians in the two secular regimes, the
resonant drive terms, and the per-spin couplings to local two-level
environments, all decomposed into harmonic components for consumption by
the master-equation engine.  In the frame rotating at each spin's own
Larmor frequency every component is static (zero frequency).  Each is
tagged with its mechanism (coupling, drive or system-environment) and is a
scale times a unit operator named exactly by a label, so that the engine
can build its generator structure once per label and combine it per
parameter point (see `master`).

Units: Larmor frequencies, drive amplitudes and the system-environment
strength are angular frequencies in rad/s; dipolar couplings J are plain
frequencies in Hz with omega_D = 2*pi*J; times are in seconds.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from functools import lru_cache
from numbers import Real

import numpy as np

from .linalg import read_only, site_operators, spin_half_ops

# Environment raising/lowering operators for the local two-level baths.
ENV_PLUS, ENV_MINUS = (read_only(e) for e in spin_half_ops()[3:])

TAU_C_KAPPA_REL_TOL = 1e-9


class TimescaleSeparationWarning(UserWarning):
    """Raised when omega_1 * tau_c or omega_SE * tau_c approaches 1."""


class Mechanism(enum.Enum):
    """Physical origin of a harmonic component."""

    COUPLING = "coupling"  # always-on dipolar couplings, scale 2 pi J
    DRIVE = "drive"  # square-pulse drive, scale omega_1
    ENVIRONMENT = "environment"  # system-environment flip-flop, scale omega_SE


class Regime(enum.Enum):
    """Secular form of a pair's coupling; AUTO picks one (`resolve_regime`)."""

    AUTO = "auto"
    ISING_ONLY = "ising_only"
    ZERO_QUANTUM = "zero_quantum"


def warn_timescale(name: str, product: float, stacklevel: int = 3) -> None:
    """The one timescale check: warn (TimescaleSeparationWarning) when
    `product` = `name` * tau_c is >= 1, outside the domain the master
    equation assumes.  The warning is attributed `stacklevel` frames up,
    by default to the caller's caller."""
    if product >= 1.0:
        warnings.warn(
            f"{name} * tau_c = {product:.3g} >= 1 "
            "violates the timescale separation the master equation assumes",
            TimescaleSeparationWarning,
            stacklevel=stacklevel,
        )


def _site(name: str, value) -> int:
    """`value` as a site index: an integer or an integral float, never a
    boolean; raises ValueError naming `name` otherwise."""
    if isinstance(value, bool) or not (isinstance(value, Real) and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer site index, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ChainSpec:
    """Static chain parameters.

    larmor: per-spin Larmor frequencies omega_0^k in rad/s.
    couplings: (site_a, site_b, J, regime) entries with J in Hz and the
    pair's secular coupling form, Regime.ISING_ONLY or Regime.ZERO_QUANTUM
    (`config.parse_config` resolves it once, with `resolve_regime`).
    """

    larmor: tuple[float, ...]
    couplings: tuple[tuple[int, int, float, Regime], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "larmor", tuple(float(w) for w in self.larmor))
        object.__setattr__(
            self,
            "couplings",
            tuple((_site(f"couplings[{k}] site", a), _site(f"couplings[{k}] site", b),
                   float(j), r) for k, (a, b, j, r) in enumerate(self.couplings)),
        )
        if not self.larmor:
            raise ValueError("chain needs at least one spin")
        for k, w in enumerate(self.larmor):
            if not np.isfinite(w):
                raise ValueError(f"larmor[{k}] must be finite, got {w!r}")
        n = self.nsites
        pairs = set()
        for a, b, j, regime in self.couplings:
            if a == b or not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"coupling pair ({a},{b}) invalid for {n} sites")
            if not 0 <= j < np.inf:
                raise ValueError(f"coupling J of pair ({a},{b}) must be finite and >= 0, "
                                 f"got {j!r}")
            if regime not in (Regime.ISING_ONLY, Regime.ZERO_QUANTUM):
                raise ValueError(f"coupling pair ({a},{b}) needs a resolved regime "
                                 f"(ising_only or zero_quantum), got {regime!r}")
            # a pair listed twice would add its coupling twice to the
            # Hamiltonian while coupling_j reads only the first J
            if (min(a, b), max(a, b)) in pairs:
                raise ValueError(f"coupling pair ({a},{b}) listed twice")
            pairs.add((min(a, b), max(a, b)))

    @property
    def nsites(self) -> int:
        return len(self.larmor)

    def coupling(self, pair) -> tuple[int, int, float, Regime] | None:
        """The coupling entry of `pair`, in either site order, or None."""
        key = tuple(sorted(pair))
        for c in self.couplings:
            if tuple(sorted(c[:2])) == key:
                return c
        return None

    def coupling_j(self, pair) -> float:
        c = self.coupling(pair)
        return 0.0 if c is None else c[2]


def _check_positive_finite(name: str, value: float, origin: str = "") -> None:
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {float(value)!r}{origin}")


@dataclass(frozen=True)
class BathSpec:
    """Local-environment parameters.

    Either tau_c or kappa may be given; they are tied by tau_c = 2/kappa**2
    and the constructor fills in the missing one (or checks consistency to
    1e-9 relative when both are supplied).  Both, supplied or derived, must
    be positive and finite.
    """

    omega_se: float  # rad/s
    tau_c: float | None = None  # s
    kappa: float | None = None  # s**-1/2

    def __post_init__(self):
        if not 0 <= self.omega_se < np.inf:
            raise ValueError(f"omega_se must be finite and >= 0, got {float(self.omega_se)!r}")
        tau_c, kappa = self.tau_c, self.kappa
        if tau_c is None and kappa is None:
            raise ValueError("supply tau_c or kappa")
        # checked before either is derived from the other
        for name, value in (("tau_c", tau_c), ("kappa", kappa)):
            if value is not None:
                _check_positive_finite(name, value)
        # float products and quotients overflow to inf and underflow to 0
        # without raising, so a derived value out of range is caught here
        if tau_c is None:
            tau_c = 2.0 / (kappa * kappa)
            _check_positive_finite("tau_c", tau_c, f" from kappa = {float(kappa)!r}")
        elif kappa is None:
            kappa = np.sqrt(2.0 / tau_c)
            _check_positive_finite("kappa", kappa, f" from tau_c = {float(tau_c)!r}")
        elif abs(tau_c - 2.0 / (kappa * kappa)) > TAU_C_KAPPA_REL_TOL * tau_c:
            raise ValueError("tau_c and kappa inconsistent with tau_c = 2/kappa^2")
        object.__setattr__(self, "tau_c", float(tau_c))
        object.__setattr__(self, "kappa", float(kappa))
        # one frame more than the default: the dataclass-generated __init__
        # sits between __post_init__ and the code that built the spec
        warn_timescale("omega_SE", self.omega_se * self.tau_c, stacklevel=4)


@dataclass(frozen=True)
class HarmonicComponent:
    """One static term of the rotating-frame interaction Hamiltonian, the
    `scale` of its `mechanism` times a `unit` operator.

    `label` is hashable and names the unit operator and the environment
    factor exactly, so equal labels mean bitwise-equal units.  Component
    lists are kept closed under Hermitian conjugation, so the sum of all
    components is Hermitian.  Components that act on a local environment
    carry the environment factor separately (`env_site`, `env_op`); `unit`
    is always a system-space operator.

    `coherent=False` keeps a component out of the first-order commutator
    while it still feeds the second-order dissipator; the compiler uses
    this for the always-on couplings during hard pulses, whose coherent
    action is applied exactly by the pulse algebra.
    """

    mechanism: Mechanism
    label: tuple
    unit: np.ndarray
    scale: float
    env_site: int | None = None
    env_op: np.ndarray | None = None
    coherent: bool = True

    @property
    def op(self) -> np.ndarray:
        """The component's operator, scale * unit."""
        return self.scale * self.unit

    @property
    def has_env(self) -> bool:
        return self.env_site is not None


def _dipolar_unit(pair: tuple[int, int], regime: Regime, nsites: int) -> np.ndarray:
    """Iz Iz, less (I+ I- + I- I+)/4 in the zero-quantum regime."""
    a, b = pair
    ops = site_operators(nsites)
    h = ops.z[a] @ ops.z[b]
    if regime == Regime.ZERO_QUANTUM:
        ff = ops.plus[a] @ ops.minus[b]
        ff = ff + ops.minus[a] @ ops.plus[b]
        h -= 0.25 * ff
    return h


# Unit operators depend only on their labels, never on the parameter
# point, so each is built once per process; the bounds keep programs with
# many distinct phases or couplings from growing the caches.
@lru_cache(maxsize=64)
def _coupling_unit(terms: tuple, nsites: int) -> np.ndarray:
    """Sum of ratio * (pair's unit coupling) over (a, b, regime, ratio)
    terms, read-only."""
    h = np.zeros((2**nsites, 2**nsites), dtype=complex)
    for a, b, regime, ratio in terms:
        h += ratio * _dipolar_unit((a, b), regime, nsites)
    return read_only(h)


@lru_cache(maxsize=256)
def _drive_axis(site: int, phase: float, nsites: int) -> np.ndarray:
    """Ix cos phi + Iy sin phi on one site, read-only."""
    ops = site_operators(nsites)
    return read_only(np.cos(phase) * ops.x[site] + np.sin(phase) * ops.y[site])


def resolve_regime(regime: Regime, larmor_a: float, larmor_b: float,
                   coarse_grain_dt: float) -> Regime:
    """The coupling form of a pair with Larmor frequencies larmor_a and
    larmor_b (rad/s): `regime` unless it is AUTO, which gives ZERO_QUANTUM
    when |omega_0^a - omega_0^b| * dt < 1 (strict) over the coarse-graining
    window dt (s), and ISING_ONLY otherwise, a product of exactly 1
    included.  Raises ValueError for a window that is not positive.
    """
    if not coarse_grain_dt > 0:
        raise ValueError("coarse_grain_dt must be positive")
    if regime != Regime.AUTO:
        return regime
    dw = abs(larmor_a - larmor_b)
    return Regime.ZERO_QUANTUM if dw * coarse_grain_dt < 1.0 else Regime.ISING_ONLY


def coupling_component(chain: ChainSpec) -> HarmonicComponent | None:
    """The always-on secular couplings of every pair as one zero-frequency
    component, or None for a chain without a nonzero coupling.

    Its scale is 2 pi J with J the largest coupling, and its unit operator
    sums each pair's unit coupling times J_pair / J: Iz Iz in the Ising
    regime, Iz Iz - (I+ I- + I- I+)/4 in the zero-quantum regime, with the
    double-quantum terms always dropped (`_dipolar_unit`).  The label lists
    (a, b, regime, J_pair / J), so chains that differ only in a common J
    share it.
    """
    j = max((jp for _, _, jp, _ in chain.couplings), default=0.0)
    if j <= 0:
        return None
    terms = tuple((a, b, regime, jp / j) for a, b, jp, regime in chain.couplings if jp > 0)
    return HarmonicComponent(Mechanism.COUPLING, terms,
                             _coupling_unit(terms, chain.nsites), 2.0 * np.pi * j)


def default_coarse_grain_dt(bath: BathSpec, omega1: float) -> float:
    """Geometric mean of tau_c and 1/max(omega_1, omega_SE).

    Sits inside the mandated window tau_c << dt << 1/omega_1 whenever that
    window exists.  Floored at a tenth of the fastest coherent period so
    the secular-regime rule stays physical as tau_c -> 0 (the geometric
    mean would otherwise collapse and spuriously declare every pair
    degenerate).
    """
    fast = max(omega1, bath.omega_se)
    if fast <= 0:
        return bath.tau_c * 100.0
    return float(max(np.sqrt(bath.tau_c / fast), 0.1 / fast))


def drive_hamiltonian(amplitude: float, phase: float, targets,
                      chain: ChainSpec) -> list[HarmonicComponent]:
    """Harmonic components of a resonant square drive after the
    rotating-wave approximation.

    Expressed in the frame rotating at each spin's own Larmor frequency
    (the frame the propagation layer uses), where the drive is resonant
    with every target: each target k contributes the static
    omega_1 (Ix^k cos phi + Iy^k sin phi), with scale omega_1 = `amplitude`
    (rad/s) and phase phi (rad).  Counter-rotating terms at 2*omega are
    dropped; a zero amplitude gives no component.
    """
    n = chain.nsites
    comps: list[HarmonicComponent] = []
    for k in targets:
        if not 0 <= k < n:
            raise ValueError(f"drive target {k} out of range")
        if amplitude > 0:
            comps.append(HarmonicComponent(Mechanism.DRIVE, (k, phase),
                                           _drive_axis(k, phase, n), amplitude))
    return comps


def system_env_coupling(chain: ChainSpec, bath: BathSpec) -> list[HarmonicComponent]:
    """Flip-flop coupling of each spin to its own resonant two-level bath.

    H_SE^k = omega_SE (I+^k S-^k + I-^k S+^k) / 2 with the environment in
    the maximally mixed state.  Resonant environment levels cancel the
    system Larmor precession, so both components sit at zero frequency in
    the interaction frame.  Every component has scale omega_SE.
    """
    if bath.omega_se == 0:
        return []
    return list(_env_components(chain.nsites, bath.omega_se))


@lru_cache(maxsize=16)
def _env_components(nsites: int, omega_se: float) -> tuple[HarmonicComponent, ...]:
    ops = site_operators(nsites)
    comps = []
    for k in range(nsites):
        comps.append(HarmonicComponent(Mechanism.ENVIRONMENT, (k, "plus"),
                                       read_only(0.5 * ops.plus[k]), omega_se, k, ENV_MINUS))
        comps.append(HarmonicComponent(Mechanism.ENVIRONMENT, (k, "minus"),
                                       read_only(0.5 * ops.minus[k]), omega_se, k, ENV_PLUS))
    return tuple(comps)
