"""Physical model of the dipolar-coupled spin chain and its environment.

Builds the rotating-frame Hamiltonians in the two secular regimes, the
drive terms, and the per-spin couplings to local two-level environments,
all decomposed into harmonic components (operator, oscillation frequency)
for consumption by the master-equation engine.

Units: Larmor frequencies, drive amplitudes and the system-environment
strength are angular frequencies in rad/s; dipolar couplings J are plain
frequencies in Hz with omega_D = 2*pi*J; times are in seconds.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import site_operators, spin_half_ops

# Environment raising/lowering operators for the local two-level baths.
ENV_PLUS, ENV_MINUS = spin_half_ops()[3:]

RESONANCE_TOL = 1e-6  # rad/s; carriers closer than this count as on-resonance

TAU_C_KAPPA_REL_TOL = 1e-9


class TimescaleSeparationWarning(UserWarning):
    """Raised when omega_1 * tau_c or omega_SE * tau_c approaches 1."""


class Regime(enum.Enum):
    AUTO = "auto"
    ISING_ONLY = "ising_only"
    ZERO_QUANTUM = "zero_quantum"


@dataclass(frozen=True)
class SecularMode:
    """Secular-regime selection with its coarse-graining window.

    `coarse_grain_dt` is the averaging time Delta-t that both drives the
    auto regime rule (|delta omega_0| * dt < 1 selects the zero-quantum
    coupling) and sets the secular cutoff 1/dt of the dissipator.  A
    config that gives none gets `default_coarse_grain_dt` when it is read
    (`config.parse_config`), so every run shares one resolved window.
    """

    regime: Regime
    coarse_grain_dt: float  # s

    def __post_init__(self):
        if self.coarse_grain_dt <= 0:
            raise ValueError("coarse_grain_dt must be positive")


@dataclass(frozen=True)
class ChainSpec:
    """Static chain parameters.

    larmor: per-spin Larmor frequencies omega_0^k in rad/s.
    couplings: (site_a, site_b, J) triples with J in Hz.
    geometry: informational tag only.
    """

    larmor: tuple[float, ...]
    couplings: tuple[tuple[int, int, float], ...] = ()
    geometry: str = "z-chain"

    def __post_init__(self):
        object.__setattr__(self, "larmor", tuple(float(w) for w in self.larmor))
        object.__setattr__(
            self,
            "couplings",
            tuple((int(a), int(b), float(j)) for a, b, j in self.couplings),
        )
        if not self.larmor:
            raise ValueError("chain needs at least one spin")
        n = self.nsites
        pairs = set()
        for a, b, j in self.couplings:
            if a == b or not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"coupling pair ({a},{b}) invalid for {n} sites")
            if j < 0:
                raise ValueError("coupling J must be >= 0")
            # a pair listed twice would add its coupling twice to the
            # Hamiltonian while coupling_j reads only the first J
            if (min(a, b), max(a, b)) in pairs:
                raise ValueError(f"coupling pair ({a},{b}) listed twice")
            pairs.add((min(a, b), max(a, b)))

    @property
    def nsites(self) -> int:
        return len(self.larmor)

    def coupling_j(self, pair) -> float:
        a, b = sorted(pair)
        for x, y, j in self.couplings:
            if tuple(sorted((x, y))) == (a, b):
                return j
        return 0.0


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
        if self.omega_se < 0:
            raise ValueError("omega_se must be >= 0")
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
        if self.omega_se * self.tau_c >= 1.0:
            warnings.warn(
                f"omega_SE * tau_c = {self.omega_se * self.tau_c:.3g} >= 1 "
                "violates the timescale separation the master equation assumes",
                TimescaleSeparationWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class DriveSpec:
    """One square-drive term: amplitude omega_1, carrier, phase, targets."""

    amplitude: float  # rad/s
    carrier: float  # rad/s
    phase: float = 0.0  # rad
    targets: tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("drive amplitude must be >= 0")
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))


@dataclass(frozen=True)
class HarmonicComponent:
    """One term A * exp(-i freq t) of the interaction-frame Hamiltonian.

    Component lists are kept closed under Hermitian conjugation, so the sum
    of all components is Hermitian at every time.  Components that act on a
    local environment carry the environment factor separately (`env_site`,
    `env_op`); `op` is always a system-space operator.

    `coherent=False` keeps a component out of the first-order commutator
    while it still feeds the second-order dissipator; the compiler uses
    this for the always-on couplings during hard pulses, whose coherent
    action is applied exactly by the pulse algebra.
    """

    op: np.ndarray
    freq: float  # rad/s
    env_site: int | None = None
    env_op: np.ndarray | None = None
    coherent: bool = True

    @property
    def has_env(self) -> bool:
        return self.env_site is not None


def dipolar_hamiltonian(pair, j_hz: float, regime: Regime, nsites: int) -> np.ndarray:
    """Secular dipolar coupling for one pair, embedded in the chain space.

    ISING_ONLY keeps 2*pi*J Iz Iz; ZERO_QUANTUM additionally keeps the
    flip-flop terms, 2*pi*J (Iz Iz - (I+ I- + I- I+)/4).  Double-quantum
    terms are always dropped.
    """
    a, b = pair
    if a == b or not (0 <= a < nsites and 0 <= b < nsites):
        raise ValueError(f"invalid pair {pair} for {nsites} sites")
    if j_hz < 0:
        raise ValueError("J must be >= 0")
    if regime == Regime.AUTO:
        raise ValueError("regime must be resolved before building the coupling")
    ops = site_operators(nsites)
    h = ops.z[a] @ ops.z[b]
    if regime == Regime.ZERO_QUANTUM:
        ff = ops.plus[a] @ ops.minus[b]
        ff = ff + ops.minus[a] @ ops.plus[b]
        h -= 0.25 * ff
    return 2.0 * np.pi * j_hz * h


def resolve_secular_mode(mode: SecularMode, pair, chain: ChainSpec) -> Regime:
    """Resolve AUTO to a concrete regime for one pair.

    ZERO_QUANTUM when |omega_0^a - omega_0^b| * dt < 1 (strict); the
    boundary product of exactly 1 goes to ISING_ONLY.
    """
    if mode.regime != Regime.AUTO:
        return mode.regime
    a, b = pair
    dw = abs(chain.larmor[a] - chain.larmor[b])
    return Regime.ZERO_QUANTUM if dw * mode.coarse_grain_dt < 1.0 else Regime.ISING_ONLY


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


def drive_hamiltonian(drive: DriveSpec, chain: ChainSpec) -> list[HarmonicComponent]:
    """Harmonic components of the drive after the rotating-wave approximation.

    Expressed in the frame rotating at each spin's own Larmor frequency
    (the frame the propagation layer uses): a resonant target contributes
    a static omega_1 (Ix cos phi + Iy sin phi), an off-resonant one a
    conjugate pair oscillating at its residual frequency omega - omega_0^k.
    Counter-rotating terms at 2*omega are dropped unconditionally.
    """
    n = chain.nsites
    ops = site_operators(n)
    comps: list[HarmonicComponent] = []
    for k in drive.targets:
        if not 0 <= k < n:
            raise ValueError(f"drive target {k} out of range")
        det = chain.larmor[k] - drive.carrier
        if drive.amplitude > 0:
            axis = np.cos(drive.phase) * ops.x[k] + np.sin(drive.phase) * ops.y[k]
            if abs(det) <= RESONANCE_TOL:
                comps.append(HarmonicComponent(drive.amplitude * axis, 0.0))
            else:
                half = 0.5 * drive.amplitude
                up = half * np.exp(-1j * drive.phase) * ops.plus[k]
                comps.append(HarmonicComponent(up, -det))
                comps.append(HarmonicComponent(up.conj().T, det))
    return comps


def system_env_coupling(chain: ChainSpec, bath: BathSpec) -> list[HarmonicComponent]:
    """Flip-flop coupling of each spin to its own resonant two-level bath.

    H_SE^k = omega_SE (I+^k S-^k + I-^k S+^k) / 2 with the environment in
    the maximally mixed state.  Resonant environment levels cancel the
    system Larmor precession, so both components sit at zero frequency in
    the interaction frame.
    """
    if bath.omega_se == 0:
        return []
    ops = site_operators(chain.nsites)
    half = 0.5 * bath.omega_se
    comps = []
    for k in range(chain.nsites):
        comps.append(HarmonicComponent(half * ops.plus[k], 0.0, k, ENV_MINUS))
        comps.append(HarmonicComponent(half * ops.minus[k], 0.0, k, ENV_PLUS))
    return comps
