"""Pulse programs: SWAP sequences, the transport protocol, and compilation.

A program is an ordered list of segments: square pulses (finite duration,
amplitude omega_1, azimuth phase), free delays under the always-on
couplings, virtual-z frame rotations, and ideal (zero-duration) pi pulses.

The two SWAP builders realize, under ideal hard pulses and closed
evolution,

    non-identical pair, Ising coupling:   U = exp(-i pi/4)  U_swap
    identical pair, zero-quantum coupling: U = exp(-i 3pi/4) U_swap

with the free-evolution content totalling exactly 7/(2J) in both cases.
The identical-pair sequence drives only the first spin of the pair.

Compilation turns a program into piecewise-constant evolution windows for
the master-equation engine.  All windows are expressed in the frame
rotating at each spin's own Larmor frequency, which makes every
on-resonance window time-independent and needs no stitching corrections
between windows; pulse carriers default to the target's Larmor frequency.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import conjugation_superop, expm, site_operators, superop_to_pauli
from .master import GeneratorSpec
from .model import (
    BathSpec,
    ChainSpec,
    DriveSpec,
    HarmonicComponent,
    Regime,
    SecularMode,
    TimescaleSeparationWarning,
    dipolar_hamiltonian,
    drive_hamiltonian,
    resolve_secular_mode,
    system_env_coupling,
)

U_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


@dataclass(frozen=True)
class SquarePulse:
    """Square drive pulse on `targets` about the axis at azimuth `phase`.

    duration * amplitude is the flip angle; carrier None means resonant
    with each target's Larmor frequency.
    """

    amplitude: float  # rad/s
    phase: float  # rad
    targets: tuple[int, ...]
    duration: float  # s
    carrier: float | None = None  # rad/s

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("pulse duration must be >= 0")
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))

    @property
    def flip_angle(self) -> float:
        return self.amplitude * self.duration


@dataclass(frozen=True)
class Delay:
    duration: float  # s

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("delay duration must be >= 0")


@dataclass(frozen=True)
class VirtualZ:
    """Instantaneous frame rotation exp(-i angle Iz) on one spin."""

    angle: float  # rad
    target: int

    duration = 0.0


@dataclass(frozen=True)
class IdealPi:
    """Zero-duration pi rotation about x, y or z on one spin."""

    axis: str
    target: int

    duration = 0.0

    def __post_init__(self):
        if self.axis not in ("x", "y", "z"):
            raise ValueError("axis must be x, y or z")


Segment = SquarePulse | Delay | VirtualZ | IdealPi


@dataclass(frozen=True)
class PulseProgram:
    """Ordered segments plus protocol metadata.

    meta may carry 'initial_state' / 'target_state' kets, a label, and the
    closed-form delay budget where one exists.
    """

    segments: tuple[Segment, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def total_duration(self) -> float:
        return float(sum(s.duration for s in self.segments))

    @property
    def delay_total(self) -> float:
        return float(sum(s.duration for s in self.segments if isinstance(s, Delay)))


def _p90(site: int, azimuth: float, omega1: float) -> SquarePulse:
    return SquarePulse(omega1, azimuth % (2 * np.pi), (site,), 0.5 * np.pi / omega1)


def _p180(site: int, azimuth: float, omega1: float) -> SquarePulse:
    return SquarePulse(omega1, azimuth % (2 * np.pi), (site,), np.pi / omega1)


def swap_nonidentical(pair, j_hz: float, drive_amp: float) -> PulseProgram:
    """SWAP sequence for a far-off-resonance pair under Ising coupling.

    Three 90-degree-pulse coherence-transfer blocks around delays of
    5/(2J), 1/(2J) and 1/(2J), bracketed by the two virtual pi/4 z
    rotations; the ideal propagator equals exp(-i pi/4) U_swap.
    """
    if j_hz <= 0:
        raise ValueError("J must be positive")
    if drive_amp <= 0:
        raise ValueError("drive amplitude must be positive")
    s1, s2 = pair
    w1 = drive_amp
    half = 0.5 / j_hz  # 1/(2J)
    segs: list[Segment] = [
        VirtualZ(np.pi / 4, s1),
        # Ry(-pi/2) pair; s1 azimuth carries the bracket compensation
        _p90(s1, 7 * np.pi / 4, w1),
        _p90(s2, 3 * np.pi / 2, w1),
        VirtualZ(-5 * np.pi / 4, s1),  # -pi (sign fix for the 5/(2J) delay) - pi/4
        VirtualZ(np.pi, s2),
        Delay(5 * half),
        _p90(s1, np.pi / 2, w1),
        _p90(s2, np.pi / 2, w1),
        _p90(s1, 0.0, w1),
        _p90(s2, 0.0, w1),
        VirtualZ(np.pi, s1),
        VirtualZ(np.pi, s2),
        Delay(half),
        _p90(s1, np.pi, w1),
        _p90(s2, np.pi, w1),
        Delay(half),
        VirtualZ(np.pi, s1),
        VirtualZ(3 * np.pi / 4, s2),
        VirtualZ(np.pi / 4, s2),
    ]
    meta = {
        "label": f"swap_nonidentical({s1},{s2})",
        "pair": (s1, s2),
        "regime": Regime.ISING_ONLY.value,
        "global_phase": -np.pi / 4,
        "delay_budget": 3.5 / j_hz,
    }
    return PulseProgram(tuple(segs), meta)


def swap_identical(pair, j_hz: float, drive_amp: float) -> PulseProgram:
    """SWAP sequence for an identical-frequency pair, zero-quantum coupling.

    Drives only the first spin of the pair: three delays of 9/(8J), 5/(4J)
    and 9/(8J) separated by composite z-pi rotations (a y-pi pulse followed
    by an x-pi pulse); the ideal propagator equals exp(-i 3pi/4) U_swap.
    """
    if j_hz <= 0:
        raise ValueError("J must be positive")
    if drive_amp <= 0:
        raise ValueError("drive amplitude must be positive")
    s1 = pair[0]
    w1 = drive_amp
    unit = 1.0 / j_hz
    zpi = [_p180(s1, np.pi / 2, w1), _p180(s1, 0.0, w1)]
    segs: list[Segment] = [
        Delay(9 * unit / 8),
        *zpi,
        Delay(5 * unit / 4),
        *zpi,
        Delay(9 * unit / 8),
    ]
    meta = {
        "label": f"swap_identical({pair[0]},{pair[1]})",
        "pair": tuple(pair),
        "regime": Regime.ZERO_QUANTUM.value,
        "global_phase": -3 * np.pi / 4,
        "delay_budget": 3.5 / j_hz,
    }
    return PulseProgram(tuple(segs), meta)


def _echo_split(delays_before: float, tau: float, midpoint: float,
                bystander: int) -> list[Segment]:
    """Split one delay into echo pairs of pi pulses on the bystander spin.

    Each pair [a, pi, a, pi] cancels the bystander couplings accumulated
    across it and returns the bystander, so every delay contributes an even
    number of x flips.  When the protocol midpoint falls inside this delay,
    the split is arranged so one pi lands exactly there.
    """
    x = midpoint - delays_before  # midpoint offset inside this delay
    flip = IdealPi("x", bystander)
    if 0.0 < x < tau and abs(x - 0.5 * tau) > 1e-15 * tau:
        a, b = 0.5 * x, 0.5 * (tau - x)
        return [Delay(a), flip, Delay(a), flip, Delay(b), flip, Delay(b), flip]
    return [Delay(0.5 * tau), flip, Delay(0.5 * tau), flip]


def transport_protocol(chain: ChainSpec, drive_amp: float, mode: SecularMode,
                       refocus: bool = True) -> PulseProgram:
    """Singlet transport on a 3-spin chain via SWAP between spins 1 and 3.

    The initial state (|10> - |01>)/sqrt(2) (x) |0> and the target
    |0> (x) (|01> - |10>)/sqrt(2) are attached as metadata.  With
    refocusing enabled, every delay of the SWAP(1,3) sequence is split
    into spin-echo pairs of ideal pi pulses on the middle spin, one of
    which falls exactly at the midpoint of the total delay content; this
    cancels the nearest-neighbour couplings exactly under ideal pulses.
    """
    if chain.nsites != 3:
        raise ValueError("transport protocol needs a 3-spin chain")
    pair = (0, 2)
    bystander = 1
    j13 = chain.coupling_j(pair)
    if j13 <= 0:
        raise ValueError("chain must couple spins 1 and 3 (sites 0 and 2)")
    regime = resolve_secular_mode(mode, pair, chain)
    if regime == Regime.ISING_ONLY:
        base = swap_nonidentical(pair, j13, drive_amp)
    else:
        base = swap_identical(pair, j13, drive_amp)

    if refocus:
        for nn in ((0, 1), (1, 2)):
            if chain.coupling_j(nn) <= 0:
                continue
            nn_regime = resolve_secular_mode(mode, nn, chain)
            dw = abs(chain.larmor[nn[0]] - chain.larmor[nn[1]])
            if nn_regime == Regime.ZERO_QUANTUM and dw > 0:
                warnings.warn(
                    f"neighbour pair {nn} resolved to the zero-quantum coupling "
                    "with distinct Larmor frequencies; echo refocusing cannot "
                    "cancel its flip-flop terms exactly",
                    UserWarning,
                    stacklevel=2,
                )

    segs: list[Segment]
    if refocus:
        midpoint = 0.5 * base.delay_total
        elapsed = 0.0
        segs = []
        for seg in base.segments:
            if isinstance(seg, Delay):
                segs.extend(_echo_split(elapsed, seg.duration, midpoint, bystander))
                elapsed += seg.duration
            else:
                segs.append(seg)
    else:
        segs = list(base.segments)

    sq2 = np.sqrt(2.0)
    psi_i = np.zeros(8, dtype=complex)
    psi_i[0b100] = 1 / sq2
    psi_i[0b010] = -1 / sq2
    psi_f = np.zeros(8, dtype=complex)
    psi_f[0b001] = 1 / sq2
    psi_f[0b010] = -1 / sq2
    meta = dict(base.meta)
    meta.update(
        label="transport(1->3)",
        initial_state=psi_i,
        target_state=psi_f,
        refocus=refocus,
        bystander=bystander,
    )
    return PulseProgram(tuple(segs), meta)


# ---------------------------------------------------------------------------
# Evaluation and compilation
# ---------------------------------------------------------------------------


def _axis_op(phase: float, site: int, n: int) -> np.ndarray:
    ops = site_operators(n)
    return np.cos(phase) * ops.x[site] + np.sin(phase) * ops.y[site]


# Segments are frozen dataclasses that do not depend on the sweep point, so
# each distinct (segment, register size) is built once per process; the
# bound keeps programs with many distinct angles from growing the caches.
@lru_cache(maxsize=256)
def segment_unitary(seg: VirtualZ | IdealPi, n: int) -> np.ndarray:
    """Exact propagator of a zero-duration segment on an n-spin register,
    read-only.

    Closed forms, no exponential: exp(-i angle Iz_k) is diagonal with
    entries exp(-i angle m_k), m_k = +-1/2 the site's Iz eigenvalue; and
    (2 I_a)^2 = 1 gives exp(-i pi I_a) = -2i I_a.
    """
    ops = site_operators(n)
    if isinstance(seg, VirtualZ):
        u = np.diag(np.exp(-1j * seg.angle * np.diagonal(ops.z[seg.target])))
    else:
        u = -2j * getattr(ops, seg.axis)[seg.target]
    u.setflags(write=False)
    return u


@lru_cache(maxsize=256)
def segment_transfer(seg: VirtualZ | IdealPi, n: int) -> np.ndarray:
    """Real Pauli transfer matrix of rho -> U rho U^dag for the segment's
    unitary U (`segment_unitary`), read-only."""
    r = superop_to_pauli(conjugation_superop(segment_unitary(seg, n)))
    r.setflags(write=False)
    return r


def coupling_hamiltonian(chain: ChainSpec, mode: SecularMode) -> np.ndarray:
    """Always-on secular dipolar Hamiltonian, all pairs, resolved per pair."""
    n = chain.nsites
    h = np.zeros((2**n, 2**n), dtype=complex)
    for a, b, j in chain.couplings:
        regime = resolve_secular_mode(mode, (a, b), chain)
        h += dipolar_hamiltonian((a, b), j, regime, n)
    return h


def ideal_propagator(program: PulseProgram, chain: ChainSpec,
                     mode: SecularMode) -> np.ndarray:
    """Closed-evolution propagator with hard (instantaneous) pulses.

    Square pulses apply their full flip angle as an exact rotation with the
    coupling frozen; delays evolve under the secular couplings alone.  This
    is the reference the gate checks compare against.
    """
    n = chain.nsites
    h_coupling = coupling_hamiltonian(chain, mode)
    u = np.eye(2**n, dtype=complex)
    for seg in program.segments:
        if isinstance(seg, Delay):
            u = expm(-1j * h_coupling, seg.duration) @ u
        elif isinstance(seg, SquarePulse):
            gen = sum(_axis_op(seg.phase, t, n) for t in seg.targets)
            u = expm(-1j * seg.flip_angle * gen) @ u
        elif isinstance(seg, (VirtualZ, IdealPi)):
            u = segment_unitary(seg, n) @ u
        else:
            raise TypeError(f"unknown segment {seg!r}")
    return u


@dataclass(frozen=True)
class GeneratorWindow:
    spec: GeneratorSpec
    duration: float


@dataclass(frozen=True)
class UnitaryWindow:
    """A zero-duration segment, applied exactly on an `nsites` register."""

    segment: VirtualZ | IdealPi
    nsites: int

    duration = 0.0

    @property
    def unitary(self) -> np.ndarray:
        return segment_unitary(self.segment, self.nsites)

    @property
    def transfer(self) -> np.ndarray:
        """Real Pauli transfer matrix of the window's conjugation."""
        return segment_transfer(self.segment, self.nsites)


Window = GeneratorWindow | UnitaryWindow


def compile_program(program: PulseProgram, chain: ChainSpec, bath: BathSpec,
                    mode: SecularMode) -> list[Window]:
    """Compile a program to piecewise-constant evolution windows.

    Every finite-duration window carries the always-on secular couplings as
    a zero-frequency harmonic component (so they evolve the state at first
    order and feed the regulated dissipator at second order, alongside the
    drive) plus the system-environment components; square-pulse windows add
    the drive components of their targets.  Virtual-z and ideal-pi segments
    become exact zero-duration unitary windows, whose unitary and transfer
    matrix come from per-segment caches (`segment_unitary`,
    `segment_transfer`).

    The secular cutoff is the inverse of the mode's coarse-graining
    window.  The timescale check uses the largest pulse amplitude as
    omega_1.
    """
    n = chain.nsites
    omega1 = max(
        (s.amplitude for s in program.segments if isinstance(s, SquarePulse)),
        default=0.0,
    )
    if omega1 * bath.tau_c >= 1.0:
        warnings.warn(
            f"omega_1 * tau_c = {omega1 * bath.tau_c:.3g} >= 1 violates the "
            "timescale separation the master equation assumes",
            TimescaleSeparationWarning,
            stacklevel=2,
        )
    cutoff = 1.0 / mode.coarse_grain_dt

    h_coupling = coupling_hamiltonian(chain, mode)
    env_comps = tuple(system_env_coupling(chain, bath))
    has_coupling = bool(np.any(h_coupling))
    # couplings evolve the state during delays; during hard pulses their
    # coherent action is negligible over the narrow pulse (the ideal pulse
    # algebra assumes it away) but they still feed the dissipator
    delay_comps = env_comps
    pulse_comps = env_comps
    if has_coupling:
        delay_comps = (HarmonicComponent(h_coupling, 0.0),) + env_comps
        pulse_comps = (HarmonicComponent(h_coupling, 0.0, coherent=False),) + env_comps

    def pulse_spec(seg: SquarePulse) -> GeneratorSpec:
        comps: list[HarmonicComponent] = list(pulse_comps)
        if seg.carrier is None:
            # resonant with each target in the per-spin rotating frame
            for t in seg.targets:
                drive = DriveSpec(seg.amplitude, chain.larmor[t], seg.phase, (t,))
                comps.extend(drive_hamiltonian(drive, chain))
        else:
            drive = DriveSpec(seg.amplitude, seg.carrier, seg.phase, seg.targets)
            comps.extend(drive_hamiltonian(drive, chain))
        return GeneratorSpec(tuple(comps), bath, cutoff)

    # One spec object per distinct generator: all delays share one, and
    # pulses share one per drive (amplitude, phase, targets, carrier), so
    # a channel pass can assemble each generator once.
    specs: dict = {}
    windows: list[Window] = []
    for seg in program.segments:
        if isinstance(seg, Delay):
            if "delay" not in specs:
                specs["delay"] = GeneratorSpec(delay_comps, bath, cutoff)
            windows.append(GeneratorWindow(specs["delay"], seg.duration))
        elif isinstance(seg, SquarePulse):
            key = (seg.amplitude, seg.phase, seg.targets, seg.carrier)
            if key not in specs:
                specs[key] = pulse_spec(seg)
            windows.append(GeneratorWindow(specs[key], seg.duration))
        elif isinstance(seg, (VirtualZ, IdealPi)):
            windows.append(UnitaryWindow(seg, n))
        else:
            raise TypeError(f"unknown segment {seg!r}")
    return windows


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _segment_record(seg: Segment) -> dict:
    if isinstance(seg, SquarePulse):
        return {
            "kind": "square_pulse",
            "amplitude_rad_per_s": seg.amplitude,
            "phase_rad": seg.phase,
            "targets": list(seg.targets),
            "duration_s": seg.duration,
            "carrier_rad_per_s": seg.carrier,
        }
    if isinstance(seg, Delay):
        return {"kind": "delay", "duration_s": seg.duration}
    if isinstance(seg, VirtualZ):
        return {"kind": "virtual_z", "angle_rad": seg.angle, "target": seg.target}
    if isinstance(seg, IdealPi):
        return {"kind": "ideal_pi", "axis": seg.axis, "target": seg.target}
    raise TypeError(f"unknown segment {seg!r}")


def _segment_from_record(rec: dict) -> Segment:
    kind = rec["kind"]
    if kind == "square_pulse":
        return SquarePulse(
            rec["amplitude_rad_per_s"],
            rec["phase_rad"],
            tuple(rec["targets"]),
            rec["duration_s"],
            rec.get("carrier_rad_per_s"),
        )
    if kind == "delay":
        return Delay(rec["duration_s"])
    if kind == "virtual_z":
        return VirtualZ(rec["angle_rad"], rec["target"])
    if kind == "ideal_pi":
        return IdealPi(rec["axis"], rec["target"])
    raise ValueError(f"unknown segment kind {kind!r}")


def program_to_json(program: PulseProgram) -> str:
    """Serialize a program to a structured text document (lossless floats)."""
    meta = {
        k: v for k, v in program.meta.items() if not isinstance(v, np.ndarray)
    }
    doc = {
        "units": {"amplitude": "rad/s", "duration": "s", "angle": "rad"},
        "segments": [_segment_record(s) for s in program.segments],
        "meta": meta,
    }
    return json.dumps(doc, indent=2)


def program_from_json(text: str) -> PulseProgram:
    doc = json.loads(text)
    segs = tuple(_segment_from_record(r) for r in doc["segments"])
    return PulseProgram(segs, dict(doc.get("meta", {})))
