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
rotating at each spin's own Larmor frequency, which makes every window
time-independent and needs no stitching corrections between windows;
every pulse is resonant with each of its targets.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .linalg import basis_state, expm, read_only, site_operators, unitary_transfer
from .master import GeneratorSpec
from .model import (
    BathSpec,
    ChainSpec,
    Regime,
    _check_positive_finite,
    _drive_axis,
    _site,
    coupling_component,
    drive_hamiltonian,
    system_env_coupling,
    warn_timescale,
)

U_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _check_finite(name: str, value: float, nonnegative: bool = False) -> None:
    """Raise ValueError naming `name` unless `value` is finite (and >= 0)."""
    if not np.isfinite(value) or (nonnegative and value < 0):
        bound = ">= 0 and finite" if nonnegative else "finite"
        raise ValueError(f"{name} must be {bound}, got {value!r}")


@dataclass(frozen=True)
class SquarePulse:
    """Square drive pulse on `targets` about the axis at azimuth `phase`,
    resonant with each target's Larmor frequency.

    duration * amplitude is the flip angle.
    """

    amplitude: float  # rad/s
    phase: float  # rad
    targets: tuple[int, ...]
    duration: float  # s

    def __post_init__(self):
        _check_finite("drive amplitude", self.amplitude, nonnegative=True)
        _check_finite("pulse phase", self.phase)
        _check_finite("pulse duration", self.duration, nonnegative=True)
        object.__setattr__(self, "targets",
                           tuple(_site("pulse target", t) for t in self.targets))

    @property
    def flip_angle(self) -> float:
        return self.amplitude * self.duration


@dataclass(frozen=True)
class Delay:
    duration: float  # s

    def __post_init__(self):
        _check_finite("delay duration", self.duration, nonnegative=True)


@dataclass(frozen=True)
class VirtualZ:
    """Instantaneous frame rotation exp(-i angle Iz) on one spin."""

    angle: float  # rad
    target: int

    duration = 0.0

    def __post_init__(self):
        _check_finite("virtual-z angle", self.angle)
        object.__setattr__(self, "target", _site("virtual-z target", self.target))


@dataclass(frozen=True)
class IdealPi:
    """Zero-duration pi rotation about x, y or z on one spin."""

    axis: str
    target: int

    duration = 0.0

    def __post_init__(self):
        if self.axis not in ("x", "y", "z"):
            raise ValueError("axis must be x, y or z")
        object.__setattr__(self, "target", _site("ideal-pi target", self.target))


Segment = SquarePulse | Delay | VirtualZ | IdealPi


@dataclass(frozen=True)
class PulseProgram:
    """Ordered segments plus protocol metadata.

    meta may carry 'initial_state' / 'target_state' kets, the swapped 'pair'
    and its 'regime', a label, and the closed-form delay budget where one
    exists.  A transport program is the one record of the task: the report
    reads its target, pair and duration, and propagation reads none of it.
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
    _check_positive_finite("J", j_hz)
    _check_positive_finite("drive amplitude", drive_amp)
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
    _check_positive_finite("J", j_hz)
    _check_positive_finite("drive amplitude", drive_amp)
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


# the SWAP sequence for each coupling form of the swapped pair
SWAP_BUILDERS = {Regime.ISING_ONLY: swap_nonidentical, Regime.ZERO_QUANTUM: swap_identical}


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


def check_transport_chain(chain: ChainSpec) -> None:
    """Raise ValueError unless the transport protocol can run on `chain`."""
    if chain.nsites != 3:
        raise ValueError("transport protocol needs a 3-spin chain")
    if chain.coupling_j((0, 2)) <= 0:
        raise ValueError("chain must couple spins 1 and 3 (sites 0 and 2)")


def transport_protocol(chain: ChainSpec, drive_amp: float,
                       refocus: bool = True) -> PulseProgram:
    """Singlet transport on a 3-spin chain via SWAP between spins 1 and 3,
    the sequence chosen by the pair's coupling form on the chain.

    The initial state (|10> - |01>)/sqrt(2) (x) |0> and the target
    |0> (x) (|01> - |10>)/sqrt(2) are attached as metadata.  With
    refocusing enabled, every delay of the SWAP(1,3) sequence is split
    into spin-echo pairs of ideal pi pulses on the middle spin, one of
    which falls exactly at the midpoint of the total delay content; this
    cancels the nearest-neighbour couplings exactly under ideal pulses.
    Raises ValueError for a chain `check_transport_chain` rejects.
    """
    check_transport_chain(chain)
    pair = (0, 2)
    bystander = 1
    _, _, j13, regime = chain.coupling(pair)
    base = SWAP_BUILDERS[regime](pair, j13, drive_amp)

    if refocus:
        for nn in ((0, 1), (1, 2)):
            c = chain.coupling(nn)
            if (c is not None and c[2] > 0 and c[3] == Regime.ZERO_QUANTUM
                    and chain.larmor[nn[0]] != chain.larmor[nn[1]]):
                warnings.warn(
                    f"neighbour pair {nn} resolved to the zero-quantum coupling "
                    "with distinct Larmor frequencies; echo refocusing cannot "
                    "cancel its flip-flop terms exactly",
                    UserWarning,
                    stacklevel=2,
                )
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
    psi_i = (basis_state((1, 0, 0)) - basis_state((0, 1, 0))) / sq2
    psi_f = (basis_state((0, 0, 1)) - basis_state((0, 1, 0))) / sq2
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


def segment_unitary(seg: VirtualZ | IdealPi, n: int) -> np.ndarray:
    """Exact propagator of a zero-duration segment on an n-spin register.

    Closed forms, no exponential: exp(-i angle Iz_k) is diagonal with
    entries exp(-i angle m_k), m_k = +-1/2 the site's Iz eigenvalue; and
    (2 I_a)^2 = 1 gives exp(-i pi I_a) = -2i I_a.
    """
    ops = site_operators(n)
    if isinstance(seg, VirtualZ):
        return np.diag(np.exp(-1j * seg.angle * np.diagonal(ops.z[seg.target])))
    return -2j * getattr(ops, seg.axis)[seg.target]


# Segments are frozen dataclasses that do not depend on the sweep point, so
# each distinct (segment, register size) is built once per process; the
# bound keeps programs with many distinct angles from growing the cache.
@lru_cache(maxsize=256)
def segment_transfer(seg: VirtualZ | IdealPi, n: int) -> np.ndarray:
    """Real Pauli transfer matrix of rho -> U rho U^dag for the segment's
    unitary U (`segment_unitary`), read-only; the window walk's one cache
    of zero-duration segments."""
    return read_only(unitary_transfer(segment_unitary(seg, n)))


def _check_targets(program: PulseProgram, nsites: int) -> None:
    """Raise ValueError naming the first segment whose target lies outside
    an `nsites` register (negative indices included)."""
    for seg in program.segments:
        if isinstance(seg, SquarePulse):
            targets = seg.targets
        elif isinstance(seg, (VirtualZ, IdealPi)):
            targets = (seg.target,)
        else:
            continue
        if any(not 0 <= t < nsites for t in targets):
            raise ValueError(f"segment {seg!r} targets a site outside the "
                             f"register of nsites = {nsites}")


def ideal_propagator(program: PulseProgram, chain: ChainSpec) -> np.ndarray:
    """Closed-evolution propagator with hard (instantaneous) pulses.

    Square pulses apply their full flip angle as an exact rotation with the
    coupling frozen; delays evolve under the secular couplings alone.  This
    is the reference the gate checks compare against.  Raises ValueError
    for a segment that targets a site outside the chain.
    """
    n = chain.nsites
    _check_targets(program, n)
    coupling = coupling_component(chain)
    u = np.eye(2**n, dtype=complex)
    for seg in program.segments:
        if isinstance(seg, Delay):
            if coupling is not None:
                u = expm(-1j * coupling.op, seg.duration) @ u
        elif isinstance(seg, SquarePulse):
            gen = sum(_drive_axis(t, seg.phase, n) for t in seg.targets)
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


# a zero-duration segment is its own window, applied exactly on the
# register of the state it acts on
Window = GeneratorWindow | VirtualZ | IdealPi


def compile_program(program: PulseProgram, chain: ChainSpec,
                    bath: BathSpec) -> list[Window]:
    """Compile a program to piecewise-constant evolution windows.

    Every finite-duration window carries the always-on secular couplings as
    one zero-frequency harmonic component (`model.coupling_component`), so
    they evolve the state at first order and feed the regulated dissipator
    at second order, alongside the drive, plus the system-environment
    components; square-pulse windows add the drive components of their
    targets, resonant with each.  Virtual-z and ideal-pi segments are
    their own (zero-duration) windows, the program's segment objects
    themselves; the walk applies each exactly on the state's register,
    through the per-segment cache `segment_transfer`.

    All delays share one spec and each pulse gets its own; specs compare
    by value, so the walk's propagator cache finds repeated windows.

    Each pair couples in the form the chain records for it.  The timescale
    check uses the largest pulse amplitude as omega_1.  Raises ValueError
    for a segment that targets a site outside the chain.
    """
    _check_targets(program, chain.nsites)
    omega1 = max(
        (s.amplitude for s in program.segments if isinstance(s, SquarePulse)),
        default=0.0,
    )
    warn_timescale("omega_1", omega1 * bath.tau_c)
    env_comps = tuple(system_env_coupling(chain, bath))
    coupling = coupling_component(chain)
    # couplings evolve the state during delays; during hard pulses their
    # coherent action is negligible over the narrow pulse (the ideal pulse
    # algebra assumes it away) but they still feed the dissipator
    delay_comps = env_comps
    pulse_comps = env_comps
    if coupling is not None:
        delay_comps = (coupling,) + env_comps
        pulse_comps = (replace(coupling, coherent=False),) + env_comps

    delay_spec = None
    windows: list[Window] = []
    for seg in program.segments:
        if isinstance(seg, Delay):
            delay_spec = delay_spec or GeneratorSpec(delay_comps, bath)
            windows.append(GeneratorWindow(delay_spec, seg.duration))
        elif isinstance(seg, SquarePulse):
            drive = drive_hamiltonian(seg.amplitude, seg.phase, seg.targets, chain)
            windows.append(GeneratorWindow(GeneratorSpec(pulse_comps + tuple(drive), bath),
                                           seg.duration))
        elif isinstance(seg, (VirtualZ, IdealPi)):
            windows.append(seg)
        else:
            raise TypeError(f"unknown segment {seg!r}")
    return windows


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# The program.json record of each segment class: its kind, then its
# (record key, attribute) pairs in record order.
_RECORDS = {
    SquarePulse: ("square_pulse", (("amplitude_rad_per_s", "amplitude"), ("phase_rad", "phase"),
                                   ("targets", "targets"), ("duration_s", "duration"))),
    Delay: ("delay", (("duration_s", "duration"),)),
    VirtualZ: ("virtual_z", (("angle_rad", "angle"), ("target", "target"))),
    IdealPi: ("ideal_pi", (("axis", "axis"), ("target", "target"))),
}


def _segment_record(seg: Segment) -> dict:
    if type(seg) not in _RECORDS:
        raise TypeError(f"unknown segment {seg!r}")
    kind, fields = _RECORDS[type(seg)]
    rec = {"kind": kind, **{key: getattr(seg, attr) for key, attr in fields}}
    if kind == "square_pulse":
        # kept for the record format: every pulse is resonant
        rec["carrier_rad_per_s"] = None
    return rec


def _segment_from_record(rec: dict) -> Segment:
    kind = rec["kind"]
    cls = next((c for c, (k, _) in _RECORDS.items() if k == kind), None)
    if cls is None:
        raise ValueError(f"unknown segment kind {kind!r}")
    carrier = rec.get("carrier_rad_per_s")
    if kind == "square_pulse" and carrier is not None:
        raise ValueError(f"square pulse carrier_rad_per_s = {carrier!r} is not "
                         "supported: pulses are resonant with each target")
    return cls(**{attr: rec[key] for key, attr in _RECORDS[cls][1]})


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
