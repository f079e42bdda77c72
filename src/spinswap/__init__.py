"""Entanglement transport on dipolar spin chains under a
fluctuation-regulated master equation: SWAP pulse sequences, drive-induced
and thermal dissipation, and parameter sweeps locating the fidelity
optimum."""

from .linalg import embed, expm, ket2dm, partial_trace, spin_half_ops
from .master import GeneratorSpec, assemble
from .metrics import TransferReport, concurrence, report, state_fidelity, swap_efficiency
from .model import (
    BathSpec,
    ChainSpec,
    HarmonicComponent,
    Mechanism,
    Regime,
    drive_hamiltonian,
    system_env_coupling,
)
from .evolve import ChannelPass, Trajectory, channel_pass, propagate
from .sequences import (
    U_SWAP,
    Delay,
    IdealPi,
    PulseProgram,
    SquarePulse,
    VirtualZ,
    compile_program,
    ideal_propagator,
    program_from_json,
    program_to_json,
    swap_identical,
    swap_nonidentical,
    transport_protocol,
)
from .sweep import GridSpec, SweepRecord, argmax_report, run_sweep

__version__ = "0.1.0"
