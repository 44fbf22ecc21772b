"""Shared utilities: errors, identifiers, RNG streams.

Everything in :mod:`repro` builds on these small pieces.  They are kept
dependency-free (stdlib only) so every subsystem can import them
without cycles.
"""

from repro.common.errors import (
    ReproError,
    SimulationError,
    MemoryError_,
    ProtocolError,
    ConfigError,
    AtomicityViolation,
)
from repro.common.ids import NodeId, ThreadId, GlobalThreadId, make_global_thread_id
from repro.common.rng import RngStreams, derive_seed

__all__ = [
    "ReproError",
    "SimulationError",
    "MemoryError_",
    "ProtocolError",
    "ConfigError",
    "AtomicityViolation",
    "NodeId",
    "ThreadId",
    "GlobalThreadId",
    "make_global_thread_id",
    "RngStreams",
    "derive_seed",
]
