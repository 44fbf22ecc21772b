"""Common lock interface, holder bookkeeping, and the lock-type registry.

Locks are *handles* over a 64-byte record in some node's RDMA memory.
``lock(ctx)``/``unlock(ctx)`` are generators driven with ``yield from``
inside a simulation process.  The base class tracks the current holder
to catch protocol misuse (double lock, unlock by a non-holder) — pure
bookkeeping outside the simulated timeline, mirroring what a debug build
of the paper's artifact would assert.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from typing import Callable, TYPE_CHECKING

from repro.common.errors import ConfigError, ProtocolError
from repro.obs import INTERVALS, LOCK_ACQUIRE, LOCK_RELEASE

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster, ThreadContext


def _traced(span_name: str):
    """Decorator factory wrapping a ``lock``/``unlock`` generator method
    in a timed interval (its duration histogram is a view of the span).

    Opt-in per implementation (the shipped locks use it); ``lock`` /
    ``unlock`` remain the abstract override points, so user locks that
    implement them directly — like the tutorial's TAS lock — stay
    first-class, just untimed.  Unless the cluster records at the
    ``INTERVALS`` level the wrapper returns the undecorated generator:
    one boolean check, no allocation, no extra frame on the drive path.
    """

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(self, ctx):
            inner = fn(self, ctx)
            if not self._timed:
                return inner
            return self._observed_op(ctx, span_name, inner)
        return wrapper
    return deco


#: time a lock implementation's ``lock`` as a ``lock.acquire`` interval.
observed_acquire = _traced(LOCK_ACQUIRE)
#: time a lock implementation's ``unlock`` as a ``lock.release`` interval.
observed_release = _traced(LOCK_RELEASE)


class DistributedLock(ABC):
    """A mutual-exclusion lock living on ``home_node`` of ``cluster``."""

    #: short machine name used by the experiment harness ("alock", ...).
    kind: str = "abstract"

    def __init__(self, cluster: "Cluster", home_node: int, name: str = ""):
        if not 0 <= home_node < cluster.n_nodes:
            raise ConfigError(f"home node {home_node} outside cluster")
        self.cluster = cluster
        self.home_node = home_node
        self.name = name or f"{self.kind}@n{home_node}"
        self._holder_gid: int = 0
        self._holder_since: float = 0.0
        # the timing wrapper is installed only for a cluster that records
        # intervals (see _traced)
        self._timed = cluster.obs.log.level == INTERVALS
        # statistics
        self.acquisitions = 0

    def _observed_op(self, ctx: "ThreadContext", span_name: str, inner):
        """Drive ``inner`` as one timed interval.  Only entered on a
        timed cluster (see :func:`_traced`)."""
        ctx.emit(ctx.actor, "span.begin", span_name, self.name, self.kind,
                 self.home_node)
        try:
            result = yield from inner
        except BaseException:
            # a closed run finalizing the generator ends no interval
            if not ctx.env._closed:
                ctx.emit(ctx.actor, "span.end", span_name, "error")
            raise
        ctx.emit(ctx.actor, "span.end", span_name, "ok")
        return result

    # -- protocol bookkeeping (not part of the simulated algorithm) -------
    def _note_acquired(self, ctx: "ThreadContext", how=None, n=None) -> None:
        """``how`` says how this lock kind won, as a constant — a phrase,
        or a ``%`` template over the count ``n`` (``"after %d rCAS",
        attempts``); the trace shows it after the lock's name."""
        if self._holder_gid != 0:
            raise ProtocolError(
                f"{self.name}: {ctx.actor} acquired while gid {self._holder_gid} "
                f"still marked as holder — mutual exclusion broken")
        self._holder_gid = ctx.gid
        self._holder_since = self.cluster.env.now
        self.acquisitions += 1
        ctx.emit(ctx.actor, "lock.acquired", self.name, how, n)

    def _note_released(self, ctx: "ThreadContext") -> None:
        if self._holder_gid != ctx.gid:
            raise ProtocolError(
                f"{self.name}: unlock by {ctx.actor} (gid {ctx.gid}) but holder "
                f"is gid {self._holder_gid}")
        self._holder_gid = 0
        ctx.emit(ctx.actor, "lock.released", self.name)

    @property
    def holder_gid(self) -> int:
        """gid of the current holder (0 = free) — oracle state for tests."""
        return self._holder_gid

    @property
    def holder_since(self) -> float:
        """Sim time the current holder acquired at (oracle state; only
        meaningful while ``holder_gid != 0``).  The lock table's lease
        monitor uses it to tell a stalled holder from queue churn."""
        return self._holder_since

    # -- the lock protocol ----------------------------------------------
    @abstractmethod
    def lock(self, ctx: "ThreadContext"):
        """Acquire; generator, returns when the critical section may start."""

    @abstractmethod
    def unlock(self, ctx: "ThreadContext"):
        """Release; generator.  Caller must be the holder."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


#: name -> factory(cluster, home_node, **options) registry.
LOCK_TYPES: dict[str, Callable[..., DistributedLock]] = {}


def register_lock_type(kind: str, factory: Callable[..., DistributedLock]) -> None:
    """Register a lock implementation under ``kind`` for :func:`make_lock`.
    Benchmarks and the lock table construct locks by name so new
    primitives drop in without touching the harness."""
    if kind in LOCK_TYPES:
        raise ConfigError(f"lock type {kind!r} already registered")
    LOCK_TYPES[kind] = factory


def unknown_lock_type(kind: str) -> ConfigError:
    """The error for a ``kind`` nothing registered, naming the known ones."""
    return ConfigError(f"unknown lock type {kind!r}; known: {sorted(LOCK_TYPES)}")


def make_lock(kind: str, cluster: "Cluster", home_node: int,
              **options) -> DistributedLock:
    """Construct a lock of the registered ``kind``."""
    try:
        factory = LOCK_TYPES[kind]
    except KeyError:
        raise unknown_lock_type(kind) from None
    return factory(cluster, home_node, **options)
