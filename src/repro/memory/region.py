"""Per-node RDMA-accessible memory.

A :class:`MemoryRegion` is the slab of memory one node registers with its
RNIC.  It provides 8-byte word operations at three call sites:

* **local API** — ``read``/``write``/``cas`` used by threads running on
  the owning node (the paper's shared-memory operations).  These are
  instantaneous at their linearization point; the *cost* (~100 ns) is
  charged by the calling thread's context, not here.
* **remote landing** — ``remote_read``/``remote_write`` plus the
  two-phase ``remote_rmw_read``/``remote_rmw_commit`` used by the verbs
  layer when an RDMA op arrives at the target NIC.  The two-phase RMW is
  what makes a remote CAS *visibly* a read-then-write to concurrent local
  code (Table 1).
* **watchers** — one-shot events that fire when a word is written,
  regardless of who wrote it.  This is how MCS "spin on a local
  variable" is modeled without polling: the spinner parks on a watcher
  and the predecessor's (possibly remote) write wakes it.

Each access is handed to the run's **access sink**, if it has one:
``sink(node, addr, kind, actor, time)``, one callable the cluster gives
every region (kinds below).  The verbs layer reports through the target
region's sink what only it sees: a verb's issue and the RMW window's
write-back and end.  Without a sink an accessor pays one ``is None``.

All stored values are raw 64-bit patterns (unsigned ints, masked on
store); helpers convert to/from two's-complement for signed fields such
as budgets.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.common.errors import MemoryError_
from repro.memory.pointer import CACHE_LINE, WORD_SIZE, pack_ptr
from repro.sim.core import PENDING, Environment, Event

#: Access kinds.  Local ops of the owning node's threads; a *private*
#: store (``ThreadContext.private_write``) is a local write no other
#: thread may observe before its owner's next step.
LOCAL_READ = "Read"
LOCAL_WRITE = "Write"
LOCAL_RMW = "RMW"
PRIVATE_WRITE = "PrivateWrite"
#: Remote landings.  An RMW's read lands as its verb and opens the atomic
#: window, closed by ``RMW_END`` after its write-back (or when it dies).
REMOTE_READ = "rRead"
REMOTE_WRITE = "rWrite"
REMOTE_CAS = "rCAS"
REMOTE_FAA = "rFAA"
RMW_COMMIT = "rmw.commit"
RMW_END = "rmw.end"
#: A watcher armed or withdrawn; a verb issued by ``actor``.
WATCH = "watch"
UNWATCH = "unwatch"
VERB_ISSUE = "verb"
#: A cluster's ``audit`` modes: no sink, or the race auditor
#: (:mod:`repro.memory.races`) recording or raising on Table 1's 'No' cells.
AUDIT_MODES = ("off", "record", "strict")

_MASK64 = (1 << 64) - 1
_SIGN_BIT = 1 << 63
_WORD_LOW_BITS = WORD_SIZE - 1
_WORD_SHIFT = WORD_SIZE.bit_length() - 1
#: a word's watcher list is swept for already-fired entries whenever an
#: append brings it to a power-of-two length from here up
_WATCHER_SWEEP_MIN = 8


def to_signed(value: int) -> int:
    """Interpret a raw 64-bit pattern as two's-complement int64."""
    return value - (1 << 64) if value & _SIGN_BIT else value


def from_signed(value: int) -> int:
    """Encode a Python int (possibly negative) as a raw 64-bit pattern."""
    return value & _MASK64


class MemoryRegion:
    """One node's RDMA-registered memory slab.

    Args:
        env: simulation environment (for watcher events and access times).
        node_id: owning node.
        size_bytes: slab size; must be a multiple of the 64B cache line.
        sink: the run's access sink, shared by every region; ``None``
            reports nothing.
    """

    __slots__ = ("env", "node_id", "size", "_last_addr", "sink", "_words",
                 "_alloc_cursor", "_watchers", "_node_label", "_labels",
                 "local_reads", "local_writes", "local_rmws",
                 "remote_ops_landed")

    def __init__(self, env: Environment, node_id: int, size_bytes: int,
                 sink: Optional[Callable[[int, int, str, str, float], None]] = None):
        if size_bytes <= 0 or size_bytes % CACHE_LINE != 0:
            raise MemoryError_(
                f"region size {size_bytes} must be a positive multiple of {CACHE_LINE}")
        self.env = env
        self.node_id = node_id
        self.size = size_bytes
        self._last_addr = size_bytes - WORD_SIZE
        self.sink = sink
        # Raw 64-bit patterns as plain ints: the word store is touched on
        # every lock/memory op, and per-access numpy-scalar conversion
        # costs more than the denser array buys at these region sizes.
        # The list is virtual-zero beyond its current length and grows on
        # store, so constructing a cluster pays for no untouched word.
        self._words: list[int] = []
        # First cache line reserved so byte address 0 is never a live object
        # and the packed pointer value 0 can serve as NULL.
        self._alloc_cursor = CACHE_LINE
        self._watchers: dict[int, list[Event]] = {}
        # Protocol names for words (e.g. "alock[k7].tail_l"): locks label
        # their record fields at construction so watch events — and through
        # them the deadlock diagnostics and post-mortem wait-for graph —
        # name the word a process is parked on instead of a raw address.
        self._labels: dict[int, object] = {}
        self._node_label = f"n{node_id}"
        # statistics
        self.local_reads = 0
        self.local_writes = 0
        self.local_rmws = 0
        self.remote_ops_landed = 0

    # -- address helpers ---------------------------------------------------
    def _word_index(self, addr: int) -> int:
        if addr % WORD_SIZE != 0:
            raise MemoryError_(f"misaligned 8-byte access at {addr:#x} on node {self.node_id}")
        if not 0 <= addr <= self.size - WORD_SIZE:
            raise MemoryError_(
                f"address {addr:#x} out of bounds for {self.size}B region on node {self.node_id}")
        return addr // WORD_SIZE

    # -- allocation ----------------------------------------------------------
    def alloc(self, nbytes: int, align: int = CACHE_LINE) -> int:
        """Bump-allocate ``nbytes`` aligned to ``align``; returns the byte
        address.  There is no free(): lock metadata lives for the whole
        experiment, as in the paper's artifact."""
        if nbytes <= 0:
            raise MemoryError_(f"allocation size must be positive, got {nbytes}")
        if align <= 0 or (align & (align - 1)) != 0:
            raise MemoryError_(f"alignment must be a power of two, got {align}")
        addr = (self._alloc_cursor + align - 1) & ~(align - 1)
        if addr + nbytes > self.size:
            raise MemoryError_(
                f"node {self.node_id} region exhausted: need {nbytes}B at {addr:#x}, "
                f"region is {self.size}B")
        self._alloc_cursor = addr + nbytes
        return addr

    def alloc_ptr(self, nbytes: int, align: int = CACHE_LINE) -> int:
        """Like :meth:`alloc` but returns a packed global pointer."""
        return pack_ptr(self.node_id, self.alloc(nbytes, align))

    @property
    def bytes_allocated(self) -> int:
        return self._alloc_cursor

    # -- raw access (unreported; internal + tests) -----------------------
    def peek(self, addr: int) -> int:
        # _word_index's test, inline: these two run on every word op
        if addr & _WORD_LOW_BITS or not 0 <= addr <= self._last_addr:
            self._word_index(addr)  # raises, naming the fault
        idx = addr >> _WORD_SHIFT
        words = self._words
        return words[idx] if idx < len(words) else 0

    def peek_signed(self, addr: int) -> int:
        return to_signed(self.peek(addr))

    def _store(self, addr: int, value: int) -> None:
        if addr & _WORD_LOW_BITS or not 0 <= addr <= self._last_addr:
            self._word_index(addr)  # raises, naming the fault
        idx = addr >> _WORD_SHIFT
        raw = value & _MASK64
        words = self._words
        if idx >= len(words):
            words.extend([0] * (idx + 1024 - len(words)))
        words[idx] = raw
        watchers = self._watchers.pop(idx, None)
        if watchers:
            for ev in watchers:
                if ev._value is PENDING:
                    ev.succeed((addr, raw))

    # -- local API (shared-memory operations) ------------------------------
    # One flat call per word op: count, report, the bounds test of peek()
    # and the word list indexed in place.  _store() masks to 64 bits, so
    # signed operands need no conversion on the way in.
    def read(self, addr: int, actor: str = "?") -> int:
        """Local 8-byte atomic load (raw pattern)."""
        self.local_reads += 1
        if self.sink is not None:
            self.sink(self.node_id, addr, LOCAL_READ, actor, self.env._now)
        if addr & _WORD_LOW_BITS or not 0 <= addr <= self._last_addr:
            self._word_index(addr)  # raises, naming the fault
        idx = addr >> _WORD_SHIFT
        words = self._words
        return words[idx] if idx < len(words) else 0

    def read_signed(self, addr: int, actor: str = "?") -> int:
        return to_signed(self.read(addr, actor))

    def write(self, addr: int, value: int, actor: str = "?",
              kind: str = LOCAL_WRITE) -> None:
        """Local 8-byte atomic store; a private one
        (``ThreadContext.private_write``) is reported as ``PRIVATE_WRITE``."""
        self.local_writes += 1
        if self.sink is not None:
            self.sink(self.node_id, addr, kind, actor, self.env._now)
        self._store(addr, value)

    def cas(self, addr: int, expected: int, desired: int, actor: str = "?") -> int:
        """Local compare-and-swap; returns the *previous* raw value (the
        CAS succeeded iff the return equals ``expected``)."""
        self.local_rmws += 1
        if self.sink is not None:
            self.sink(self.node_id, addr, LOCAL_RMW, actor, self.env._now)
        if addr & _WORD_LOW_BITS or not 0 <= addr <= self._last_addr:
            self._word_index(addr)  # raises, naming the fault
        idx = addr >> _WORD_SHIFT
        words = self._words
        old = words[idx] if idx < len(words) else 0
        if old == expected & _MASK64:
            self._store(addr, desired)
        return old

    def faa(self, addr: int, delta: int, actor: str = "?") -> int:
        """Local fetch-and-add (two's-complement); returns previous value."""
        self.local_rmws += 1
        if self.sink is not None:
            self.sink(self.node_id, addr, LOCAL_RMW, actor, self.env._now)
        if addr & _WORD_LOW_BITS or not 0 <= addr <= self._last_addr:
            self._word_index(addr)  # raises, naming the fault
        idx = addr >> _WORD_SHIFT
        words = self._words
        old = words[idx] if idx < len(words) else 0
        self._store(addr, old + delta)  # mod 2**64: two's-complement add
        return old

    # -- remote landing (called by the verbs layer at the target) ----------
    # One flat call per landing, as the local API: the bounds test of
    # peek() and the word list indexed in place.  ``actor`` is the thread
    # that issued the verb.
    def remote_read(self, addr: int, actor: str = "?",
                    kind: str = REMOTE_READ) -> int:
        self.remote_ops_landed += 1
        if self.sink is not None:
            self.sink(self.node_id, addr, kind, actor, self.env._now)
        if addr & _WORD_LOW_BITS or not 0 <= addr <= self._last_addr:
            self._word_index(addr)  # raises, naming the fault
        idx = addr >> _WORD_SHIFT
        words = self._words
        return words[idx] if idx < len(words) else 0

    def remote_write(self, addr: int, value: int, actor: str = "?") -> None:
        self.remote_ops_landed += 1
        if self.sink is not None:
            self.sink(self.node_id, addr, REMOTE_WRITE, actor, self.env._now)
        self._store(addr, value)

    #: Phase 1 of a remote RMW: the NIC's read of the target word,
    #: reported as the verb (``kind`` ``REMOTE_CAS``/``REMOTE_FAA``).
    remote_rmw_read = remote_read
    #: Phase 2: the NIC's write-back.  Unconditional — if a local write
    #: landed inside the window, it is lost (the Table 1 hazard).  The
    #: verbs layer reports it, with the window's end.
    remote_rmw_commit = _store

    # -- word labels ---------------------------------------------------
    def label_word(self, addr: int, label: str) -> None:
        """Register a protocol name for the word at ``addr`` (idempotent;
        the last registration wins).  Labels flow into watch-event info,
        deadlock messages and post-mortem wait-for graphs."""
        self._word_index(addr)  # validate alignment/bounds eagerly
        self._labels[addr] = label

    def describe_word(self, addr: int) -> object:
        """The registered label for ``addr``, or the raw address."""
        return self._labels.get(addr, addr)

    # -- watchers ------------------------------------------------------
    def watch(self, addr: int, actor: str = "?") -> Event:
        """One-shot event fired by the next write to ``addr`` (local or
        remote).  Value: ``(addr, raw_value)``."""
        idx = self._word_index(addr)
        if self.sink is not None:
            self.sink(self.node_id, addr, WATCH, actor, self.env._now)
        ev = Event(self.env)
        # one dict probe: labeled words describe themselves in diagnostics
        ev.info = ("watch", self._node_label, self._labels.get(addr, addr))
        self._register_watcher(idx, ev)
        return ev

    def watch_any(self, addrs: Sequence[int], actor: str = "?") -> Event:
        """One-shot event fired by the next write to *any* of ``addrs``
        (reported as one ``WATCH`` per word)."""
        if self.sink is not None:
            for addr in addrs:
                self.sink(self.node_id, addr, WATCH, actor, self.env._now)
        ev = Event(self.env)
        labels = self._labels
        ev.info = ("watch", self._node_label, *[labels.get(a, a) for a in addrs])
        by_word = self._watchers
        for addr in addrs:
            if addr & _WORD_LOW_BITS or not 0 <= addr <= self._last_addr:
                self._word_index(addr)  # raises, naming the fault
            idx = addr >> _WORD_SHIFT
            if idx in by_word:
                self._register_watcher(idx, ev)
            else:
                by_word[idx] = [ev]
        return ev

    def _register_watcher(self, idx: int, ev: Event) -> None:
        """Append ``ev`` to word ``idx``'s watcher list, sweeping the
        list when the append brings it to a power-of-two length.

        A :meth:`watch_any` event fired through one word stays listed
        under its other words until *they* are written — forever, for a
        word nobody writes (``tail_r`` in an all-local run).  A store
        skips fired entries anyway, so dropping them changes no event;
        the sweep only bounds the list by twice its pending entries.
        """
        watchers = self._watchers.get(idx)
        if watchers is None:
            self._watchers[idx] = [ev]
            return
        watchers.append(ev)
        n = len(watchers)
        if n >= _WATCHER_SWEEP_MIN and not n & (n - 1):
            watchers[:] = [w for w in watchers if w._value is PENDING]

    def unwatch(self, ev: Event, addrs: Sequence[int], actor: str = "?") -> None:
        """Withdraw ``ev`` from the ``addrs`` it was registered under
        (by :meth:`watch` or :meth:`watch_any`): its owner found what it
        was waiting for without parking.  Left registered it would be
        triggered by the next write to one of the words and dispatched
        with nobody listening.  Reported as one ``UNWATCH`` per word."""
        if self.sink is not None:
            for addr in addrs:
                self.sink(self.node_id, addr, UNWATCH, actor, self.env._now)
        by_word = self._watchers
        for addr in addrs:
            idx = addr >> _WORD_SHIFT
            watchers = by_word.get(idx)
            if watchers is None:
                continue
            try:
                watchers.remove(ev)
            except ValueError:
                continue  # a write got there first: fired through this word
            if not watchers:
                del by_word[idx]

    def watched(self, addr: int) -> bool:
        """Whether a watcher armed on ``addr`` is still pending (a
        sink consumer's aid: the sink reports arming, not firing)."""
        return any(ev._value is PENDING
                   for ev in self._watchers.get(addr >> _WORD_SHIFT, ()))

    def watcher_count(self) -> int:
        """Watcher registrations currently held (test/debug aid)."""
        return sum(len(v) for v in self._watchers.values())
