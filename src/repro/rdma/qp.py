"""Queue pairs and the QP-context (QPC) cache.

Every (thread, destination-node) connection is a reliable-connected
queue pair.  The RNIC keeps QP contexts (256 B each on CX-4-class
hardware) in a small on-chip cache; once live connections outnumber
cache entries the NIC *thrashes* — every op pays a context reload from
host memory.  The paper (§2, citing StaR [31]) identifies this as the
second RDMA scalability pitfall, and credits ALock with removing the
loopback QPs (1/n of the system's QPs) from the working set.
"""

from __future__ import annotations

from collections import OrderedDict


def qp_id(src_node: int, src_thread: int, dst_node: int) -> tuple[int, int, int]:
    """Identity of the QP thread ``src_thread`` on ``src_node`` uses to
    reach ``dst_node``.  A loopback QP has ``src_node == dst_node``."""
    return (src_node, src_thread, dst_node)


class QpcCache:
    """LRU cache of QP contexts for one RNIC, and the reload it costs.

    :meth:`touch` is the whole per-op QPC step, one call on each side of
    every verb: an LRU refresh on a hit, a load on a miss (evicting the
    least-recently used when full), and the delay the touching stage
    pays — 0, or the ``miss_penalty_ns`` reload :attr:`penalty_ns_total`
    adds up.
    """

    __slots__ = ("capacity", "miss_penalty_ns", "_entries", "hits",
                 "misses", "evictions", "penalty_ns_total")

    def __init__(self, capacity: int, miss_penalty_ns: float = 0.0):
        if capacity < 1:
            raise ValueError(f"QPC cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.miss_penalty_ns = float(miss_penalty_ns)
        self._entries: OrderedDict[tuple, None] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.penalty_ns_total = 0.0

    def touch(self, qp: tuple) -> float:
        """Touch ``qp``; return the reload penalty (0.0 if it was cached)."""
        entries = self._entries
        if qp in entries:
            entries.move_to_end(qp)
            self.hits += 1
            return 0.0
        self.misses += 1
        if len(entries) >= self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
        entries[qp] = None
        self.penalty_ns_total += self.miss_penalty_ns
        return self.miss_penalty_ns

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, qp: tuple) -> bool:
        return qp in self._entries

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = 0
        self.penalty_ns_total = 0.0
