"""Deterministic metrics registry: one queryable tree for the cluster.

Two halves:

* **Push** — components create :class:`Histogram` handles up front
  (``registry.histogram("verb_rtt_ns", verb="rCAS")``) and update them
  on the hot path.  When the registry is disabled the factory returns a
  shared null handle whose ``observe`` is a no-op, so call sites keep a
  single unconditional code path and the disabled run allocates nothing
  per event.
* **Pull** — subsystems that already keep their own counters (NICs, the
  network, the fault injector, the race auditor) register a *collector*
  callback.  Collectors are registered regardless of the enabled flag:
  they only run when :meth:`MetricsRegistry.collect` is called, so they
  cost nothing until someone asks.

:meth:`collect` snapshots both halves into one plain-dict tree (the
"queryable tree attached to the cluster context"); :meth:`flat` renders
it as sorted dotted-path leaves for JSON export and diffing.

Determinism: handles are stored in insertion-ordered dicts keyed by
``(name, sorted label items)``; snapshots sort by key, so output never
depends on hash order.  Histograms use fixed power-of-two ns buckets —
no data-dependent bucket allocation.
"""

from __future__ import annotations

from typing import Callable

# Power-of-two bucket upper bounds: 64 ns .. ~1.1 s, then +inf.
_BUCKET_BOUNDS = tuple(float(1 << e) for e in range(6, 31)) + (float("inf"),)


def _label_key(name: str, labels: dict) -> tuple:
    return (name,) + tuple(sorted(labels.items()))


class Histogram:
    """Sim-time distribution in fixed power-of-two ns buckets."""

    __slots__ = ("name", "labels", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self.counts = [0] * len(_BUCKET_BOUNDS)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value_ns: float) -> None:
        self.count += 1
        self.sum += value_ns
        if value_ns < self.min:
            self.min = value_ns
        if value_ns > self.max:
            self.max = value_ns
        lo, hi = 0, len(_BUCKET_BOUNDS) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if value_ns <= _BUCKET_BOUNDS[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1

    def snapshot(self):
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum_ns": self.sum,
            "mean_ns": self.sum / self.count,
            "min_ns": self.min,
            "max_ns": self.max,
            "buckets": {
                ("+inf" if b == float("inf") else f"le_{int(b)}"): c
                for b, c in zip(_BUCKET_BOUNDS, self.counts) if c
            },
        }


class _Null:
    """Shared no-op handle handed out when the registry is disabled."""

    __slots__ = ()

    def observe(self, value_ns: float) -> None:
        pass


_NULL = _Null()


class MetricsRegistry:
    """Pushed histograms plus pull-model collectors.

    ``enabled`` gates only the *push* side.  Collectors (NIC stats,
    verb counts, fault counters) are cheap pre-existing state and are
    always collectable, so ``cluster.stats()`` can be built on top of
    the registry unconditionally.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._metrics: dict[tuple, Histogram] = {}
        self._collectors: dict[str, Callable[[], object]] = {}

    # -- push side ---------------------------------------------------------
    def histogram(self, name: str, **labels):
        if not self.enabled:
            return _NULL
        key = _label_key(name, labels)
        handle = self._metrics.get(key)
        if handle is None:
            handle = self._metrics[key] = Histogram(name, labels)
        return handle

    # -- pull side ---------------------------------------------------------
    def add_collector(self, name: str, fn: Callable[[], object]) -> None:
        """Register a snapshot callback under ``name`` in the tree.
        Last registration wins (a rebuilt subsystem may re-register)."""
        self._collectors[name] = fn

    # -- snapshots ---------------------------------------------------------
    def collect(self) -> dict:
        """One tree: each collector's snapshot plus pushed metrics under
        ``"app"``, grouped by metric name then sorted label string."""
        tree: dict = {}
        for name in sorted(self._collectors):
            tree[name] = self._collectors[name]()
        app: dict = {}
        for key in sorted(self._metrics, key=repr):
            handle = self._metrics[key]
            series = app.setdefault(handle.name, {})
            label_str = ",".join(f"{k}={v}" for k, v in
                                 sorted(handle.labels.items())) or "_"
            series[label_str] = handle.snapshot()
        if app:
            tree["app"] = app
        return tree

    def flat(self) -> dict:
        """The :meth:`collect` tree flattened to sorted ``a.b.c`` leaves
        (lists become ``.<index>``)."""
        out: dict = {}

        def walk(prefix: str, node) -> None:
            if isinstance(node, dict):
                for k in sorted(node, key=str):
                    walk(f"{prefix}.{k}" if prefix else str(k), node[k])
            elif isinstance(node, (list, tuple)):
                for i, item in enumerate(node):
                    walk(f"{prefix}.{i}", item)
            else:
                out[prefix] = node

        walk("", self.collect())
        return out

    def query(self, path: str):
        """Fetch one subtree/leaf by dotted path, e.g.
        ``query("network.verbs.cas")``."""
        node = self.collect()
        for part in path.split("."):
            if isinstance(node, dict) and part in node:
                node = node[part]
            elif isinstance(node, (list, tuple)) and part.isdigit() \
                    and int(part) < len(node):
                node = node[int(part)]
            else:
                raise KeyError(f"no metric at {path!r} (failed at {part!r})")
        return node
