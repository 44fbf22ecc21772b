"""Deterministic metrics registry: one queryable tree for the cluster.

Two halves, both read-side:

* **Histograms** — sim-time duration distributions, a view of the
  event log's spans (:mod:`repro.obs.spans`): ``lock.phase_ns`` by lock
  kind and phase, ``verb.rtt_ns`` by verb and path.  Only a cluster
  recording at the ``INTERVALS`` level has spans, so only its tree
  carries them; nothing on the simulated path records a duration
  twice.
* **Pull** — subsystems that already keep their own counters (NICs, the
  network, the fault injector, the race auditor) register a *collector*
  callback.  Collectors run only when :meth:`MetricsRegistry.collect`
  is called, so they cost nothing until someone asks.

:meth:`collect` snapshots both halves into one plain-dict tree (the
"queryable tree attached to the cluster context"); :meth:`flat` renders
it as sorted dotted-path leaves for JSON export and diffing.

Determinism: snapshots sort by key, so output never depends on hash
order; a histogram observes its spans in end order, so its float sum is
the same on every run.  Histograms use fixed power-of-two ns buckets —
no data-dependent bucket allocation.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.obs.spans import (LOCK_ACQUIRE, LOCK_RELEASE, VERB_RTT, Span,
                             SpanView)

# Power-of-two bucket upper bounds: 64 ns .. ~1.1 s, then +inf.
_BUCKET_BOUNDS = tuple(float(1 << e) for e in range(6, 31)) + (float("inf"),)


class Histogram:
    """Sim-time distribution in fixed power-of-two ns buckets."""

    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self):
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


#: every one-sided verb; each has an RTT series per path, observed or not.
VERBS = ("rRead", "rWrite", "rCAS", "rFAA")

#: the lock spans timed into ``lock.phase_ns``, by phase.
_LOCK_PHASE = {LOCK_ACQUIRE: "acquire", LOCK_RELEASE: "release"}


def duration_histograms(spans: Iterable[Span]) -> dict:
    """``{metric: {label string: snapshot}}`` of the finished ``ok``
    spans: ``lock.phase_ns`` per lock kind seen (both phases) and
    ``verb.rtt_ns`` per verb and path (every one).  A span that ended
    in an error, a timeout or abandoned is not a duration sample."""
    series = {("verb.rtt_ns", f"path={path},verb={verb}"): Histogram()
              for verb in VERBS for path in ("fabric", "loopback")}
    for span in spans:
        attrs = span.attrs
        if span.name == VERB_RTT:
            path = "loopback" if attrs["loopback"] else "fabric"
            key = ("verb.rtt_ns", f"path={path},verb={attrs['verb']}")
        elif span.name in _LOCK_PHASE:
            kind = attrs["kind"]
            if ("lock.phase_ns", f"kind={kind},phase=acquire") not in series:
                for phase in _LOCK_PHASE.values():  # a kind shows both phases
                    series["lock.phase_ns", f"kind={kind},phase={phase}"] = Histogram()
            key = ("lock.phase_ns", f"kind={kind},phase={_LOCK_PHASE[span.name]}")
        else:
            continue
        if attrs.get("outcome") == "ok":
            series[key].observe(span.end_ns - span.start_ns)
    tree: dict = {}
    for name, label in sorted(series):
        tree.setdefault(name, {})[label] = series[name, label].snapshot()
    return tree


def flatten(tree) -> dict:
    """A tree as sorted dotted-path leaves, ``a.b.c`` (lists become
    ``.<index>``)."""
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

    walk("", tree)
    return out


class MetricsRegistry:
    """Duration histograms of a span view plus pull-model collectors.

    ``spans`` is the cluster's :class:`~repro.obs.spans.SpanView` when it
    records intervals, else None: the tree then has collectors only.
    Collectors (NIC stats, verb counts, fault counters) are cheap
    pre-existing state and are always collectable, so
    ``cluster.stats()`` can be built on top of the registry
    unconditionally.
    """

    def __init__(self, spans: Optional[SpanView] = None):
        self._spans = spans
        self._collectors: dict[str, Callable[[], object]] = {}

    # -- pull side ---------------------------------------------------------
    def add_collector(self, name: str, fn: Callable[[], object]) -> None:
        """Register a snapshot callback under ``name`` in the tree.
        Last registration wins (a rebuilt subsystem may re-register)."""
        self._collectors[name] = fn

    # -- snapshots ---------------------------------------------------------
    def collect(self) -> dict:
        """One tree: each collector's snapshot plus, when there is a span
        view, the duration histograms under ``"app"``."""
        tree: dict = {}
        for name in sorted(self._collectors):
            tree[name] = self._collectors[name]()
        if self._spans is not None:
            tree["app"] = duration_histograms(self._spans.spans())
        return tree

    def flat(self) -> dict:
        """The :meth:`collect` tree flattened (see :func:`flatten`)."""
        return flatten(self.collect())

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
