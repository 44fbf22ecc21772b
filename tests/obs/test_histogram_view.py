"""The duration histograms are a view of the span log.

Each timing wrapper used to push its interval's duration into a
``Histogram`` handle as the interval ended.  That rule is kept here, as
the reference: on fault-injected runs of every shipped lock, the view
``MetricsRegistry.collect()`` builds from the spans must equal what the
rule pushes, bit for bit — the same series, counts, buckets and float
sums — while the spans that ended in an error, a timeout or abandoned
contribute nothing.
"""

from collections import Counter

import pytest

from repro.faults import CrashWindow, FaultPlan
from repro.locks.base import DistributedLock
from repro.obs import INTERVALS, LOCK_ACQUIRE, VERB_RTT
from repro.obs.metrics import VERBS, Histogram
from repro.rdma.network import RdmaNetwork
from repro.workload import WorkloadSpec, run_workload

PLANS = {
    "loss+spike": FaultPlan(verb_loss_rate=0.03, spike_rate=0.05,
                            spike_ns=400.0, retry_timeout_ns=3_000.0),
    "crash": FaultPlan(verb_loss_rate=0.03, spike_rate=0.05, spike_ns=400.0,
                       crash_windows=(CrashWindow(1, 30_000.0, 400_000.0),),
                       retry_timeout_ns=3_000.0, retry_limit=3),
}


@pytest.fixture
def pushed(monkeypatch):
    """The push rule, installed around the two timing wrappers: every
    verb × path series exists from the network's construction, both
    phases of a lock kind from the lock's, and a wrapper observes
    ``now - start`` only when its interval ends without raising."""
    series: dict[tuple[str, str], Histogram] = {}
    network_init, lock_init = RdmaNetwork.__init__, DistributedLock.__init__
    observed, observed_op = RdmaNetwork._observed, DistributedLock._observed_op

    def init_network(self, *args, **kwargs):
        network_init(self, *args, **kwargs)
        for verb in VERBS:
            for path in ("fabric", "loopback"):
                series.setdefault(("verb.rtt_ns", f"path={path},verb={verb}"),
                                  Histogram())

    def init_lock(self, *args, **kwargs):
        lock_init(self, *args, **kwargs)
        for phase in ("acquire", "release"):
            series.setdefault(("lock.phase_ns", f"kind={self.kind},phase={phase}"),
                              Histogram())

    def timed_verb(self, verb, src_node, src_thread, dst, qp, loopback, trip):
        start = self.env.now
        result = yield from observed(self, verb, src_node, src_thread, dst, qp,
                                     loopback, trip)
        path = "loopback" if loopback else "fabric"
        series["verb.rtt_ns", f"path={path},verb={verb}"].observe(
            self.env.now - start)
        return result

    def timed_op(self, ctx, span_name, inner):
        start = ctx.env.now
        result = yield from observed_op(self, ctx, span_name, inner)
        phase = "acquire" if span_name == LOCK_ACQUIRE else "release"
        series["lock.phase_ns", f"kind={self.kind},phase={phase}"].observe(
            ctx.env.now - start)
        return result

    monkeypatch.setattr(RdmaNetwork, "__init__", init_network)
    monkeypatch.setattr(DistributedLock, "__init__", init_lock)
    monkeypatch.setattr(RdmaNetwork, "_observed", timed_verb)
    monkeypatch.setattr(DistributedLock, "_observed_op", timed_op)
    return series


def snapshots(series: dict) -> dict:
    tree: dict = {}
    for name, label in sorted(series):
        tree.setdefault(name, {})[label] = series[name, label].snapshot()
    return tree


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("lock_kind", ["alock", "mcs", "spinlock"])
def test_view_equals_the_push_rule(pushed, lock_kind, seed, plan):
    spec = WorkloadSpec(
        n_nodes=3, threads_per_node=3, n_locks=6, locality_pct=60.0,
        warmup_ns=20_000.0, measure_ns=300_000.0, cs_ns=200.0, seed=seed,
        lock_kind=lock_kind, audit="off", faults=PLANS[plan])
    result = run_workload(spec, obs=INTERVALS)
    assert result.obs_metrics["app"] == snapshots(pushed)
    assert result.dropped_events == 0
    outcomes = Counter(s.attrs.get("outcome") for s in result.spans
                       if s.name in (LOCK_ACQUIRE, VERB_RTT))
    assert outcomes["ok"] > 0
    if plan == "crash":
        # the spans the view must skip are really there
        assert outcomes["error"] > 0 and outcomes["timeout"] > 0
