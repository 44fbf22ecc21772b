"""Names, units, directions and bounds of every ledger metric.

The single source the harness prints from; ``BENCHMARK.json`` must list
the same names with the same units (``run.py --selftest`` compares
them), so a metric cannot be added to one and forgotten in the other.
"""

from __future__ import annotations

import re

from layers import LAYERS

SCHEMA = "alock-ledger/1"

#: how long one invocation measures unless ``--seconds`` says otherwise
RUN_SECONDS = 28

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: (name, unit, better, bound) — bound is the share of the parent's
#: median by which the metric may worsen before it is a regression.
END_TO_END = (
    ("host_us_per_op", "us/op", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("sim_mops", "Mops/s", "higher", 0.15),
    ("sim_p99_us", "us", "lower", 0.25),
)

#: modelled-design results: a function of (commit, seed) only, so two
#: ledgers of one commit and seed must carry identical values.  Their
#: BENCHMARK.json bounds only absorb seed-to-seed variation.
EXACT_END_TO_END = frozenset({"sim_mops", "sim_p99_us"})

#: per-layer metrics read from a cProfile of one traced pass, one set
#: per layer: (suffix, unit, better)
PROFILE_METRICS = (
    ("self_s", "s", "lower"),
    ("share_pct", "%", "lower"),
    ("calls_per_op", "calls/op", "lower"),
    ("resumes_per_op", "resumes/op", "lower"),
)

#: per-layer metrics read from public counters; all exact
COUNTER_METRICS = (
    ("sim.events_per_op", "events/op", "lower"),
    ("sim.resources.serves_per_op", "serves/op", "lower"),
    ("sim.resources.rx_peak_queue", "count", "lower"),
    ("rdma.verbs_per_op", "verbs/op", "lower"),
    ("rdma.loopback_verbs_per_op", "verbs/op", "lower"),
    ("rdma.qpc_miss_rate", "ratio", "lower"),
    ("rdma.tx_util_max", "ratio", "lower"),
    ("rdma.rx_util_max", "ratio", "lower"),
    ("memory.word_ops_per_op", "ops/op", "lower"),
    ("cluster.local_ops_per_op", "ops/op", "lower"),
    ("cluster.remote_ops_per_op", "ops/op", "lower"),
    ("locks.local_op_share_pct", "%", "higher"),
    ("workload.ops_per_pass", "ops", "higher"),
    ("parallel.cells_per_pass", "cells", "higher"),
    ("schedcheck.schedules_per_pass", "schedules", "higher"),
    ("schedcheck.distinct_executions", "count", "higher"),
)

#: per-layer metrics that depend on host time
TIMED_LAYER_METRICS = (
    ("sim.host_us_per_event", "us/event", "lower"),
    ("trace.overhead_x", "x", "lower"),
)

PER_LAYER = tuple(
    (f"{layer}.{suffix}", unit, better)
    for layer in LAYERS
    for suffix, unit, better in PROFILE_METRICS
) + COUNTER_METRICS + TIMED_LAYER_METRICS

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

