"""Fixtures and helpers shared by the parallel-engine tests."""

import json

import pytest

from repro.locks import LOCK_TYPES, register_lock_type
from repro.parallel import CellFailure
from tests.obs.test_postmortem import HangLock


@pytest.fixture
def hang():
    """A registered lock kind whose every cell deadlocks inside the run
    (pool workers fork after registration, so they see it too)."""
    register_lock_type("hang", HangLock)
    yield "hang"
    del LOCK_TYPES["hang"]


def outcome_bytes(outcomes) -> bytes:
    """``pmap_outcomes`` results as canonical bytes: per run its spec,
    summary row, raw latency samples and per-thread op counts; per
    failure its error's first line (the traceback below it names
    process-specific paths)."""
    parts = []
    for out in outcomes:
        if isinstance(out, CellFailure):
            parts.append(["failed", out.error.splitlines()[0]])
        else:
            parts.append([repr(out.spec), out.summary_row(),
                          out.latencies_ns.tolist(), out.local_mask.tolist(),
                          sorted(out.per_thread_ops.items()), out.nic_stats])
    return json.dumps(parts, sort_keys=True).encode()
