"""Tier-1 observability gates.

1. **Byte determinism across hash seeds** — the full exported output
   (trace JSON + metrics JSON + phase summary) of an instrumented run
   must be byte-identical under different ``PYTHONHASHSEED`` values.
   Any set/dict-ordering leak in the obs layer fails this immediately.
2. **Non-perturbation** — the recording level must not change what
   the simulation *measures*: same ops, same latency samples, same
   final sim time, at every level.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np

from repro.obs import INTERVALS, PROTOCOL, RING
from repro.obs.selftest import selftest_output
from repro.workload.runner import run_workload
from repro.workload.spec import WorkloadSpec

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: sha256 of the selftest's stdout (Perfetto JSON + metrics JSON + phase
#: summary), recorded while spans were still recorded eagerly: the span
#: view's replay must rebuild the same ids, parents, attrs and outcomes.
#: Re-recorded under ``SCHEDULE_VERSION`` 3: the same end-to-end
#: latencies; ALock's swap opens the wait it decides, so a leader's
#: private budget store falls inside its ``peterson.compete`` span and
#: a follower's link write inside its ``mcs.queue_wait``.
SELFTEST_SHA256 = \
    "382dc32313118273c8e366eed70e9a4ce7a97006fc80bf0e7ba1c46e9867d710"


def run_selftest(hashseed: str) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs.selftest"],
        capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


class TestHashSeedDeterminism:
    def test_selftest_byte_identical_across_hash_seeds(self):
        out0 = run_selftest("0")
        out1 = run_selftest("12345")
        h0 = hashlib.sha256(out0).hexdigest()
        h1 = hashlib.sha256(out1).hexdigest()
        assert h0 == h1, "obs output depends on PYTHONHASHSEED"
        assert h0 == SELFTEST_SHA256, "exported spans/metrics changed"
        # Sanity: the output is substantive, not an empty trace.
        assert b'"ph":"X"' in out0 and b"phase_summary" in out0

    def test_selftest_stable_in_process(self):
        assert selftest_output(seed=3) == selftest_output(seed=3)


class TestNonPerturbation:
    def run(self, obs):
        spec = WorkloadSpec(
            n_nodes=3, threads_per_node=2, n_locks=5, locality_pct=85.0,
            ops_per_thread=10, cs_ns=350.0, seed=7, lock_kind="alock",
            audit="off")
        return run_workload(spec, obs=obs)

    def test_observability_does_not_change_measurements(self):
        base = self.run(RING)
        traced = self.run(PROTOCOL)
        full = self.run(INTERVALS)
        for res in (traced, full):
            assert res.measured_ops == base.measured_ops
            assert res.window_ns == base.window_ns
            assert np.array_equal(
                np.asarray(res.latencies_ns), np.asarray(base.latencies_ns))
        # spans and metrics come back only at INTERVALS
        assert not base.spans and not traced.spans and full.spans
        assert not base.obs_metrics and not traced.obs_metrics
        assert full.obs_metrics["network"]["verbs"]["rCAS"] > 0
        assert full.obs_metrics["app"]["lock.phase_ns"]["kind=alock,phase=acquire"][
            "count"] == full.measured_ops
