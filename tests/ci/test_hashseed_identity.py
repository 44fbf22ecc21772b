"""``PYTHONHASHSEED`` invariance: figure outputs and schedcheck decision
strings must not depend on the interpreter's hash seed.

Each probe runs in a fresh interpreter (the hash seed is fixed at
start-up) and prints a digest blob; the blobs are compared as exact
strings across two hash seeds.  These are subprocess smokes, so they
lean on the "smoke" experiment scale.
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

FIG_PROBE = """\
import hashlib, json
from repro.experiments import run_experiment
for exp in ("fig5", "fig6"):
    r = run_experiment(exp, scale="smoke")
    digest = hashlib.blake2b(
        json.dumps(r.rows, sort_keys=True).encode(), digest_size=16).hexdigest()
    print(exp, digest)
"""

SCHED_PROBE = """\
from repro.schedcheck.explore import explore_random, run_schedule
from repro.schedcheck.policies import PctPolicy, RandomWalkPolicy
from repro.schedcheck.scenario import LockScenario
sc = LockScenario(lock_kind="alock", n_nodes=2, threads_per_node=2,
                  n_locks=1, ops_per_thread=3, seed=7)
print("default", run_schedule(sc, None).digest)
rep = explore_random(sc, 6, seed=3)
print("random6", rep.distinct_executions,
      [[f.failure_kind, f.decisions.to_string()] for f in rep.failures])
r = run_schedule(sc, RandomWalkPolicy(42))
print("rw42", r.digest, list(r.dense), list(r.fanouts))
r = run_schedule(sc, PctPolicy(7, change_points=3))
print("pct7", r.digest, list(r.dense), list(r.fanouts))
"""


def _run_probe(probe: str, hashseed: str) -> str:
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(REPO, "src"),
        PYTHONHASHSEED=hashseed,
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_fig_digests_hashseed_invariant():
    assert _run_probe(FIG_PROBE, "1") == _run_probe(FIG_PROBE, "31337")


def test_decision_strings_hashseed_invariant():
    assert _run_probe(SCHED_PROBE, "2") == _run_probe(SCHED_PROBE, "424242")
