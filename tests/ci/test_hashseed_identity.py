"""``PYTHONHASHSEED`` invariance: figure outputs and schedcheck decision
strings must not depend on the interpreter's hash seed.

Each probe runs in a fresh interpreter (the hash seed is fixed at
start-up) and prints a digest blob; the blobs are compared as exact
strings across two hash seeds.  These are subprocess smokes, so they
lean on the "smoke" experiment scale.

The same blobs are also compared with golden values, so "byte-identical
with the parent commit" is asserted here rather than checked by hand.
A change that moves the schedule on purpose (a model change, a
versioned tie-break) re-records them — ``python
tests/ci/test_hashseed_identity.py`` prints the current values — and
says so in CHANGES.md; an engine or performance change must not.
"""

import hashlib
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


#: fig5/fig6 smoke digests, unchanged since PR 11 (ca30824 and before)
GOLDEN_FIG = """\
fig5 b75e428268a2e47ebac3db3ff0dd3829
fig6 be9424f76b2fb0898a8d463a661f76d2
"""

#: the four schedcheck probe lines as printed at ca30824; the two long
#: ones (dense picks + fan-outs of a random and a PCT walk) by digest
GOLDEN_SCHED = {
    "default": "default c35ce1a93ae69d1517b46ec4c93c6178",
    "random6": "random6 6 []",
    "rw42": "d261f178134a2a9ac28359e21c98d289",
    "pct7": "aa7750fa8c5a81a87d5b85ef628eb5f7",
}


def _sched_lines(blob: str) -> dict:
    """Probe output keyed by its first word; long lines hashed."""
    out = {}
    for line in blob.splitlines():
        key = line.split(" ", 1)[0]
        out[key] = (line if len(line) < 80 else
                    hashlib.blake2b(line.encode(), digest_size=16).hexdigest())
    return out


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
    blob = _run_probe(FIG_PROBE, "1")
    assert blob == _run_probe(FIG_PROBE, "31337")
    assert blob == GOLDEN_FIG


def test_decision_strings_hashseed_invariant():
    blob = _run_probe(SCHED_PROBE, "2")
    assert blob == _run_probe(SCHED_PROBE, "424242")
    assert _sched_lines(blob) == GOLDEN_SCHED


if __name__ == "__main__":  # re-record: print what the goldens should be
    print(_run_probe(FIG_PROBE, "1"), end="")
    for key, value in _sched_lines(_run_probe(SCHED_PROBE, "2")).items():
        print(f"{key!r}: {value!r},")
