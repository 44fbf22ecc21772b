"""``PYTHONHASHSEED`` invariance: figure outputs, schedcheck decision
strings and model-checker counterexamples must not depend on the
interpreter's hash seed.

Each probe runs in a fresh interpreter (the hash seed is fixed at
start-up) and prints a digest blob, compared as an exact string with a
golden value.  The goldens are recorded at one hash seed (``python
tests/ci/test_hashseed_identity.py`` prints the current values) and each
test runs its probe once, at another — so one subprocess per probe
checks both the invariance and "byte-identical with the parent commit".
The probes lean on the "smoke" experiment scale.

A change that moves the schedule on purpose (a model change, a
versioned tie-break) re-records them, bumps
``repro.schedcheck.decisions.SCHEDULE_VERSION`` with ``GOLDEN_SCHED``
and says so in CHANGES.md; any other engine or performance change must
not.  docs/architecture.md, "Re-recording the schedule", lists every
artefact that moves with these.
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

VERIFY_PROBE = """\
import hashlib
from repro.verification import ALockSpec, check
for n, budget, bug in ((3, 2, "skip_handoff_wait"), (2, 1, "no_victim_check")):
    cex = check(ALockSpec(n, budget, bug=bug)).counterexample
    print(bug, len(cex.states),
          hashlib.blake2b(str(cex).encode(), digest_size=16).hexdigest())
"""


#: fig5/fig6 smoke digests under ``SCHEDULE_VERSION`` 2 (PR 20: the
#: baselines' verbs tie in a new order; b75e4282…/be9424f7… under
#: version 1, unchanged from PR 11 to PR 19)
GOLDEN_FIG = """\
fig5 a38a97b269e975197882ab83a5a5e7b0
fig6 2d354150279875d48907730db3cd2567
"""

#: the four schedcheck probe lines under ``SCHEDULE_VERSION`` 3; the two
#: long ones (dense picks + fan-outs of a random and a PCT walk) by
#: digest.  Re-recording these is what bumps the version
#: (repro.schedcheck.decisions).
GOLDEN_SCHED = {
    "default": "default c21d591b2398e537b1dd25bdb7401272",
    "random6": "random6 6 []",
    "rw42": "abb6f5a138aef046e637724fa857a70e",
    "pct7": "32558d597fd6826a2b4deb2fed9d2fae",
}

#: the model checker's two counterexamples, rendered: the mutual-exclusion
#: trace of ``skip_handoff_wait`` and the starvation lasso of
#: ``no_victim_check`` (states in the trace, digest of ``str()``)
GOLDEN_VERIFY = """\
skip_handoff_wait 25 5776674b1bf17757ca0757e8eb6d0040
no_victim_check 31 cbc6fdbbf9749143da5d81f396f0320d
"""


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


#: the hash seed every golden is recorded at, and the one it is checked at
RECORD_SEED, CHECK_SEED = "1", "31337"


def test_fig_digests_hashseed_invariant():
    assert _run_probe(FIG_PROBE, CHECK_SEED) == GOLDEN_FIG


def test_decision_strings_hashseed_invariant():
    assert _sched_lines(_run_probe(SCHED_PROBE, CHECK_SEED)) == GOLDEN_SCHED


def test_verification_witnesses_hashseed_invariant():
    assert _run_probe(VERIFY_PROBE, CHECK_SEED) == GOLDEN_VERIFY


if __name__ == "__main__":  # re-record: print what the goldens should be
    print(_run_probe(FIG_PROBE, RECORD_SEED), end="")
    for key, value in _sched_lines(_run_probe(SCHED_PROBE, RECORD_SEED)).items():
        print(f"{key!r}: {value!r},")
    print(_run_probe(VERIFY_PROBE, RECORD_SEED), end="")
