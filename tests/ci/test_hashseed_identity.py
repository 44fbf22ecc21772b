"""``PYTHONHASHSEED`` invariance — the repository's one determinism gate.

Every artefact that must not depend on the interpreter's hash seed is
one row here:

* the fig5/fig6 smoke rows (the smoke experiments' one child, the
  ``smoke_figure`` fixture in ``tests/conftest.py``);
* the schedcheck probe lines: a default run, a random exploration and
  the decision strings of a random and a PCT walk;
* the model checker's two counterexamples;
* the obs export: one instrumented workload's Perfetto trace, metrics
  and phase summary;
* the exploration and fleet transcript: digests, decision strings and
  replays of random and PCT walks, and a fleet over the seeded bugs;
* the post-mortem of the seeded ``lost_wakeup`` bug: its dump, Perfetto
  slice and rendered report;
* simlint's findings, in order, over ``tests/lint/fixtures``.

Each row's probe runs in one fresh interpreter (the hash seed is fixed
at start-up) at ``CHECK_SEED`` and prints a blob compared exactly with a
golden recorded at ``RECORD_SEED``, so one subprocess per row checks
both the invariance and "byte-identical with the parent commit".  Every
child prints its ``PYTHONHASHSEED`` first, and every row checks it.
``python tests/ci/test_hashseed_identity.py`` prints every golden at
``RECORD_SEED``.

A change that moves the schedule on purpose (a model change, a
versioned tie-break) re-records them, bumps
``repro.schedcheck.decisions.SCHEDULE_VERSION`` with ``GOLDEN_SCHED``
and says so in CHANGES.md; any other engine or performance change must
not.  docs/architecture.md, "Re-recording the schedule", lists every
artefact that moves with these.
"""

import functools
import hashlib
import json
import os
import pickle
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: the hash seed every golden is recorded at, and the one it is checked at
RECORD_SEED, CHECK_SEED = "1", "31337"

#: what every child prints first
SEED_LINE = 'import os\nprint("PYTHONHASHSEED=" + os.environ["PYTHONHASHSEED"])\n'

#: every experiment at smoke scale and seed 0, pickled to ``argv[1]``
#: with what :func:`tests.conftest.recorded_fanout` saw of each
SMOKE_PROBE = """\
import pickle, sys
from repro.experiments import EXPERIMENTS, run_experiment
from tests.conftest import recorded_fanout
results, fanout = {}, {}
for exp in EXPERIMENTS:
    with recorded_fanout() as record:
        results[exp] = run_experiment(exp, scale="smoke", seed=0)
    fanout[exp] = record
with open(sys.argv[1], "wb") as fh:
    pickle.dump((results, fanout), fh)
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

OBS_PROBE = """\
from repro.obs import INTERVALS
from repro.obs.export import CapturedRun, metrics_json, trace_json
from repro.obs.phases import extract_operations, phase_summary
from repro.workload import WorkloadSpec, run_workload
result = run_workload(WorkloadSpec(
    n_nodes=3, threads_per_node=2, n_locks=6, locality_pct=75.0,
    ops_per_thread=8, cs_ns=300.0, seed=3, lock_kind="alock",
    audit="off"), obs=INTERVALS)
run = CapturedRun("obs-selftest", result.spans, result.obs_metrics)
ops = extract_operations(result.spans)
print(f"ops={len(ops)}")
print(f"phase_summary={sorted(phase_summary(ops).items())}")
print(f"trace={trace_json([run])}")
print(f"metrics={metrics_json([run])}")
"""

TRANSCRIPT_PROBE = """\
import hashlib
from repro.common.rng import derive_seed
from repro.schedcheck.explore import explore_random, replay, run_schedule
from repro.schedcheck.fleet import SEEDED_BUGS, FleetConfig, run_fleet
from repro.schedcheck.policies import FifoPolicy, make_policy
from repro.schedcheck.scenario import LockScenario
sc = LockScenario(lock_kind="alock", n_nodes=2, threads_per_node=2,
                  ops_per_thread=2, seed=5)
base = run_schedule(sc, None)
fifo = run_schedule(sc, FifoPolicy())
print(f"baseline digest={base.digest} events={base.events}")
print(f"fifo     digest={fifo.digest} match={fifo.digest == base.digest}")
for kind in ("random", "pct"):
    for i in range(3):
        r = run_schedule(sc, make_policy(kind, derive_seed(17, "selftest", kind, i)))
        print(f"{kind}[{i}] digest={r.digest} "
              f"decisions={r.decisions.to_string() or '-'} "
              f"replay_match={replay(sc, r.decisions).digest == r.digest}")
print("explore:", explore_random(sc, 6, seed=23).summary())
fleet = run_fleet(FleetConfig(
    scenarios=tuple((name, bug_sc) for name, bug_sc, _b in SEEDED_BUGS),
    budget=32, seed=1))
print("fleet: report_digest="
      + hashlib.blake2b(fleet.to_json_bytes(), digest_size=8).hexdigest())
for s in fleet.scenarios:
    entry = "-" if s.entry is None else (
        f"{s.entry.stem()} decisions=\\"{s.entry.decisions}\\"")
    print(f"fleet[{s.name}]: run={s.schedules_run} "
          f"distinct={s.distinct_executions} "
          f"first_find={s.first_find} entry={entry}")
"""

REPORT_PROBE = """\
import hashlib, json
from repro.obs.report import perfetto_json, render_report
from repro.schedcheck.explore import explore_random
from repro.schedcheck.scenario import LockScenario
scenario = LockScenario(
    lock_kind="mcs", n_nodes=1, threads_per_node=3, ops_per_thread=3,
    seed=0, lock_options=(("bug", "lost_wakeup"), ("poll_interval_ns", 200.0)))
failure = explore_random(scenario, 50, seed=1, stop_on_failure=True).first_failure
dump = json.loads(failure.dump)
report = render_report(dump)
for name, text in (("dump", failure.dump), ("perfetto", perfetto_json(dump)),
                   ("report", report)):
    print(name, len(text), hashlib.blake2b(text.encode(), digest_size=16).hexdigest())
print(report.splitlines()[-1])
"""

LINT_PROBE = """\
import hashlib
from pathlib import Path
from repro.lint import lint_file
rendered = [f.render() for path in sorted(Path("tests/lint/fixtures").glob("*.py"))
            for f in lint_file(path, module="repro.sim.fixture")]
print("findings", len(rendered),
      hashlib.blake2b("\\n".join(rendered).encode(), digest_size=16).hexdigest())
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

#: sha256 of the obs export, recorded while spans were still recorded
#: eagerly: the span view's replay must rebuild the same ids, parents,
#: attrs and outcomes.  Re-recorded under ``SCHEDULE_VERSION`` 3: the
#: same end-to-end latencies; ALock's swap opens the wait it decides, so
#: a leader's private budget store falls inside its ``peterson.compete``
#: span and a follower's link write inside its ``mcs.queue_wait``.
GOLDEN_OBS = "382dc32313118273c8e366eed70e9a4ce7a97006fc80bf0e7ba1c46e9867d710"

#: the exploration and fleet transcript under ``SCHEDULE_VERSION`` 3,
#: keyed by first word; the long lines by digest
GOLDEN_TRANSCRIPT = {
    "baseline": "baseline digest=94d4de36124f67cae6e44c35589b0f42 events=235",
    "fifo": "fifo     digest=94d4de36124f67cae6e44c35589b0f42 match=True",
    "random[0]": "867bc26af03d3ff7eb3d5732f179a6c0",
    "random[1]": "4fd093881ae54cb5124698756a140e0d",
    "random[2]": "da6b5af1918f2fb8aaccd2fa7dfe860c",
    "pct[0]": "f0a169d6bdc30781f99b4b4e7b2ca612",
    "pct[1]": "9032cbad384a5004f41b09422f3a2263",
    "pct[2]": "d304f71e327492b749ee9a7ae926b739",
    "explore:": "explore: 6 schedules: 6 ok, 0 failed, 6 distinct executions",
    "fleet:": "fleet: report_digest=f8f3404a464f6a05",
    "fleet[no_victim_check]:": "e4c0d361fc894079d3f955db435bf1cf",
    "fleet[skip_budget_wait]:": "bb5a92d395bfd32199f1d3065fd601af",
    "fleet[lost_wakeup]:": "8b4f1a2817f59e36adac012e4969ec4b",
}

#: the first ``lost_wakeup`` failure's post-mortem under
#: ``SCHEDULE_VERSION`` 3 (characters and digest of the dump JSON, its
#: Perfetto slice and the report), and the report's suspected rule
GOLDEN_REPORT = """\
dump 3878 cc067b2e0282e67bec2dd6c2338bb9bc
perfetto 6561 f0fbf4455cf93b92653a7953824b9b17
report 3428 489619719589229fafdfd41644d12eaf
suspected rule: lost wakeup: the schedule drained with waiters parked \
— a wakeup write landed between a check and its park (region-bypass)
"""

#: simlint's findings over its fixtures, linted as simulator modules
#: (count, digest of the rendered list in order)
GOLDEN_LINT = """\
findings 36 e27d6d7ffe1c8321512ce34c4ed24db1
"""


def run_probe(probe: str, hashseed: str, *args: str) -> tuple[str, str]:
    """Run ``probe`` (with ``args`` as its ``argv``) in a fresh
    interpreter at ``hashseed``, from the repository root with ``src``
    and the root importable; returns the hash seed the child reports and
    what it printed after that."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.pathsep.join([os.path.join(REPO, "src"), REPO]))
    proc = subprocess.run(
        [sys.executable, "-c", SEED_LINE + probe, *args],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    seed_line, _, blob = proc.stdout.partition("\n")
    return seed_line.removeprefix("PYTHONHASHSEED="), blob


def smoke_experiments(hashseed: str, path: str) -> tuple[str, dict, dict]:
    """Every experiment at smoke scale in one interpreter at
    ``hashseed``, pickled through ``path``: the hash seed the child
    reports, ``{id: ExperimentResult}`` and ``{id: fan-out record}``."""
    seed, _ = run_probe(SMOKE_PROBE, hashseed, path)
    with open(path, "rb") as fh:
        results, fanout = pickle.load(fh)
    return seed, results, fanout


def fig_lines(result_of) -> str:
    """One line per figure: the digest of its smoke rows."""
    return "".join(
        f"{exp} " + hashlib.blake2b(
            json.dumps(result_of(exp).rows, sort_keys=True).encode(),
            digest_size=16).hexdigest() + "\n"
        for exp in ("fig5", "fig6"))


def keyed_lines(blob: str) -> dict:
    """Probe output keyed by its first word; long lines hashed."""
    out = {}
    for line in blob.splitlines():
        key = line.split(" ", 1)[0]
        out[key] = (line if len(line) < 80 else
                    hashlib.blake2b(line.encode(), digest_size=16).hexdigest())
    return out


def sha256(blob: str) -> str:
    return hashlib.sha256(blob.encode()).hexdigest()


@functools.cache
def at_check_seed(probe: str) -> str:
    """``probe``'s output at ``CHECK_SEED``; one child per probe per
    session, shared by every test that reads it."""
    seed, blob = run_probe(probe, CHECK_SEED)
    assert seed == CHECK_SEED != RECORD_SEED
    return blob


def test_fig_digests_hashseed_invariant(smoke_figure):
    assert smoke_figure.hashseed == CHECK_SEED != RECORD_SEED
    assert fig_lines(smoke_figure) == GOLDEN_FIG


def test_decision_strings_hashseed_invariant():
    assert keyed_lines(at_check_seed(SCHED_PROBE)) == GOLDEN_SCHED


def test_verification_witnesses_hashseed_invariant():
    assert at_check_seed(VERIFY_PROBE) == GOLDEN_VERIFY


def test_obs_export_hashseed_invariant():
    assert sha256(at_check_seed(OBS_PROBE)) == GOLDEN_OBS


def test_exploration_transcript_hashseed_invariant():
    assert keyed_lines(at_check_seed(TRANSCRIPT_PROBE)) == GOLDEN_TRANSCRIPT


def test_postmortem_report_hashseed_invariant():
    assert at_check_seed(REPORT_PROBE) == GOLDEN_REPORT


def test_lint_order_hashseed_invariant():
    assert at_check_seed(LINT_PROBE) == GOLDEN_LINT


if __name__ == "__main__":  # re-record: print what the goldens should be
    def at_record_seed(probe: str) -> str:
        seed, blob = run_probe(probe, RECORD_SEED)
        assert seed == RECORD_SEED
        return blob

    with tempfile.TemporaryDirectory() as tmp:
        seed, results, _fanout = smoke_experiments(
            RECORD_SEED, os.path.join(tmp, "smoke.pickle"))
    assert seed == RECORD_SEED
    print(fig_lines(results.__getitem__), end="")
    for probe in (SCHED_PROBE, TRANSCRIPT_PROBE):
        for key, value in keyed_lines(at_record_seed(probe)).items():
            print(f"{key!r}: {value!r},")
    print(at_record_seed(VERIFY_PROBE), end="")
    print(sha256(at_record_seed(OBS_PROBE)))
    print(at_record_seed(REPORT_PROBE), end="")
    print(at_record_seed(LINT_PROBE), end="")
