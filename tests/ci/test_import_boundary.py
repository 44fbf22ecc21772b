"""What a single-process run loads: the schedule walk and the workload
runner must import neither the process-pool stack nor numpy, and a run
loads only the modules on its own path.

The fleet (:mod:`repro.schedcheck.fleet`) fans walks over worker
processes through :mod:`repro.parallel`, which brings in
:mod:`multiprocessing`, :mod:`concurrent.futures` and some forty more
modules (≈ 2 MiB of peak RSS).  Nothing a walk or a workload run does
uses them, so ``repro.schedcheck`` does not re-export the fleet.  numpy
is the analysis layer's (result arrays, latency summaries, fairness,
experiments): the simulator's streams are pure Python
(:class:`repro.common.rng.Draws`), so a walk, and a cluster built for a
workload cell, never load it.  This test keeps an import of either from
coming back unnoticed.

The packages re-export lazily and the lock registry imports a kind on
its first ``make_lock`` (DESIGN.md decision 26), so a run pays for the
modules it uses: one lock kind, not seven; the corpus, the shrinker,
the post-mortem, the result and fairness modules and the fault layer
only when a run uses them.  A passing fault-free walk uses none of
them, an ALock cell loads no baseline or extension lock, and an MCS +
spinlock cell no ALock.  The post-mortem is built only for a failed run
(:func:`repro.obs.postmortem.failure_dump`), so a passing count-mode
run, judged by the same verdict as a walk, never loads it either.

Each probe runs in a fresh interpreter, since the test session itself
has long loaded everything; the probe does the work, not just the
import, so a lazy import on the run's path counts.
"""

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: modules a walk or a cluster build must not load: the process pool's
#: and numpy
ABSENT = ("repro.parallel", "repro.schedcheck.fleet",
          "multiprocessing", "concurrent.futures", "numpy")

#: a 2 x 2 ALock walk, a few random and PCT schedules, every one ok
WALK = """\
from repro.schedcheck import LockScenario, explore_random
scenario = LockScenario(lock_kind="alock", n_nodes=2, threads_per_node=2,
                        ops_per_thread=2)
for policy in ("random", "pct"):
    report = explore_random(scenario, 3, seed=1, policy=policy)
    assert report.ok_count == report.schedules_run == 3, report
"""

#: the cluster and lock table of a 20 x 12 paper cell (1000 locks, 95 %)
CELL = """\
from repro.workload import WorkloadSpec
from repro.workload.runner import build_cluster
spec = WorkloadSpec(n_nodes=20, threads_per_node=12, n_locks=1000,
                    locality_pct=95.0, measure_ns=1e6)
cluster, table = build_cluster(spec)
assert len(table.entries) == 1000
"""

#: a passing count-mode run, judged by the full verdict (counters, audit)
COUNT_RUN = """\
from repro.workload import WorkloadSpec, run_workload
spec = WorkloadSpec(n_nodes=2, threads_per_node=2, n_locks=4,
                    locality_pct=50.0, ops_per_thread=5, cs_counter=True,
                    audit="record")
assert run_workload(spec).completed_ops == 20
"""

#: the same cell built for each baseline, as the baseline ledger runs it
BASELINE_CELLS = """\
from repro.workload import WorkloadSpec
from repro.workload.runner import build_cluster
for kind in ("mcs", "spinlock"):
    spec = WorkloadSpec(n_nodes=20, threads_per_node=12, n_locks=1000,
                        locality_pct=95.0, measure_ns=1e6, lock_kind=kind)
    cluster, table = build_cluster(spec)
    assert {entry.lock.kind for entry in table.entries} == {kind}
"""

#: the lock kinds an ALock run does not make
OTHER_LOCKS = ("repro.locks.baselines", "repro.locks.extensions", "repro.rdma.rpc")
#: what a passing fault-free walk never uses: the other lock kinds, the
#: corpus and the shrinker, the post-mortem, the result and fairness
#: modules, and the fault layer
WALK_ABSENT = ABSENT + OTHER_LOCKS + (
    "repro.schedcheck.corpus", "repro.schedcheck.shrink",
    "repro.obs.postmortem", "repro.workload.metrics",
    "repro.workload.fairness", "repro.faults")


def _loaded(code, modules=ABSENT):
    """The modules of ``modules`` that running ``code`` loaded."""
    probe = (f"{code}\nimport sys\n"
             f"print(' '.join(m for m in {modules!r} if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run([sys.executable, "-c", probe], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("module", ["repro.schedcheck", "repro.workload.runner"])
def test_single_process_run_does_not_load_the_pool(module):
    assert _loaded(f"import {module}") == []


@pytest.mark.parametrize("work", [WALK, CELL], ids=["walk", "cell"])
def test_walk_and_cell_build_load_neither_pool_nor_numpy(work):
    assert _loaded(work) == []


@pytest.mark.parametrize("work, absent", [
    (WALK, WALK_ABSENT),
    # an audit="off" cell has no access sink and no race auditor
    (CELL, ABSENT + OTHER_LOCKS + ("repro.memory.races",)),
    (BASELINE_CELLS, ABSENT + ("repro.locks.alock", "repro.memory.races")),
    (COUNT_RUN, ("repro.obs.postmortem",)),
], ids=["walk", "alock-cell", "mcs-spinlock-cell", "count-run"])
def test_a_run_loads_only_the_modules_on_its_path(work, absent):
    assert _loaded(work, absent) == []
