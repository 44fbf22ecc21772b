"""Failed cells carry their post-mortem dump across the process
boundary as a plain JSON string (CellFailure.dump)."""

import json

from repro.obs.postmortem import SCHEMA
from repro.parallel import CellFailure, pmap_outcomes
from repro.workload.spec import WorkloadSpec


def test_failed_cell_carries_dump(hang):
    ok_spec = WorkloadSpec(n_nodes=1, threads_per_node=1, n_locks=1,
                           ops_per_thread=2, seed=0, audit="off",
                           lock_kind="spinlock")
    good, bad = pmap_outcomes([ok_spec, ok_spec.with_(lock_kind=hang)],
                              workers=0)
    assert not isinstance(good, CellFailure)
    assert isinstance(bad, CellFailure) and "parked with an empty schedule" in bad.error
    dump = json.loads(bad.dump)
    assert dump["schema"] == SCHEMA
    assert dump["reason"] == "deadlock"
    assert any("hang[0]@n0.never" in p["waiting_on"]
               for p in dump["processes"])
