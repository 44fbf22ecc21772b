"""Experiment ``table1`` — the local/remote atomicity matrix (paper §4).

Reproduces Table 1 *behaviourally*: for each (local op, remote op) pair
we stress one shared word from a local thread and a remote thread
simultaneously and decide, from the race auditor and from lost-update
evidence, whether the pair is atomic.  The result must match the paper's
matrix:

=============  ======  =======  =====
local \\ remote rRead   rWrite   rCAS
=============  ======  =======  =====
Read           Yes     Yes      Yes
Write          Yes     Yes      **No**
RMW            Yes     Yes      **No**
=============  ======  =======  =====
"""

from __future__ import annotations

from repro.cluster import Cluster
from repro.experiments.base import ExperimentResult
from repro.memory.pointer import ptr_addr

LOCAL_OPS = ("Read", "Write", "RMW")
REMOTE_OPS = ("rRead", "rWrite", "rCAS")

EXPECTED = {
    ("Read", "rRead"): True, ("Read", "rWrite"): True, ("Read", "rCAS"): True,
    ("Write", "rRead"): True, ("Write", "rWrite"): True, ("Write", "rCAS"): False,
    ("RMW", "rRead"): True, ("RMW", "rWrite"): True, ("RMW", "rCAS"): False,
}


def _stress_pair(local_op: str, remote_op: str, *, rounds: int = 40,
                 seed: int = 0) -> bool:
    """Run the pair concurrently on one word; True if it behaved
    atomically (no auditor violation)."""
    cluster = Cluster(2, seed=seed, audit="record")
    ptr = cluster.alloc_on(1, 64)
    region = cluster.regions[1]
    addr = ptr_addr(ptr)
    local = cluster.thread_ctx(1, 0)
    remote = cluster.thread_ctx(0, 0)
    env = cluster.env

    def remote_proc():
        for i in range(rounds):
            if remote_op == "rRead":
                yield from remote.r_read(ptr)
            elif remote_op == "rWrite":
                yield from remote.r_write(ptr, i)
            else:  # rCAS: always-matching compare so it commits
                current = region.peek(addr)
                yield from remote.r_cas(ptr, current, i)

    def local_proc():
        # Tight loop so local ops land throughout the remote op windows.
        for i in range(rounds * 20):
            if local_op == "Read":
                yield from local.read(ptr)
            elif local_op == "Write":
                yield from local.write(ptr, 1000 + i)
            else:  # RMW
                current = region.peek(addr)
                yield from local.cas(ptr, current, 2000 + i)

    env.process(remote_proc())
    env.process(local_proc())
    cluster.run()
    return cluster.auditor.violation_count == 0


def run(scale: str = "small", seed: int = 0,
        workers: int = 0) -> ExperimentResult:
    """``workers`` is unused: the probes read a raw ``Cluster``'s race
    auditor, so there is no sealed ``WorkloadSpec`` cell to shard."""
    rounds = {"smoke": 15, "small": 40, "paper": 120}.get(scale, 40)
    result = ExperimentResult(
        "table1", "Atomicity between 8-byte local and remote accesses", scale)
    for local_op in LOCAL_OPS:
        for remote_op in REMOTE_OPS:
            atomic = _stress_pair(local_op, remote_op, rounds=rounds, seed=seed)
            expected = EXPECTED[(local_op, remote_op)]
            result.rows.append({
                "local_op": local_op,
                "remote_op": remote_op,
                "atomic": "Yes" if atomic else "No",
                "paper_says": "Yes" if expected else "No",
                "match": atomic == expected,
            })
            result.check(f"{local_op} vs {remote_op} matches Table 1",
                         atomic == expected)
    return result
