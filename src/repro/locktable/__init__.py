"""Distributed lock table (the paper's evaluation application, §6).

Locks are partitioned equally across nodes; each lock guards an 8-byte
counter in the same node's memory.  Clients acquire a lock, increment
the guarded counter from inside the critical section, and release.  The
final counter sum must equal the number of completed operations — a
machine-checked mutual-exclusion witness on every run (a lost update
means two threads overlapped in a critical section).
"""

from repro.locktable.table import (DistributedLockTable, LockEntry,
                                   count_deadline_ns)

__all__ = ["DistributedLockTable", "LockEntry", "count_deadline_ns"]
