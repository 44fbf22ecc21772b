"""RDMA-accessible memory substrate.

Each node owns one :class:`MemoryRegion` — 8-byte words held as plain
ints, addressable from every node.  Pointers into this address space are
packed integers (node id in the high bits, byte address below — the
paper's ``rdma_ptr``).  Regions support:

* word-granularity reads/writes/CAS (the paper's ``Read``/``Write``/``CAS``);
* **watchers** — event-driven local spinning (a write to a watched word
  wakes the waiter), the mechanism behind MCS local spin;
* a two-phase remote-RMW hook so a remote CAS is *visibly* a read
  followed by a write at the target, reproducing the paper's Table 1
  atomicity gap;
* an access sink that sees every word access; the race auditor
  (:mod:`repro.memory.races`, loaded only by a cluster that audits)
  consumes it to record (or raise on) local/remote RMW overlaps — the
  'No' cells of Table 1.
"""

from repro.memory.pointer import (
    ADDR_BITS,
    NODE_BITS,
    NULL_PTR,
    RdmaPointer,
    is_null,
    pack_ptr,
    ptr_addr,
    ptr_node,
)
from repro.memory.layout import StructLayout, WordField
from repro.memory.region import MemoryRegion

__all__ = [
    "NODE_BITS",
    "ADDR_BITS",
    "NULL_PTR",
    "RdmaPointer",
    "pack_ptr",
    "ptr_node",
    "ptr_addr",
    "is_null",
    "MemoryRegion",
    "StructLayout",
    "WordField",
]
