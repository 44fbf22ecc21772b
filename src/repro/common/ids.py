"""Identifier types for nodes and threads.

The paper writes ``t_i^j`` for thread *j* on node *i*.  We keep plain
integers at runtime (they index lists and dict keys in hot paths)
but give them distinct aliases so signatures document which id a function
expects, and provide a packed *global* thread id used as the owner tag in
lock words.
"""

from __future__ import annotations

from typing import NewType

NodeId = NewType("NodeId", int)
ThreadId = NewType("ThreadId", int)

#: Packed (node, thread) identifier: ``node * _THREADS_PER_NODE_MAX + thread``.
GlobalThreadId = NewType("GlobalThreadId", int)

#: Upper bound on threads per node used for packing global ids.  The paper's
#: largest configuration is 12 threads/node; 4096 leaves generous headroom
#: while keeping global ids small enough to store in an 8-byte lock word.
_THREADS_PER_NODE_MAX = 4096


def make_global_thread_id(node: int, thread: int) -> GlobalThreadId:
    """Pack ``(node, thread)`` into a single integer id.

    Global ids start at 1 so that 0 can stand for "no owner" inside lock
    words (NULL semantics mirror the paper's descriptor pointers).
    """
    if node < 0 or thread < 0:
        raise ValueError(f"node/thread ids must be non-negative, got ({node}, {thread})")
    if thread >= _THREADS_PER_NODE_MAX:
        raise ValueError(f"thread id {thread} exceeds packing bound {_THREADS_PER_NODE_MAX}")
    return GlobalThreadId(node * _THREADS_PER_NODE_MAX + thread + 1)


def split_global_thread_id(gid: int) -> tuple[int, int]:
    """Inverse of :func:`make_global_thread_id`."""
    if gid < 1:
        raise ValueError(f"global thread ids start at 1, got {gid}")
    raw = gid - 1
    return raw // _THREADS_PER_NODE_MAX, raw % _THREADS_PER_NODE_MAX
