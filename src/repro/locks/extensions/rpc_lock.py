"""RPC-based lock service (the §1 alternative ALock avoids).

One server process per node owns every lock homed there; clients send
``("lock", lock_id)`` / ``("unlock", lock_id)`` requests over the
two-sided transport.  The server grants in FIFO order and defers the
reply of a queued waiter until the holder's unlock arrives — the client
simply blocks on its RPC.

Correctness is trivial (one CPU serializes everything — there is no
local/remote atomicity question at all), which is precisely why RPCs
remain common in RDMA systems (§1).  The measured price: two message
traversals per operation, and the server CPU as a shared bottleneck —
even *local* clients queue behind it.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.common.errors import ProtocolError
from repro.locks.base import (
    DistributedLock,
    observed_acquire,
    observed_release,
    register_lock_type,
)
from repro.rdma.rpc import RpcRequest, RpcTransport

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster, ThreadContext


class RpcLockService:
    """The per-cluster lock service: one transport + one server process
    per node.  Created lazily and cached on the cluster so every
    :class:`RpcLock` shares it."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.transport = RpcTransport(cluster.env, cluster.network)
        # lock_id -> holder gid (0 = free); lock_id -> FIFO of waiting requests
        self._holders: dict[int, int] = {}
        self._waiters: dict[int, deque] = {}
        self._next_lock_id = 0
        self.grants = 0
        self.deferred_grants = 0
        for node in range(cluster.n_nodes):
            cluster.env.process(
                self.transport.serve(node, self._make_handler(node)),
                name=f"rpc-lock-server-{node}")

    @classmethod
    def shared(cls, cluster: "Cluster") -> "RpcLockService":
        service = getattr(cluster, "_rpc_lock_service", None)
        if service is None:
            service = cls(cluster)
            cluster._rpc_lock_service = service
        return service

    def new_lock_id(self) -> int:
        lock_id = self._next_lock_id
        self._next_lock_id += 1
        self._holders[lock_id] = 0
        self._waiters[lock_id] = deque()
        return lock_id

    def _make_handler(self, node: int):
        def handler(request: RpcRequest):
            op, lock_id, gid = request.payload
            if op == "lock":
                if self._holders[lock_id] == 0:
                    self._holders[lock_id] = gid
                    self.grants += 1
                    return "granted", False
                self._waiters[lock_id].append((request, gid))
                return None, True  # deferred until the unlock arrives
            if op == "unlock":
                if self._holders[lock_id] != gid:
                    return "not-holder", False
                waiters = self._waiters[lock_id]
                if waiters:
                    next_request, next_gid = waiters.popleft()
                    self._holders[lock_id] = next_gid
                    self.grants += 1
                    self.deferred_grants += 1
                    self.transport.reply(node, next_request, "granted")
                else:
                    self._holders[lock_id] = 0
                return "released", False
            return "bad-op", False  # pragma: no cover - defensive

        return handler


class RpcLock(DistributedLock):
    """Client-side handle for one lock managed by the RPC service."""

    kind = "rpc"

    def __init__(self, cluster: "Cluster", home_node: int, name: str = ""):
        super().__init__(cluster, home_node, name)
        self.service = RpcLockService.shared(cluster)
        self.lock_id = self.service.new_lock_id()

    @observed_acquire
    def lock(self, ctx: "ThreadContext"):
        reply = yield from self.service.transport.call(
            ctx.node_id, ctx.thread_id, self.home_node,
            ("lock", self.lock_id, ctx.gid))
        if reply != "granted":  # pragma: no cover - defensive
            raise ProtocolError(f"{self.name}: unexpected reply {reply!r}")
        self._note_acquired(ctx, "(rpc)")

    @observed_release
    def unlock(self, ctx: "ThreadContext"):
        if self.holder_gid != ctx.gid:
            raise ProtocolError(f"{ctx.actor} unlocking {self.name} without holding it")
        self._note_released(ctx)
        reply = yield from self.service.transport.call(
            ctx.node_id, ctx.thread_id, self.home_node,
            ("unlock", self.lock_id, ctx.gid))
        if reply != "released":  # pragma: no cover - defensive
            raise ProtocolError(f"{self.name}: unexpected reply {reply!r}")


register_lock_type("rpc", RpcLock)
