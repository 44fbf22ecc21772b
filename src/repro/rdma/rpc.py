"""Two-sided (send/receive) messaging and RPC on top of the NIC model.

The paper's introduction contrasts one-sided RDMA with RPC-based
designs: handling synchronization at the receiving node keeps local and
remote accesses trivially atomic (one CPU owns the state) but "nullifies
the performance benefit of directly accessing remote memory" — every
operation pays two message traversals plus the server's CPU, which
becomes the bottleneck.  This module provides the substrate to measure
that trade-off: :class:`RpcTransport` sends messages through the same
TX/RX pipelines and fabric as the verbs, and server handlers process
requests from a per-node inbox serialized by a CPU resource.

Messages between co-located client and server skip the NIC (an
in-process queue with a small IPC cost) — the *best case* for RPC, so
the comparison against ALock is conservative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import ConfigError
from repro.rdma.network import RdmaNetwork
from repro.rdma.qp import qp_id
from repro.sim.core import Environment, Event
from repro.sim.resources import Resource, Store

#: Cost of an in-process (same-node) request or reply hop.
LOCAL_IPC_NS = 150.0
#: Server CPU time to decode + handle one request.
HANDLER_CPU_NS = 350.0


@dataclass
class RpcRequest:
    """One in-flight request; the transport fills in the reply path."""

    src_node: int
    src_thread: int
    payload: Any
    reply_event: Event = field(repr=False, default=None)  # type: ignore[assignment]


class RpcTransport:
    """Send/receive messaging over the cluster's NICs.

    One inbox (:class:`Store`) and one single-threaded CPU
    (:class:`Resource`) per node — the paper's RPC model where a
    receiving thread owns all synchronization state of its node.
    """

    def __init__(self, env: Environment, network: RdmaNetwork):
        self.env = env
        self.network = network
        n = len(network.nics)
        self.inboxes = [Store(env, name=f"rpc-inbox-{i}") for i in range(n)]
        self.server_cpu = [Resource(env, 1, name=f"rpc-cpu-{i}") for i in range(n)]
        # statistics
        self.messages_sent = 0
        self.local_ipc_messages = 0

    # -- client side ----------------------------------------------------
    def call(self, src_node: int, src_thread: int, dst_node: int,
             payload: Any):
        """Issue a request and wait for the server's reply (generator;
        returns the reply value)."""
        if not 0 <= dst_node < len(self.inboxes):
            raise ConfigError(f"no such node {dst_node}")
        request = RpcRequest(src_node, src_thread, payload,
                             reply_event=self.env.event())
        yield from self._send(src_node, src_thread, dst_node)
        self.inboxes[dst_node].put(request)
        reply = yield request.reply_event
        return reply

    def _send(self, src_node: int, src_thread: int, dst_node: int):
        """One message traversal: NIC TX -> fabric -> NIC RX (or IPC) —
        the verbs' round trip, one way: the message lands in the inbox,
        not in registered memory, and a send has no response path."""
        self.messages_sent += 1
        if src_node == dst_node:
            self.local_ipc_messages += 1
            yield LOCAL_IPC_NS
            return
        nics = self.network.nics
        yield from self.network._round_trip(
            None, qp_id(src_node, src_thread, dst_node), nics[src_node],
            nics[dst_node], False, reply=False)

    # -- server side ---------------------------------------------------
    def serve(self, node: int, handler):
        """The server loop for ``node`` (run it with ``env.process``).

        ``handler(request) -> (reply_value | None, deferred)`` is a plain
        function; returning ``deferred=True`` means the handler will
        complete the request later via :meth:`reply` (e.g. a lock grant
        queued behind the current holder).
        """
        inbox = self.inboxes[node]
        cpu = self.server_cpu[node]
        env = self.env
        while True:
            request = yield inbox.get()
            yield from cpu.serve(HANDLER_CPU_NS)
            value, deferred = handler(request)
            if not deferred:
                self.reply(node, request, value)

    def reply(self, node: int, request: RpcRequest, value: Any) -> None:
        """Complete ``request``: simulate the reply traversal, then
        trigger the client's event."""
        env = self.env

        def deliver():
            yield from self._send(node, 0, request.src_node)
            request.reply_event.succeed(value)

        env.process(deliver(), name=f"rpc-reply-n{node}")
