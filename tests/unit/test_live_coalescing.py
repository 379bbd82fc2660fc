"""Unit tests for LiveNetwork's datagram path and oversize guard.

Every send is one frame in one datagram: nothing is buffered or packed
by the medium (batching is the stubborn channel's job).  The end-to-end
live contract (full clusters over localhost UDP) lives in
tests/integration/; here the medium is exercised directly: a handful of
nodes with real sockets on one loop, so the datagram counters can be
asserted exactly.
"""

from __future__ import annotations

import pytest

from repro.errors import OversizeDatagramError, ReproError
from repro.runtime import Node
from repro.runtime.live import LiveRuntime
from repro.runtime.live_net import MAX_DATAGRAM_BYTES, LiveNetwork
from repro.runtime.wire import register_type_id
from repro.storage.memory import MemoryStorage
from repro.transport.message import WireMessage


class Ping(WireMessage):
    type = "test.coalesce.ping"
    fields = ("tag",)

    def __init__(self, tag):
        self.tag = tag


register_type_id(Ping.type, 60001)


def build(n=2):
    runtime = LiveRuntime(seed=5)
    network = LiveNetwork(runtime)
    got = []
    for node_id in range(n):
        node = Node(runtime, node_id, MemoryStorage())
        network.register(node)
        node.register_handler(
            Ping.type, lambda m, s, i=node_id: got.append((i, s, m.tag)))
        node.start()
    runtime.loop.run_until_complete(network.open_all())
    return runtime, network, got


class TestCoalescing:
    def test_coalescing_off_sends_one_datagram_per_message(self):
        runtime, network, got = build()
        try:
            for index in range(4):
                network.send(0, 1, Ping(index))
            # Sent at once, not on a later loop turn.
            assert network.datagrams_sent == 4
            runtime.run_for(0.2)
            runtime.check_errors()
            assert sorted(tag for _, _, tag in got) == list(range(4))
            assert network.datagrams_sent == 4
        finally:
            network.close_all()
            runtime.close()

    def test_close_drops_buffered_frames(self):
        """A closed sender has no socket: its sends are lost, never
        leaked to the wire."""
        runtime, network, got = build()
        try:
            network.close(0)  # crash
            network.send(0, 1, Ping("doomed"))
            runtime.run_for(0.2)
            runtime.check_errors()
            assert got == []
            assert network.datagrams_sent == 0
        finally:
            network.close_all()
            runtime.close()


class TestOversizeGuard:
    def test_oversize_message_raises_typed_error_and_counts(self):
        runtime, network, got = build()
        try:
            lost_before = network.metrics.lost
            with pytest.raises(OversizeDatagramError) as info:
                network.send(0, 1, Ping("y" * MAX_DATAGRAM_BYTES))
            assert network.oversize_drops == 1
            assert network.metrics.lost == lost_before + 1
            error = info.value
            assert isinstance(error, ReproError)
            assert error.message_type == Ping.type
            assert error.size > error.limit == MAX_DATAGRAM_BYTES
            # The medium stays usable after the drop.
            network.send(0, 1, Ping("small"))
            runtime.run_for(0.2)
            runtime.check_errors()
            assert got == [(1, 0, "small")]
        finally:
            network.close_all()
            runtime.close()

    def test_guard_applies_without_coalescing_too(self):
        """The guard fires before the socket: nothing reaches the wire."""
        runtime, network, _ = build()
        try:
            with pytest.raises(OversizeDatagramError):
                network.send(0, 1, Ping("z" * 70000))
            assert network.oversize_drops == 1
            assert network.datagrams_sent == 0
            assert network.wire_bytes_sent == 0
        finally:
            network.close_all()
            runtime.close()
