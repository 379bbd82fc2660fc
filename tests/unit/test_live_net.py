"""Unit tests for LiveNetwork: injected fair loss, datagram path, guard.

The channel policy (loss and duplicate draws, loopback, counters) is the
shared FairLossMedium's; every send that survives it is one frame in one
datagram: nothing is buffered or packed by the medium (batching is the
stubborn channel's job).  The end-to-end
live contract (full clusters over localhost UDP) lives in
tests/integration/; here the medium is exercised directly: a handful of
nodes with real sockets on one loop, so the datagram counters can be
asserted exactly.
"""

from __future__ import annotations

import pytest

from repro.errors import OversizeDatagramError, ReproError, SimulationError
from repro.runtime import Node
from repro.runtime.live import LiveRuntime
from repro.runtime.live_net import MAX_DATAGRAM_BYTES, LiveNetwork
from repro.runtime.wire import register_type_id
from repro.storage.memory import MemoryStorage
from repro.transport.message import WireMessage
from repro.transport.network import NetworkConfig


class Ping(WireMessage):
    type = "test.coalesce.ping"
    fields = ("tag",)

    def __init__(self, tag):
        self.tag = tag


register_type_id(Ping.type, 60001)


def build(n=2, config=None):
    runtime = LiveRuntime(seed=5)
    network = LiveNetwork(runtime, config=config)
    got = []
    for node_id in range(n):
        node = Node(runtime, node_id, MemoryStorage())
        network.register(node)
        node.register_handler(
            Ping.type, lambda m, s, i=node_id: got.append((i, s, m.tag)))
        node.start()
    runtime.loop.run_until_complete(network.open_all())
    return runtime, network, got


class TestDatagramPath:
    def test_each_send_is_one_datagram(self):
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


class TestInjectedFairLoss:
    def test_duplicate_rate_one_sends_two_datagrams(self):
        runtime, network, got = build(
            config=NetworkConfig(duplicate_rate=1.0))
        try:
            network.send(0, 1, Ping("twice"))
            assert network.metrics.duplicated == 1
            assert network.datagrams_sent == 2
            runtime.run_for(0.2)
            runtime.check_errors()
            assert got == [(1, 0, "twice"), (1, 0, "twice")]
        finally:
            network.close_all()
            runtime.close()

    def test_injected_loss_is_counted(self):
        runtime, network, got = build(config=NetworkConfig(loss_rate=0.5))
        try:
            for index in range(40):
                network.send(0, 1, Ping(index))
            assert 0 < network.metrics.lost < 40
            assert network.metrics.lost + network.datagrams_sent == 40
            runtime.run_for(0.2)
            runtime.check_errors()
            assert len(got) == network.datagrams_sent
        finally:
            network.close_all()
            runtime.close()

    def test_loopback_is_never_encoded(self):
        runtime, network, got = build(
            config=NetworkConfig(loss_rate=0.9, duplicate_rate=1.0))
        try:
            network.send(0, 0, Ping("self"))
            assert network.datagrams_sent == 0
            assert network.wire_bytes_sent == 0
            runtime.run_for(0.05)
            runtime.check_errors()
            # Reliable and unduplicated despite the injected rates.
            assert got == [(0, 0, "self")]
            assert network.metrics.lost == network.metrics.duplicated == 0
        finally:
            network.close_all()
            runtime.close()

    def test_unknown_destination_rejected(self):
        runtime, network, _ = build()
        try:
            with pytest.raises(SimulationError):
                network.send(0, 7, Ping("nowhere"))
            assert network.metrics.sent == 0
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

    def test_guard_fires_before_the_socket(self):
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
