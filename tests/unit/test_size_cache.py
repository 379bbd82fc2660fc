"""The cached wire-message size is never stale.

:meth:`WireMessage.estimated_size` walks a message's fields once and
caches the result on the instance.  That is only sound while messages
stay immutable after their first send, so these tests run short seeded
simulations through every message type the simulator can send and
check, at every ``Network.send``, that the cached size equals a fresh
walk of the fields that bypasses every cache.
"""

from __future__ import annotations

import random

import pytest

from repro.core.alternative import AlternativeConfig
from repro.core.ids import MessageId
from repro.core.messages import AppMessage, GossipMessage
from repro.harness.cluster import Cluster, ClusterConfig
from repro.multigroup import MultiGroupCluster
from repro.quorum.register import QuorumRegister
from repro.runtime import Node, Simulator
from repro.sizing import estimate_size
from repro.storage.memory import MemoryStorage
from repro.transport import message as message_module
from repro.transport.endpoint import Endpoint
from repro.transport.message import WireMessage
from repro.transport.network import Network, NetworkConfig
from repro.transport.scoped import ScopedMessage
from repro.transport.stubborn import StubbornConfig


def fresh_size(value):
    """``estimate_size`` re-derived from scratch, reading no cached size."""
    if isinstance(value, ScopedMessage):
        return 2 + len(value.scope) + fresh_size(value.inner)
    if isinstance(value, WireMessage):
        return 2 + len(value.type) + sum(
            fresh_size(getattr(value, name)) for name in value.fields)
    if isinstance(value, AppMessage):
        return 12 + fresh_size(value.payload)
    if isinstance(value, (tuple, list, set, frozenset)):
        return 2 + sum(fresh_size(item) for item in value)
    if isinstance(value, dict):
        return 2 + sum(fresh_size(k) + fresh_size(v)
                       for k, v in value.items())
    return estimate_size(value)


@pytest.fixture
def checked_sends(monkeypatch):
    """Check every send's cached size; return the message types seen."""
    seen = set()
    original = Network.send

    def send(self, src, dst, message):
        assert message.estimated_size() == fresh_size(message), message
        seen.add(type(message).__name__)
        if isinstance(message, ScopedMessage):
            seen.add(type(message.inner).__name__)
        original(self, src, dst, message)

    monkeypatch.setattr(Network, "send", send)
    return seen


def submit_from_every_node(cluster, count, start=0.5, gap=0.2,
                           nodes=None):
    for i in nodes or cluster.nodes:
        for j in range(count):
            cluster.sim.schedule(start + gap * j + 0.05 * i,
                                 cluster.submit, i, f"n{i}m{j}")


def run_basic():
    # Loss makes Paxos retry: seed 0 draws a Query and a Nack too.
    cluster = Cluster(ClusterConfig(
        n=3, seed=0, protocol="basic",
        network=NetworkConfig(loss_rate=0.2)))
    cluster.start()
    submit_from_every_node(cluster, 4)
    cluster.run(until=15.0)


def run_alternative_with_state_transfer():
    cluster = Cluster(ClusterConfig(
        n=3, seed=6, protocol="alternative",
        alt=AlternativeConfig(checkpoint_interval=2.0, delta=2)))
    cluster.start()
    cluster.run(until=1.0)
    cluster.nodes[2].crash()
    for j in range(25):
        cluster.sim.schedule(1.5 + 0.15 * j, cluster.submit, 0, f"m{j}")
    cluster.run(until=8.0)
    cluster.nodes[2].recover()
    cluster.run(until=40.0)
    assert cluster.abcasts[2].state_transfers_adopted > 0


def run_chandra_toueg():
    cluster = Cluster(ClusterConfig(n=3, seed=1, protocol="ct"))
    cluster.start()
    submit_from_every_node(cluster, 3)
    cluster.run(until=5.0)
    cluster.nodes[0].crash()  # the first coordinator: rounds rotate
    submit_from_every_node(cluster, 3, start=5.5, nodes=(1, 2))
    cluster.run(until=30.0)


def run_sequencer():
    cluster = Cluster(ClusterConfig(
        n=3, seed=2, protocol="sequencer",
        network=NetworkConfig(loss_rate=0.2)))
    cluster.start()
    submit_from_every_node(cluster, 5)
    cluster.run(until=30.0)


def run_quorum_register():
    sim = Simulator()
    net = Network(sim, random.Random(0), NetworkConfig())
    nodes, registers = {}, {}
    for i in range(3):
        node = Node(sim, i, MemoryStorage())
        endpoint = node.add_component(Endpoint(net))
        registers[i] = node.add_component(QuorumRegister(endpoint))
        net.register(node)
        nodes[i] = node
    for node in nodes.values():
        node.start()
    nodes[0].spawn(registers[0].write("v"), "write")
    sim.run(until=20.0)
    nodes[1].spawn(registers[1].read(), "read")
    sim.run(until=40.0)


def run_multigroup():
    cluster = MultiGroupCluster({"g1": [0, 1, 2], "g2": [2, 3, 4]}, seed=2,
                                network=NetworkConfig(loss_rate=0.05))
    cluster.start()
    for j in range(4):
        cluster.sim.schedule(0.5 + 0.3 * j, cluster.multicast,
                             0, f"a{j}", ["g1"])
        cluster.sim.schedule(0.7 + 0.3 * j, cluster.multicast,
                             2, f"x{j}", ["g1", "g2"])
    cluster.run(until=40.0)


def run_stubborn():
    # One-envelope-per-send first, then coalesced batches.
    for coalesce in (False, True):
        cluster = Cluster(ClusterConfig(
            n=3, seed=3, protocol="basic",
            network=NetworkConfig(loss_rate=0.2),
            stubborn=StubbornConfig(base_interval=0.3, coalesce=coalesce)))
        cluster.start()
        submit_from_every_node(cluster, 4)
        cluster.run(until=20.0)


PAXOS = {"Prepare", "Promise", "Accept", "Accepted", "Decide", "Query"}
PAXOS_STACK = PAXOS | {"GossipMessage", "Heartbeat"}

# Scenario -> (run, the exact set of message classes it must send).
SCENARIOS = {
    "basic": (run_basic, PAXOS_STACK | {"Nack"}),
    "alternative-state-transfer": (
        run_alternative_with_state_transfer, PAXOS_STACK | {"StateMessage"}),
    "chandra-toueg": (run_chandra_toueg, {
        "CTEstimate", "CTPropose", "CTAck", "CTNack", "CTDecide",
        "GossipMessage", "Heartbeat"}),
    "sequencer": (run_sequencer, {
        "ForwardMessage", "OrderMessage", "ResendRequest",
        "SequencerStatus"}),
    "quorum-register": (run_quorum_register, {
        "QueryRequest", "QueryReply", "StoreRequest", "StoreReply"}),
    "multigroup": (run_multigroup, (PAXOS_STACK - {"Query"}) | {
        "ScopedMessage", "TimestampAnnounce"}),
    "stubborn": (run_stubborn, PAXOS_STACK | {
        "StubbornData", "StubbornAck", "StubbornBatch"}),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_cached_size_matches_fresh_walk(scenario, checked_sends):
    run, expected = SCENARIOS[scenario]
    run()
    assert checked_sends == expected


def test_scenarios_cover_every_message_class():
    sent = set().union(*(expected for _, expected in SCENARIOS.values()))
    classes, stack = set(), [WireMessage]
    while stack:
        for cls in stack.pop().__subclasses__():
            if cls.__module__.startswith("repro."):
                classes.add(cls.__name__)
            stack.append(cls)
    assert classes <= sent


def test_multisend_walks_the_payload_once(sim, monkeypatch):
    net = Network(sim, random.Random(0), NetworkConfig())
    for i in range(25):
        net.register(Node(sim, i, MemoryStorage()))
    unordered = frozenset(AppMessage(MessageId(1, 1, seq), f"p{seq}")
                          for seq in range(10))
    gossip = GossipMessage(3, unordered)
    walks = []
    counted = message_module.estimate_size

    def counting(value):
        if value is unordered:
            walks.append(value)
        return counted(value)

    monkeypatch.setattr(message_module, "estimate_size", counting)
    net.multisend(0, gossip)
    assert net.metrics.sent == 25
    assert len(walks) == 1
    assert net.metrics.bytes_sent == 25 * fresh_size(gossip)
