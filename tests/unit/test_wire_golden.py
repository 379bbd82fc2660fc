"""Golden frames: the exact bytes of a fixed corpus of wire messages.

The hex strings below are the frames the wire format produced when they
were recorded.  Any change to the frame header, the type-id table or the
value codec that alters a registered message's bytes fails here, which
is the point: recorded byte streams and peers running other builds must
keep decoding.
"""

from __future__ import annotations

import math

import pytest

from repro.consensus import paxos  # noqa: F401 - registers paxos.* tags
from repro.core.ids import MessageId
from repro.core.messages import AppMessage, GossipMessage
from repro.runtime.wire import decode_datagram, encode_frame, rebuild
from repro.transport import stubborn  # noqa: F401 - registers stub.* tags

APPS = (AppMessage(MessageId(0, 1, 4), "alpha"),
        AppMessage(MessageId(2, 1, 9), ("tuple", 7)))


def corpus():
    return {
        "gossip": (3, GossipMessage(7, frozenset(APPS), ckpt_k=2)),
        "paxos.accept": (1, rebuild("paxos.accept", {
            "k": 5, "ballot": (2, 1), "value": APPS})),
        "stub.batch": (0, rebuild("stub.batch", {
            "entries": ((0, "paxos.decide", {"k": 5, "value": APPS[:1]}),
                        (1, "paxos.accepted", {"k": 5, "ballot": (2, 1)})),
            "acks": (3, 4)})),
        "non-finite": (2, rebuild("stub.ack", {
            "seq": (math.nan, math.inf, -math.inf, -0.0, {1.5: None})})),
    }


GOLDEN = {
    "gossip":
        "ab0b0200000003000100000044690e5a02520a4170704d6573736167656c02"
        "74036900690269087305616c706861520a4170704d6573736167656c027403"
        "690469026912740273057475706c65690e6904",
    "paxos.accept":
        "ab0b0200000001000900000048690a7402690469027402520a4170704d6573"
        "736167656c0274036900690269087305616c706861520a4170704d65737361"
        "67656c027403690469026912740273057475706c65690e",
    "stub.batch":
        "ab0b0200000000000600000070740274036900730c7061786f732e64656369"
        "6465640273016b690a730576616c75657401520a4170704d6573736167656c"
        "0274036900690269087305616c70686174036902730e7061786f732e616363"
        "6570746564640273016b690a730662616c6c6f74740269046902740269066908",
    "non-finite":
        "ab0b02000000020005000000327405667ff8000000000000667ff000000000"
        "000066fff00000000000006680000000000000006401663ff8000000000000"
        "4e",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_frame_bytes_are_pinned(name):
    sender, message = corpus()[name]
    assert encode_frame(sender, message).hex() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_frame_decodes_to_its_message(name):
    sender, message = corpus()[name]
    ((got_sender, got),) = decode_datagram(bytes.fromhex(GOLDEN[name]))
    assert got_sender == sender
    assert type(got) is type(message)
    # Re-encoding the decoded message reproduces the frame exactly.
    assert encode_frame(got_sender, got).hex() == GOLDEN[name]
