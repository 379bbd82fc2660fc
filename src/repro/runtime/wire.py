"""UDP wire format for :class:`~repro.transport.message.WireMessage`.

A datagram is one *frame*: a ``struct``-packed header followed by a
binary payload::

    !HBIHI  =  magic 0xAB0B | version 2 | sender | type-id | payload-len

The type-id is a small integer from a registered table
(:data:`TYPE_ID_TABLE`, extensible via :func:`register_type_id`); every
message type sent over the live transport has one, and encoding a
message whose type has none raises :class:`WireCodecError`.  The payload
is the message's declared fields, in declaration order, each encoded by
the value codec :mod:`repro.storage.codec` (the same bytes the file
storage writes), so classes registered with that codec travel as field
values too.  Version 2 is the only version; the header keeps the byte
so a frame from any other version is rejected rather than misread.

Frames are length-prefixed, so several concatenate into one datagram
and :func:`decode_datagram` walks them all back out; the live transport
itself sends one frame per datagram.

Decoding dispatches on the ``type`` tag through a registry built by
walking ``WireMessage.__subclasses__()``: every message class that has
been *imported* is decodable, and the instance is rebuilt structurally
(``cls.__new__`` + the class's declared ``fields``) so no constructor
signature discipline is imposed on protocol messages.  The registry is
rebuilt only when a new :class:`WireMessage` subclass has actually been
defined since the last build (a generation counter bumped by
``__init_subclass__``), so a flood of datagrams carrying unknown tags
costs one dictionary miss each, not a class-tree walk each.

The format intentionally carries no authentication: the live runtime is
a loopback test harness for the paper's protocols, not a production
transport.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple, Type

from repro.errors import ReproError
from repro.storage import codec
from repro.transport.message import WireMessage

__all__ = ["encode", "encode_frame", "decode", "decode_datagram", "rebuild",
           "register_type_id", "type_id_for", "WireCodecError",
           "TYPE_ID_TABLE", "MAGIC", "HEADER"]


class WireCodecError(ReproError):
    """A datagram could not be encoded or decoded."""


# -- framing ------------------------------------------------------------------

MAGIC = 0xAB0B
HEADER = struct.Struct("!HBIHI")  # magic, version, sender, type-id, len
_VERSION = 2

# The registered type-id table.  Ids are frozen: changing an assignment
# invalidates every recorded byte stream, so new message types get new
# ids (via register_type_id) instead of edits.
TYPE_ID_TABLE: Dict[str, int] = {
    "ab.gossip": 1,
    "ab.state": 2,
    "fd.alive": 3,
    "stub.data": 4,
    "stub.ack": 5,
    "stub.batch": 6,
    "paxos.prepare": 7,
    "paxos.promise": 8,
    "paxos.accept": 9,
    "paxos.accepted": 10,
    "paxos.decide": 11,
    "paxos.nack": 12,
    "paxos.query": 13,
    "ct.estimate": 14,
    "ct.propose": 15,
    "ct.ack": 16,
    "ct.nack": 17,
    "ct.decide": 18,
    "seq.forward": 19,
    "seq.order": 20,
    "seq.resend": 21,
    "seq.status": 22,
    "qr.query": 23,
    "qr.query-ack": 24,
    "qr.store": 25,
    "qr.store-ack": 26,
    "mg.announce": 27,
}
_TAG_FOR_ID: Dict[int, str] = {v: k for k, v in TYPE_ID_TABLE.items()}


def register_type_id(tag: str, type_id: int) -> None:
    """Assign a stable type-id to a message type tag.

    Ids must be unique, positive and fit the header's 16-bit field.
    Re-registering the same pair is a no-op so modules may register at
    import time.
    """
    if not 0 < type_id < 0x10000:
        raise WireCodecError(f"type id {type_id} out of range [1, 65535]")
    if TYPE_ID_TABLE.get(tag) == type_id:
        return
    if tag in TYPE_ID_TABLE:
        raise WireCodecError(
            f"tag {tag!r} already has type id {TYPE_ID_TABLE[tag]}")
    if type_id in _TAG_FOR_ID:
        raise WireCodecError(
            f"type id {type_id} already assigned to "
            f"{_TAG_FOR_ID[type_id]!r}")
    TYPE_ID_TABLE[tag] = type_id
    _TAG_FOR_ID[type_id] = tag


def type_id_for(tag: str) -> Optional[int]:
    """The registered type-id for a tag, or None."""
    return TYPE_ID_TABLE.get(tag)


# -- encoding -----------------------------------------------------------------

def encode_frame(sender: int, message: WireMessage) -> bytes:
    """Serialise one message, with its sender id, as one frame."""
    type_id = TYPE_ID_TABLE.get(message.type)
    if type_id is None:
        raise WireCodecError(
            f"message type {message.type!r} has no wire type id; "
            f"register_type_id() it")
    if not 0 <= sender < 0x100000000:
        raise WireCodecError(f"sender {sender} does not fit the header")
    out = bytearray()
    try:
        for name in message.fields:
            codec.pack(getattr(message, name), out)
    except Exception as exc:
        raise WireCodecError(
            f"cannot encode {message.type!r}: {exc}") from exc
    return HEADER.pack(MAGIC, _VERSION, sender, type_id, len(out)) + \
        bytes(out)


#: A whole single-message datagram is one frame.
encode = encode_frame


# -- type-tag registry --------------------------------------------------------

# Tag -> class; None marks a tag claimed by several imported classes
# (ambiguous): only lookups of that tag fail, the rest keep decoding.
_registry: Dict[str, Optional[Type[WireMessage]]] = {}
# Generation of WireMessage subclass definitions the registry was built
# at; -1 forces the first build.  Rebuilding only on generation change
# makes unknown-tag lookups O(1): a flood of garbage datagrams cannot
# force a class-tree walk per packet.
_built_at_generation = -1


def _walk(cls: Type[WireMessage],
          into: Dict[str, Optional[Type[WireMessage]]]) -> None:
    for sub in cls.__subclasses__():
        if sub.type in into and into[sub.type] is not sub:
            into[sub.type] = None
        else:
            into[sub.type] = sub
        _walk(sub, into)


def _lookup(tag: str) -> Type[WireMessage]:
    global _registry, _built_at_generation
    generation = WireMessage._registry_generation
    if generation != _built_at_generation:
        # (Re)build lazily: message classes register simply by having
        # been imported by the protocol stack under test.  The build is
        # valid until the *next* subclass definition, so a tag missing
        # from it is missing, full stop — no re-walk per miss.
        fresh: Dict[str, Optional[Type[WireMessage]]] = {}
        _walk(WireMessage, fresh)
        _registry = fresh
        _built_at_generation = generation
    try:
        cls = _registry[tag]
    except KeyError:
        raise WireCodecError(f"unknown wire type tag {tag!r}") from None
    if cls is None:
        raise WireCodecError(
            f"ambiguous wire type tag {tag!r}: claimed by more than one "
            f"imported WireMessage class")
    return cls


def rebuild(tag: str, field_values: Dict[str, object]) -> WireMessage:
    """Reconstruct a message structurally from its tag and field values.

    ``field_values`` holds already-decoded Python objects; the instance
    is rebuilt the same way :func:`decode` builds one, so no constructor
    discipline is imposed on message classes.
    Layers that tunnel one message inside another (the stubborn channel's
    data envelope) use this to unwrap the inner message on arrival.
    """
    cls = _lookup(tag)
    message = cls.__new__(cls)
    for name in cls.fields:
        try:
            setattr(message, name, field_values[name])
        except KeyError as exc:
            raise WireCodecError(
                f"message {tag!r} missing field {name!r}") from exc
    return message


# -- decoding -----------------------------------------------------------------

def _decode_frame(data: bytes, offset: int) -> Tuple[int, int, WireMessage]:
    """Decode one frame at ``offset``; returns (next offset, sender, msg)."""
    end = offset + HEADER.size
    if end > len(data):
        raise WireCodecError("truncated frame header")
    magic, version, sender, type_id, length = HEADER.unpack_from(data, offset)
    if magic != MAGIC:
        raise WireCodecError(f"bad frame magic {magic:#06x}")
    if version != _VERSION:
        raise WireCodecError(f"unsupported wire version {version}")
    if end + length > len(data):
        raise WireCodecError(
            f"torn frame: {len(data) - end} payload bytes, "
            f"header promises {length}")
    tag = _TAG_FOR_ID.get(type_id)
    if tag is None:
        raise WireCodecError(f"unknown type id {type_id}")
    cls = _lookup(tag)
    reader = codec.Reader(data, end, end + length)
    message = cls.__new__(cls)
    try:
        for name in cls.fields:
            setattr(message, name, codec.unpack(reader))
    except Exception as exc:
        raise WireCodecError(f"malformed frame payload: {exc}") from exc
    if reader.pos != reader.end:
        raise WireCodecError(
            f"{reader.end - reader.pos} stray bytes after "
            f"{tag!r} payload")
    return end + length, sender, message


def decode_datagram(data: bytes) -> List[Tuple[int, WireMessage]]:
    """Deserialise a datagram into every ``(sender id, message)`` it packs.

    Any defect anywhere raises :class:`WireCodecError` — a datagram is
    accepted or rejected whole.
    """
    if not data:
        raise WireCodecError("empty datagram")
    messages: List[Tuple[int, WireMessage]] = []
    offset = 0
    while offset < len(data):
        offset, sender, message = _decode_frame(data, offset)
        messages.append((sender, message))
    return messages


def decode(data: bytes) -> Tuple[int, WireMessage]:
    """Deserialise a single-frame datagram back into ``(sender, message)``.

    Raises :class:`WireCodecError` if the datagram packs more than one
    frame.
    """
    messages = decode_datagram(data)
    if len(messages) != 1:
        raise WireCodecError(
            f"expected a single-frame datagram, got {len(messages)} frames")
    return messages[0]
