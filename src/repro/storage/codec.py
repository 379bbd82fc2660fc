"""Binary codec for durable values and wire-message fields.

One value format serves both places the system serialises: the records
:class:`~repro.storage.file.FileStorage` writes to disk and the message
fields :mod:`repro.runtime.wire` packs into UDP frames.  It round-trips
what protocols log and send: ``None``, bools, ints of any size, floats
(IEEE doubles, so ``nan``, ``±inf`` and ``-0.0`` survive exactly),
strings, bytes, lists, tuples, sets, frozensets, dicts with any hashable
keys, and registered payload classes.

Every value is a one-byte tag followed by its body::

    N T F               None, True, False
    i <zigzag varint>   int
    f <8-byte double>   float (big-endian IEEE 754)
    s <len> <utf-8>     str
    y <len> <raw>       bytes
    t/l <n> <items>     tuple / list
    S/Z <n> <items>     set / frozenset, members sorted by their encoding
    d <n> <key value>*  dict, in insertion order
    R <len> <tag> <v>   registered class: its tag, then to_plain(value)

Lengths and counts are unsigned LEB128 varints.  Set members are sorted
by their encoded bytes, so equal sets encode identically whatever their
iteration order.  Nesting is bounded (64 levels) on both sides, and the
decoder bounds-checks every read, so arbitrary bytes decode to a value
or raise :class:`CodecError` and nothing else.

Payload classes opt in by calling :func:`register` with a ``to_plain`` /
``from_plain`` pair; the codec stays ignorant of protocol types.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import StorageError

__all__ = ["encode", "decode", "pack", "unpack", "Reader", "register",
           "registration_for", "loader_for", "CodecError"]


class CodecError(StorageError):
    """A value could not be serialised or deserialised."""


_TO_PLAIN: Dict[type, Tuple[str, Callable[[Any], Any]]] = {}
_FROM_PLAIN: Dict[str, Callable[[Any], Any]] = {}

_DOUBLE = struct.Struct("!d")
_MAX_DEPTH = 64


def register(cls: type, tag: str,
             to_plain: Callable[[Any], Any],
             from_plain: Callable[[Any], Any]) -> None:
    """Teach the codec to round-trip instances of ``cls`` under ``tag``."""
    if tag in _FROM_PLAIN:
        raise StorageError(f"codec tag {tag!r} already registered")
    _TO_PLAIN[cls] = (tag, to_plain)
    _FROM_PLAIN[tag] = from_plain


def registration_for(cls: type) -> Optional[Tuple[str, Callable[[Any], Any]]]:
    """The ``(tag, to_plain)`` registration for ``cls``, if any."""
    return _TO_PLAIN.get(cls)


def loader_for(tag: str) -> Optional[Callable[[Any], Any]]:
    """The ``from_plain`` loader registered under ``tag``, if any."""
    return _FROM_PLAIN.get(tag)


# -- encoding -----------------------------------------------------------------

def _pack_varint(value: int) -> bytes:
    """Unsigned LEB128."""
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def pack(value: Any, out: bytearray, depth: int = 0) -> None:
    """Append the encoding of ``value`` to ``out``."""
    if depth > _MAX_DEPTH:
        raise CodecError("value nesting too deep to encode")
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        out += b"i"
        out += _pack_varint(value * 2 if value >= 0 else -value * 2 - 1)
    elif isinstance(value, float):
        out += b"f"
        out += _DOUBLE.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"s"
        out += _pack_varint(len(raw))
        out += raw
    elif isinstance(value, bytes):
        out += b"y"
        out += _pack_varint(len(value))
        out += value
    elif isinstance(value, tuple):
        out += b"t"
        out += _pack_varint(len(value))
        for item in value:
            pack(item, out, depth + 1)
    elif isinstance(value, list):
        out += b"l"
        out += _pack_varint(len(value))
        for item in value:
            pack(item, out, depth + 1)
    elif isinstance(value, (set, frozenset)):
        out += b"S" if isinstance(value, set) else b"Z"
        encoded = []
        for item in value:
            buf = bytearray()
            pack(item, buf, depth + 1)
            encoded.append(bytes(buf))
        encoded.sort()
        out += _pack_varint(len(encoded))
        for raw in encoded:
            out += raw
    elif isinstance(value, dict):
        out += b"d"
        out += _pack_varint(len(value))
        for key, item in value.items():
            pack(key, out, depth + 1)
            pack(item, out, depth + 1)
    else:
        registered = _TO_PLAIN.get(type(value))
        if registered is None:
            raise CodecError(
                f"cannot serialise {type(value).__name__}; register() a "
                f"codec")
        tag, to_plain = registered
        raw = tag.encode("utf-8")
        out += b"R"
        out += _pack_varint(len(raw))
        out += raw
        pack(to_plain(value), out, depth + 1)


def encode(value: Any) -> bytes:
    """Serialise ``value`` to bytes."""
    out = bytearray()
    pack(value, out)
    return bytes(out)


# -- decoding -----------------------------------------------------------------

class Reader:
    """Bounds-checked cursor over ``data[pos:end]``."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, pos: int, end: int):
        self.data = data
        self.pos = pos
        self.end = end

    def take(self, count: int) -> bytes:
        if count < 0 or self.pos + count > self.end:
            raise CodecError("truncated value")
        raw = self.data[self.pos:self.pos + count]
        self.pos += count
        return raw

    def varint(self) -> int:
        result = 0
        shift = 0
        while True:
            if self.pos >= self.end:
                raise CodecError("truncated varint")
            byte = self.data[self.pos]
            self.pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 640:  # ints beyond ~2^640 are nonsense, not data
                raise CodecError("varint too long")


def unpack(reader: Reader, depth: int = 0) -> Any:
    """Read one value at the reader's cursor.

    Raises :class:`CodecError` on malformed input; a registered loader
    or a container rejecting a decoded member (an unhashable set member,
    say) may raise anything, which :func:`decode` wraps.
    """
    if depth > _MAX_DEPTH:
        raise CodecError("value nesting too deep to decode")
    tag = reader.take(1)
    if tag == b"N":
        return None
    if tag == b"T":
        return True
    if tag == b"F":
        return False
    if tag == b"i":
        zig = reader.varint()
        return zig // 2 if zig % 2 == 0 else -(zig // 2) - 1
    if tag == b"f":
        return _DOUBLE.unpack(reader.take(8))[0]
    if tag == b"s":
        return reader.take(reader.varint()).decode("utf-8")
    if tag == b"y":
        return reader.take(reader.varint())
    if tag in (b"t", b"l"):
        count = reader.varint()
        items = [unpack(reader, depth + 1) for _ in range(count)]
        return tuple(items) if tag == b"t" else items
    if tag in (b"S", b"Z"):
        count = reader.varint()
        items = [unpack(reader, depth + 1) for _ in range(count)]
        return set(items) if tag == b"S" else frozenset(items)
    if tag == b"d":
        count = reader.varint()
        result: Dict[Any, Any] = {}
        for _ in range(count):
            key = unpack(reader, depth + 1)
            result[key] = unpack(reader, depth + 1)
        return result
    if tag == b"R":
        class_tag = reader.take(reader.varint()).decode("utf-8")
        loader = _FROM_PLAIN.get(class_tag)
        if loader is None:
            raise CodecError(f"unknown codec tag {class_tag!r}")
        return loader(unpack(reader, depth + 1))
    raise CodecError(f"unknown value tag {tag!r}")


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`: ``data`` must hold exactly one value."""
    reader = Reader(data, 0, len(data))
    try:
        value = unpack(reader)
    except CodecError:
        raise
    except Exception as exc:
        raise CodecError(f"malformed value: {exc}") from exc
    if reader.pos != reader.end:
        raise CodecError(f"{reader.end - reader.pos} stray bytes after value")
    return value
