"""Seeded fuzzing of the wire format and the value codec.

Three properties of :mod:`repro.runtime.wire` and
:mod:`repro.storage.codec` are load-bearing for the live runtime and
the file storage, and checked here mechanically:

* **Round-trip identity** — for every registered message class, a
  message built from random field values must survive
  ``encode_frame → decode`` with the same sender, the same type and
  equal field values (``nan`` compared by identity of kind, not ``==``).
* **Total datagram decoder** — feeding
  :func:`~repro.runtime.wire.decode_datagram` arbitrary bytes (random
  blobs, bit-flipped valid datagrams, truncated tails, length-field
  lies) must either return decoded messages or raise
  :class:`~repro.runtime.wire.WireCodecError`.  Any other exception is a
  crash a malformed UDP packet could trigger remotely.
* **Total value decoder** — feeding :func:`repro.storage.codec.decode`
  arbitrary bytes (random blobs, mutated encodings of random values)
  must return a value or raise :class:`~repro.storage.codec.CodecError`
  (or :class:`~repro.runtime.wire.WireCodecError`).  Any other exception
  is a crash a corrupted record on disk could trigger at recovery.

Everything is driven by one seed, so a reported defect reproduces from
its printed iteration seed.  The ``repro wirefuzz`` CLI command runs
all three suites (CI runs it as a bounded smoke step); the property
tests reuse the same engine with fixed seeds.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.runtime import wire
from repro.storage import codec
from repro.transport.message import WireMessage

__all__ = ["FuzzReport", "fuzz_roundtrip", "fuzz_decode", "fuzz_codec",
           "run_fuzz", "registered_classes", "random_fields", "equivalent"]


class FuzzReport:
    """Outcome of a fuzz run: counters plus reproducible defect records."""

    def __init__(self) -> None:
        self.roundtrips = 0
        self.decode_attempts = 0
        self.clean_rejections = 0
        self.accepted = 0
        # (suite, iteration seed, description) triples; empty when ok.
        self.defects: List[Tuple[str, int, str]] = []

    @property
    def ok(self) -> bool:
        return not self.defects

    def merge(self, other: "FuzzReport") -> "FuzzReport":
        self.roundtrips += other.roundtrips
        self.decode_attempts += other.decode_attempts
        self.clean_rejections += other.clean_rejections
        self.accepted += other.accepted
        self.defects.extend(other.defects)
        return self

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.defects)} DEFECTS"
        return (f"wire fuzz: {state} — {self.roundtrips} round-trips, "
                f"{self.decode_attempts} adversarial decodes "
                f"({self.accepted} accepted, "
                f"{self.clean_rejections} cleanly rejected)")


def registered_classes() -> List[Tuple[str, Type[WireMessage]]]:
    """Every imported message class with a wire type id and an
    unambiguous tag, sorted.

    Classes are discovered the same way the decoder dispatches, so the
    fuzzed universe is exactly the decodable universe.  The protocol
    stacks are imported first so every tag in the type-id table has its
    class present even when the caller never touched those layers.
    """
    import repro.multigroup.multicast  # noqa: F401
    import repro.quorum.register  # noqa: F401
    found: Dict[str, Optional[Type[WireMessage]]] = {}
    wire._walk(WireMessage, found)
    return sorted((tag, cls) for tag, cls in found.items()
                  if cls is not None and tag in wire.TYPE_ID_TABLE)


def _scalar(rng: random.Random) -> Any:
    kind = rng.randrange(9)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.randrange(-2 ** 63, 2 ** 63)
    if kind == 3:
        # The awkward floats on purpose: nan, infinities, signed zero.
        return rng.choice([math.nan, math.inf, -math.inf, -0.0, 0.0,
                           rng.uniform(-1e18, 1e18)])
    if kind == 4:
        length = rng.randrange(0, 12)
        return "".join(chr(rng.choice([rng.randrange(32, 127),
                                       rng.randrange(0x100, 0x3000)]))
                       for _ in range(length))
    if kind == 5:
        return rng.randrange(0, 2 ** 200)  # varint stress
    if kind == 6:
        return ""
    if kind == 7:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(6)))
    return rng.randrange(-10, 10)


def _no_nan(value: Any) -> Any:
    # nan inside a set member or dict key defeats ==-based container
    # equality (nan != nan), so round-trip *verification* is impossible
    # even when the codec is exact; keep nan out of hashable contexts
    # (direct nan field values still exercise the nan paths).
    if isinstance(value, float) and math.isnan(value):
        return 0.0
    if isinstance(value, tuple):
        return tuple(_no_nan(item) for item in value)
    return value


def _hashable(rng: random.Random) -> Any:
    if rng.random() < 0.2:
        return _no_nan(tuple(_scalar(rng)
                             for _ in range(rng.randrange(0, 3))))
    return _no_nan(_scalar(rng))


def random_value(rng: random.Random, depth: int = 0) -> Any:
    """A random value from the codec's supported universe."""
    if depth >= 3 or rng.random() < 0.55:
        return _scalar(rng)
    kind = rng.randrange(5)
    count = rng.randrange(0, 4)
    if kind == 0:
        return [random_value(rng, depth + 1) for _ in range(count)]
    if kind == 1:
        return tuple(random_value(rng, depth + 1) for _ in range(count))
    if kind == 2:
        return {_hashable(rng) for _ in range(count)}
    if kind == 3:
        return frozenset(_hashable(rng) for _ in range(count))
    return {_hashable(rng): random_value(rng, depth + 1)
            for _ in range(count)}


def random_fields(cls: Type[WireMessage],
                  rng: random.Random) -> Dict[str, Any]:
    """Random field values for one message class."""
    return {name: random_value(rng) for name in cls.fields}


def equivalent(left: Any, right: Any) -> bool:
    """Deep equality where ``nan == nan`` and ``-0.0 != 0.0``."""
    if isinstance(left, float) or isinstance(right, float):
        if not (isinstance(left, float) and isinstance(right, float)):
            return False
        if math.isnan(left) or math.isnan(right):
            return math.isnan(left) and math.isnan(right)
        return left == right and \
            math.copysign(1.0, left) == math.copysign(1.0, right)
    if isinstance(left, (list, tuple)):
        return type(left) is type(right) and len(left) == len(right) and \
            all(equivalent(a, b) for a, b in zip(left, right))
    if isinstance(left, dict):
        if not isinstance(right, dict) or len(left) != len(right):
            return False
        return all(key in right and equivalent(value, right[key])
                   for key, value in left.items())
    if isinstance(left, (set, frozenset)):
        return type(left) is type(right) and len(left) == len(right) and \
            left == right
    return type(left) is type(right) and bool(left == right)


def fuzz_roundtrip(iterations: int = 200, seed: int = 0) -> FuzzReport:
    """Round-trip fuzzing over every registered class."""
    report = FuzzReport()
    classes = registered_classes()
    master = random.Random(seed)  # repro: noqa(DET004) -- fuzz harness: explicitly seeded by the caller
    for iteration in range(iterations):
        sub_seed = master.randrange(2 ** 63)
        rng = random.Random(sub_seed)  # repro: noqa(DET004) -- per-iteration stream; sub_seed printed for replay
        tag, cls = classes[iteration % len(classes)]
        fields = random_fields(cls, rng)
        sender = rng.choice([0, 1, rng.randrange(0, 2 ** 32)])
        message = wire.rebuild(tag, fields)
        try:
            got_sender, got = wire.decode(wire.encode_frame(sender, message))
        except wire.WireCodecError as exc:
            report.defects.append(
                ("roundtrip", sub_seed, f"{tag}: encode/decode raised {exc}"))
            continue
        except Exception as exc:  # noqa: BLE001 - the property under test
            report.defects.append(
                ("roundtrip", sub_seed,
                 f"{tag}: non-codec exception {type(exc).__name__}: {exc}"))
            continue
        if got_sender != sender:
            report.defects.append(
                ("roundtrip", sub_seed,
                 f"{tag}: sender {got_sender} != {sender}"))
        elif type(got) is not cls:
            report.defects.append(
                ("roundtrip", sub_seed, f"{tag}: decoded {type(got).__name__}"))
        else:
            for name in cls.fields:
                if not equivalent(fields[name], getattr(got, name)):
                    report.defects.append(
                        ("roundtrip", sub_seed,
                         f"{tag}: field {name!r} "
                         f"{fields[name]!r} != {getattr(got, name)!r}"))
        report.roundtrips += 1
    return report


def _mutate(rng: random.Random, data: bytearray, strategy: int,
            header_size: int) -> bytes:
    """Damage a structurally valid encoding in one of four ways."""
    if strategy == 1 and data:  # bit flip
        position = rng.randrange(len(data))
        data[position] ^= 1 << rng.randrange(8)
    elif strategy == 2:  # truncate
        data = data[:rng.randrange(0, len(data) + 1)]
    elif strategy == 3 and len(data) >= header_size:  # length lies
        data[-rng.randrange(1, header_size):] = b""
        data += bytes(rng.randrange(256) for _ in range(rng.randrange(8)))
    elif strategy == 4:  # concatenate junk behind a valid encoding
        data += bytes(rng.randrange(256)
                      for _ in range(rng.randrange(1, 32)))
    return bytes(data)


def _random_blob(rng: random.Random) -> bytes:
    return bytes(rng.randrange(256) for _ in range(rng.randrange(0, 160)))


def _adversarial_blob(rng: random.Random) -> bytes:
    """One malformed-or-maybe-valid datagram."""
    strategy = rng.randrange(5)
    if strategy == 0:
        return _random_blob(rng)
    classes = registered_classes()
    tag, cls = classes[rng.randrange(len(classes))]
    message = wire.rebuild(tag, random_fields(cls, rng))
    try:
        data = bytearray(wire.encode_frame(rng.randrange(0, 2 ** 32),
                                           message))
    except wire.WireCodecError:
        return b""
    return _mutate(rng, data, strategy, wire.HEADER.size)


def _adversarial_value(rng: random.Random) -> bytes:
    """One malformed-or-maybe-valid encoded value."""
    strategy = rng.randrange(5)
    if strategy == 0:
        return _random_blob(rng)
    try:
        data = bytearray(codec.encode(random_value(rng)))
    except codec.CodecError:
        return b""
    return _mutate(rng, data, strategy, 2)


def _fuzz_total(suite: str, make_blob: Callable[[random.Random], bytes],
                decode: Callable[[bytes], Any],
                errors: Tuple[Type[Exception], ...],
                iterations: int, seed: int) -> FuzzReport:
    """Feed ``decode`` adversarial blobs; any exception outside
    ``errors`` is a defect."""
    report = FuzzReport()
    master = random.Random(seed)  # repro: noqa(DET004) -- fuzz harness: explicitly seeded by the caller
    for _ in range(iterations):
        sub_seed = master.randrange(2 ** 63)
        rng = random.Random(sub_seed)  # repro: noqa(DET004) -- per-iteration stream; sub_seed printed for replay
        blob = make_blob(rng)
        report.decode_attempts += 1
        try:
            decode(blob)
            report.accepted += 1
        except errors:
            report.clean_rejections += 1
        except Exception as exc:  # noqa: BLE001 - the property under test
            report.defects.append(
                (suite, sub_seed,
                 f"{type(exc).__name__}: {exc} on {blob[:64]!r}"))
    return report


def fuzz_decode(iterations: int = 2000, seed: int = 0) -> FuzzReport:
    """Adversarial datagrams: anything but WireCodecError is a defect."""
    return _fuzz_total("decode", _adversarial_blob, wire.decode_datagram,
                       (wire.WireCodecError,), iterations, seed)


def fuzz_codec(iterations: int = 2000, seed: int = 0) -> FuzzReport:
    """Adversarial encoded values: anything but a codec error is a
    defect."""
    return _fuzz_total("codec", _adversarial_value, codec.decode,
                       (codec.CodecError, wire.WireCodecError),
                       iterations, seed)


def run_fuzz(iterations: int = 500, seed: int = 0) -> FuzzReport:
    """All three suites under one seed (the CLI/CI entry point)."""
    report = fuzz_roundtrip(iterations, seed)
    report.merge(fuzz_decode(iterations * 4, seed + 1))
    return report.merge(fuzz_codec(iterations * 4, seed + 2))
