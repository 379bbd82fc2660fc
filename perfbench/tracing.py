"""Span tracing around the public entry points of each ``repro`` layer.

The benchmark measures layers from outside: :func:`install` replaces the
entry points listed in :data:`ENTRY_POINTS` (class attributes and module
globals of the package) with wrappers that record one span per call, and
:func:`uninstall` puts the originals back.  Nothing under ``src/``
changes.  Wrappers go in before a cluster is built, so every bound
method the cluster captures is already the traced one.

A span is ``(kind, start, end, parent, ref)``: ``kind`` names the entry
point (``"storage.log"``, ``"consensus.handler"``, ...), ``parent`` is
the index of the span open when it began (-1 for a root), and ``ref``
is a dense id of the application message the span serves (-1 when the
call carries none).  Spans stay in memory, in flat arrays, until the
run ends; :meth:`Tracer.summary` then computes every span's self time
(its duration minus the time its child spans cover) and totals count,
self time and inclusive time per kind.

The wrappers never change what the wrapped call does, so a traced
simulation must reproduce the untraced one exactly; the benchmark
checks that.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.base import ReplicatedStateMachine
from repro.consensus.paxos import PaxosConsensus
from repro.core.alternative import AlternativeAtomicBroadcast
from repro.runtime import live_net, wire
from repro.runtime.live import LiveRuntime
from repro.runtime.live_net import LiveNetwork
from repro.runtime.node import Node
from repro.runtime.sim import SimRuntime
from repro.storage import stable
from repro.storage.file import FileStorage
from repro.transport import network
from repro.transport.network import Network
from repro.transport.stubborn import StubbornChannel

__all__ = ["ENTRY_POINTS", "KINDS", "Tracer", "install", "uninstall"]

KINDS = (
    "runtime.run", "runtime.callback",
    "transport.send", "transport.multisend", "transport.stubborn",
    "transport.handler", "transport.task",
    "sizing.transport", "sizing.storage",
    "storage.log", "storage.append", "storage.retrieve", "storage.barrier",
    "core.dispatch", "core.handler", "core.task", "core.submit",
    "core.checkpoint",
    "consensus.propose", "consensus.handler", "consensus.task",
    "fdetect.handler", "fdetect.task",
    "wire.encode", "wire.decode",
    "apps.deliver",
)
_KIND_INDEX = {kind: index for index, kind in enumerate(KINDS)}

# Message handlers and node tasks are attributed to the layer of the
# code that runs them, read from the package of the defining module;
# everything else (abcast, membership, baselines) is the core protocol.
_PACKAGE_LAYER = {
    "consensus": "consensus",
    "fdetect": "fdetect",
    "transport": "transport",
}

# (owner, attribute, kind): plain functions and methods wrapped as is.
ENTRY_POINTS: Tuple[Tuple[Any, str, str], ...] = (
    (SimRuntime, "run", "runtime.run"),
    (Network, "send", "transport.send"),
    (Network, "multisend", "transport.multisend"),
    (LiveNetwork, "send", "transport.send"),
    (LiveNetwork, "multisend", "transport.multisend"),
    (StubbornChannel, "send", "transport.stubborn"),
    (StubbornChannel, "multisend", "transport.stubborn"),
    # estimate_size is imported by name, so each caller's binding is
    # wrapped on its own: that is what splits sizing by calling layer.
    (network, "estimate_size", "sizing.transport"),
    (live_net, "estimate_size", "sizing.transport"),
    (stable, "estimate_size", "sizing.storage"),
    (stable.StableStorage, "log", "storage.log"),
    (stable.StableStorage, "retrieve", "storage.retrieve"),
    (Node, "deliver", "core.dispatch"),
    (AlternativeAtomicBroadcast, "take_checkpoint", "core.checkpoint"),
    (PaxosConsensus, "propose", "consensus.propose"),
    (wire, "encode", "wire.encode"),
    (wire, "encode_frame", "wire.encode"),
    (wire, "decode", "wire.decode"),
    (wire, "decode_datagram", "wire.decode"),
)


def _layer_of(code: Any) -> str:
    """The layer a handler (bound method) or task (generator) belongs to."""
    module = getattr(code, "__module__", None)
    if module is None:
        frame = getattr(code, "gi_frame", None)
        module = frame.f_globals.get("__name__", "") if frame else ""
    parts = module.split(".")
    package = parts[1] if len(parts) > 1 and parts[0] == "repro" else ""
    return _PACKAGE_LAYER.get(package, "core")


class Tracer:
    """In-memory span store shared by every installed wrapper."""

    def __init__(self) -> None:
        self.kinds = array("B")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.refs = array("i")
        # Indices of the open spans; -1 is the parent of root spans.
        self.stack: List[int] = [-1]
        self._ref_ids: Dict[Any, int] = {}

    def open(self, kind: int, ref: int = -1) -> int:
        """Start a span of kind index ``kind``; returns its index."""
        index = len(self.kinds)
        self.kinds.append(kind)
        self.parents.append(self.stack[-1])
        self.refs.append(ref)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        """End the innermost open span, which must be ``index``."""
        self.ends[index] = time.perf_counter()
        self.stack.pop()

    def ref(self, message: Any) -> int:
        """Dense id of an application message (-1 for anything else)."""
        mid = getattr(message, "id", None)
        if mid is None:
            return -1
        return self._ref_ids.setdefault(mid, len(self._ref_ids))

    def __len__(self) -> int:
        return len(self.kinds)

    def summary(self, first: int = 0,
                end: Optional[int] = None) -> Dict[str, Tuple[int, float,
                                                              float]]:
        """``kind -> (calls, self seconds, inclusive seconds)`` over the
        spans with index in ``[first, end)``.

        The window must start with no span open, so every span in it
        has its parent in it too (or is a root).
        """
        if len(self.stack) != 1:
            raise RuntimeError(f"{len(self.stack) - 1} spans still open")
        end = len(self.kinds) if end is None else end
        starts, ends, parents = self.starts, self.ends, self.parents
        durations = [ends[i] - starts[i] for i in range(first, end)]
        covered = [0.0] * len(durations)
        for offset in range(len(durations)):
            parent = parents[first + offset]
            if parent >= first:
                covered[parent - first] += durations[offset]
        totals = {kind: [0, 0.0, 0.0] for kind in KINDS}
        for offset, kind in enumerate(self.kinds[first:end]):
            row = totals[KINDS[kind]]
            row[0] += 1
            row[1] += durations[offset] - covered[offset]
            row[2] += durations[offset]
        return {kind: (int(calls), own, inclusive)
                for kind, (calls, own, inclusive) in totals.items()}


def _span(tracer: Tracer, fn: Callable, kind: str,
          ref: Optional[Callable[..., Any]] = None,
          ref_result: bool = False) -> Callable:
    """Wrap ``fn`` so every call records one span of ``kind``.

    ``ref(*args)`` names the message a call serves; with ``ref_result``
    the returned value does (a submission's message is born in the call).
    """
    code = _KIND_INDEX[kind]

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        index = tracer.open(code, -1 if ref is None
                            else tracer.ref(ref(*args)))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if ref_result:
            tracer.refs[index] = tracer.ref(result)
        return result

    return traced


def _traced_steps(tracer: Tracer, gen: Any, kind: str) -> Any:
    """A generator proxy recording one span per step of ``gen``.

    Tasks drive generators with ``send`` and ``close`` only; both are
    forwarded, so the proxied task behaves exactly like the original.
    """
    step = _span(tracer, gen.send, kind)
    value = None
    try:
        while True:
            try:
                request = step(value)
            except StopIteration as stop:
                return stop.value
            value = yield request
    finally:
        gen.close()


def install(tracer: Tracer) -> List[Tuple[Any, str, Any]]:
    """Wrap every entry point in place; returns what :func:`uninstall`
    needs to restore the originals."""
    saved: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, name: str, replacement: Any) -> None:
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    for owner, name, kind in ENTRY_POINTS:
        patch(owner, name, _span(tracer, getattr(owner, name), kind))

    storage_cls = stable.StableStorage
    patch(storage_cls, "append", _span(
        tracer, storage_cls.append, "storage.append",
        ref=lambda _storage, _key, item: item))
    # A write barrier's own work is its enter and exit hooks (group
    # commit, deferred fsyncs); the caller's code inside the ``with``
    # body belongs to the caller, so the hooks are the spans.
    for cls in (storage_cls, FileStorage):
        for hook in ("_barrier_begin", "_barrier_end"):
            if hook in vars(cls):
                patch(cls, hook, _span(tracer, getattr(cls, hook),
                                       "storage.barrier"))

    rsm = ReplicatedStateMachine
    patch(rsm, "on_deliver", _span(tracer, rsm.on_deliver, "apps.deliver",
                                   ref=lambda _rsm, message: message))
    patch(rsm, "submit", _span(tracer, rsm.submit, "core.submit",
                               ref_result=True))

    original_register = Node.register_handler
    original_spawn = Node.spawn

    def register_handler(self: Node, msg_type: str,
                         handler: Callable[[Any, int], None]) -> None:
        original_register(self, msg_type, _span(
            tracer, handler, f"{_layer_of(handler)}.handler"))

    def spawn(self: Node, gen: Any, name: str) -> Any:
        return original_spawn(self, _traced_steps(
            tracer, gen, f"{_layer_of(gen)}.task"), name)

    patch(Node, "register_handler", register_handler)
    patch(Node, "spawn", spawn)

    # Live runtime: every loop callback is a span, the analogue of the
    # simulator's run loop.
    original_schedule = LiveRuntime.schedule
    original_call_soon = LiveRuntime.call_soon

    def schedule(self: LiveRuntime, delay: float, callback: Callable,
                 *args: Any) -> Any:
        return original_schedule(self, delay, _span(
            tracer, callback, "runtime.callback"), *args)

    def call_soon(self: LiveRuntime, callback: Callable, *args: Any) -> Any:
        return original_call_soon(self, _span(
            tracer, callback, "runtime.callback"), *args)

    patch(LiveRuntime, "schedule", schedule)
    patch(LiveRuntime, "call_soon", call_soon)
    return saved


def uninstall(saved: List[Tuple[Any, str, Any]]) -> None:
    """Restore the originals :func:`install` replaced (reverse order)."""
    for owner, name, original in reversed(saved):
        setattr(owner, name, original)
