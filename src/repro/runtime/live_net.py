"""Localhost UDP transport for the live runtime.

:class:`LiveNetwork` gives every node its own UDP socket bound to an
ephemeral port on 127.0.0.1 and shares the simulated
:class:`~repro.transport.network.Network`'s fair-loss policy
(:class:`~repro.transport.network.FairLossMedium`, one implementation of
the :class:`~repro.runtime.api.TransportMedium` protocol), so the
transport :class:`~repro.transport.endpoint.Endpoint` stacks on it
unchanged:

* channels are not FIFO and may drop or duplicate datagrams — UDP
  provides this for real, and configurable *injected* loss/duplication
  (drawn from a seeded stream) keeps the paper's channel model testable
  even on a loopback interface that rarely loses anything;
* messages to a down node are lost: a killed node's socket is closed, so
  datagrams addressed to it vanish exactly like messages to a crashed
  process (Section 2.1);
* self-addressed messages stay reliable and never touch the network
  (the paper's loopback footnote), implemented as a direct callback.

Killing and restarting a node re-binds a *fresh* socket on a new
ephemeral port; the shared port map is updated so peers reach the
recovered process, emulating a process restart without fixed port
assignments.

**One frame per datagram**: every send encodes the message as one
binary frame (:func:`repro.runtime.wire.encode_frame`) and hands it to
``sendto`` at once.  Batching many protocol messages into one datagram
is the stubborn channel's job (``stub.batch``), not this medium's.

**Datagram size guard**: an encoded frame larger than
:data:`MAX_DATAGRAM_BYTES` (65507, the UDP/IPv4 payload limit) is
counted (``oversize_drops``) and surfaced to the caller as a typed
:class:`~repro.errors.OversizeDatagramError` *before* the send path
touches the socket, instead of ``transport.sendto`` raising a raw
``OSError`` from inside asyncio's datagram plumbing.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, Optional, Tuple

from repro.errors import OversizeDatagramError, SimulationError
from repro.runtime import wire
from repro.runtime.live import LiveRuntime
from repro.sizing import estimate_size  # noqa: F401 -- a perf-tracer patch target
from repro.transport.message import WireMessage
from repro.transport.network import FairLossMedium, NetworkConfig

__all__ = ["LiveNetwork", "MAX_DATAGRAM_BYTES"]


# The UDP/IPv4 payload limit: no datagram can carry more.
MAX_DATAGRAM_BYTES = 65507


class _NodeProtocol(asyncio.DatagramProtocol):
    """Receive path of one node's socket."""

    def __init__(self, network: "LiveNetwork", node_id: int):
        self.network = network
        self.node_id = node_id

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        self.network._receive(self.node_id, data)

    def error_received(self, exc: Exception) -> None:  # pragma: no cover
        self.network.metrics.lost += 1


class LiveNetwork(FairLossMedium):
    """The UDP medium connecting the nodes of a live cluster.

    The channel policy (loss and duplicate draws, loopback, counters)
    is :class:`~repro.transport.network.FairLossMedium`'s; this class
    only carries what survives it as one datagram.

    Parameters
    ----------
    runtime:
        The owning :class:`LiveRuntime` (sockets attach to its loop).
    rng:
        Seeded stream for the injected loss/duplication draws
        (``runtime.rng("network")`` when omitted).
    config:
        Its ``loss_rate``/``duplicate_rate`` are injected on top of
        whatever the real network does; the delay bounds are unused
        (delays are real).
    max_send_buffer:
        Byte bound on a sender socket's kernel write buffer.  When the
        buffer is over the bound the datagram is dropped and counted
        (``send_overflows``) instead of queued without limit — the live
        analogue of the simulator's bounded stubborn backlog.  ``None``
        (default) disables the bound.
    """

    runtime: LiveRuntime

    def __init__(self, runtime: LiveRuntime,
                 rng: Optional[random.Random] = None,
                 config: Optional[NetworkConfig] = None,
                 max_send_buffer: Optional[int] = None) -> None:
        super().__init__(runtime, rng if rng is not None
                         else runtime.rng("network"), config)
        if max_send_buffer is not None and max_send_buffer < 1:
            raise SimulationError(f"bad max_send_buffer {max_send_buffer}")
        self.max_send_buffer = max_send_buffer
        self.send_overflows = 0
        self.send_buffer_high_water = 0
        # Datagram counters (wall-clock side, never gated on).
        self.oversize_drops = 0
        self.datagrams_sent = 0
        self.wire_bytes_sent = 0   # actual encoded bytes through sendto
        self.ports: Dict[int, int] = {}
        self._transports: Dict[int, asyncio.DatagramTransport] = {}

    # -- socket lifecycle ---------------------------------------------------

    async def open(self, node_id: int) -> int:
        """Bind (or re-bind) the node's UDP socket; returns its port."""
        if node_id not in self.nodes:
            raise SimulationError(f"unknown node {node_id}")
        self.close(node_id)
        transport, _ = await self.runtime.loop.create_datagram_endpoint(
            lambda: _NodeProtocol(self, node_id),
            local_addr=("127.0.0.1", 0))
        port = transport.get_extra_info("sockname")[1]
        self._transports[node_id] = transport
        self.ports[node_id] = port
        return port

    async def open_all(self) -> None:
        """Bind a socket for every registered node."""
        for node_id in self.node_ids():
            await self.open(node_id)

    def close(self, node_id: int) -> None:
        """Close the node's socket (datagrams in flight to it are lost)."""
        transport = self._transports.pop(node_id, None)
        if transport is not None:
            transport.close()
        self.ports.pop(node_id, None)

    def close_all(self) -> None:
        """Close every socket (end of run)."""
        for node_id in list(self._transports):
            self.close(node_id)

    # -- internals ----------------------------------------------------------

    def _carry(self, src: int, dst: int, message: WireMessage) -> None:
        """Encode one frame and hand it to the socket.

        Raises :class:`OversizeDatagramError` (after counting the drop)
        when the encoded message cannot fit one datagram — fragmenting
        is a layer this transport deliberately does not have.
        """
        data = wire.encode_frame(src, message)
        if len(data) > MAX_DATAGRAM_BYTES:
            self.oversize_drops += 1
            self.metrics.lost += 1
            raise OversizeDatagramError(message.type, len(data),
                                        MAX_DATAGRAM_BYTES)
        self._transmit(src, dst, data)

    def _transmit(self, src: int, dst: int, data: bytes) -> None:
        transport = self._transports.get(src)
        port = self.ports.get(dst)
        if transport is None or transport.is_closing() or port is None:
            # Sender has no socket (its process is down) or the
            # destination is unreachable: the datagram is simply lost.
            self.metrics.lost += 1
            return
        if self.max_send_buffer is not None:
            buffered = transport.get_write_buffer_size()
            if buffered > self.send_buffer_high_water:
                self.send_buffer_high_water = buffered
            if buffered >= self.max_send_buffer:
                # Bounded send queue: dropping here is ordinary channel
                # loss to the layers above (fair loss is preserved — the
                # buffer drains between sends).
                self.send_overflows += 1
                self.metrics.lost += 1
                return
        self.datagrams_sent += 1
        self.wire_bytes_sent += len(data)
        transport.sendto(data, ("127.0.0.1", port))

    def _receive(self, dst: int, data: bytes) -> None:
        try:
            arrivals = wire.decode_datagram(data)
        except wire.WireCodecError:
            self.metrics.lost += 1
            return
        for src, message in arrivals:
            self._deliver(src, dst, message)
