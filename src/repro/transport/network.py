"""Fair-loss media: unreliable, fair, asynchronous channels.

:class:`FairLossMedium` models the transport assumptions of Section 3.1
once, for both runtimes; :class:`Network` is the simulator's medium and
:class:`~repro.runtime.live_net.LiveNetwork` the UDP one:

* a bidirectional channel between every pair of processes;
* channels are **not** FIFO (each message draws an independent delay);
* channels may **lose** messages (probabilistically) and **duplicate**
  them;
* transfer delays are finite but arbitrary (bounded random draws in
  the simulator, whatever the loopback interface does on UDP);
* channels are **fair**: a message sent infinitely often is received
  infinitely often — guaranteed here because per-message loss is an
  independent Bernoulli draw with probability < 1 (outside explicit
  partitions, which scenarios must eventually heal for fairness to hold).

Messages addressed to a node that is *down* at delivery time are lost,
exactly as in the paper's model (Section 2.1).  Self-addressed messages
(``multisend`` includes the sender) are delivered reliably with zero
delay: a process's loopback does not cross the network.
"""

from __future__ import annotations

import math
import random  # typing only: the Network *receives* a seeded stream
from typing import Callable, Dict, FrozenSet, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.runtime import Node, Runtime
from repro.sizing import estimate_size
from repro.transport.message import WireMessage

__all__ = ["FairLossMedium", "NetworkConfig", "Network", "NetworkMetrics"]


class NetworkConfig:
    """Tunables of a fair-loss medium.

    Parameters
    ----------
    min_delay, max_delay:
        Finite bounds of the uniform per-message delay draw (virtual
        time; the live medium has real delays and ignores them).
    loss_rate:
        Independent probability that a message is dropped in transit.
        Must be < 1 to preserve the fair-loss property.
    duplicate_rate:
        Probability that a delivered message is delivered twice (the
        duplicate draws its own delay).
    delay_fn:
        Optional override: ``delay_fn(rng) -> float`` replaces the uniform
        draw (e.g. heavy-tailed delays).
    """

    def __init__(self, min_delay: float = 0.01, max_delay: float = 0.1,
                 loss_rate: float = 0.0, duplicate_rate: float = 0.0,
                 delay_fn: Optional[Callable[[random.Random], float]] = None):
        if not 0.0 <= loss_rate < 1.0:
            raise SimulationError(
                f"loss_rate {loss_rate} breaks the fair-loss assumption")
        if not 0.0 <= duplicate_rate <= 1.0:
            raise SimulationError(f"bad duplicate_rate {duplicate_rate}")
        if not (math.isfinite(min_delay) and math.isfinite(max_delay)
                and 0 <= min_delay <= max_delay):
            raise SimulationError(
                f"bad delay bounds [{min_delay}, {max_delay}]")
        self.min_delay = min_delay
        self.max_delay = max_delay
        self.loss_rate = loss_rate
        self.duplicate_rate = duplicate_rate
        self.delay_fn = delay_fn


class NetworkMetrics:
    """Traffic counters, per run."""

    __slots__ = ("sent", "delivered", "lost", "dropped_down", "duplicated",
                 "bytes_sent", "by_type")

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.lost = 0
        self.dropped_down = 0
        self.duplicated = 0
        self.bytes_sent = 0
        self.by_type: Dict[str, int] = {}

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy, for metric collection."""
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "lost": self.lost,
            "dropped_down": self.dropped_down,
            "duplicated": self.duplicated,
            "bytes_sent": self.bytes_sent,
        }


class FairLossMedium:
    """The Section 3.1 channel policy, shared by every medium.

    Owns the node table, the partition set, the metrics and the whole
    send decision: unknown destination, accounting, loopback, partition,
    seeded loss and duplication.  A subclass supplies only
    :meth:`_carry`, which moves one copy of a message that survived the
    policy (a scheduled delivery in the simulator, a datagram on the
    live medium).

    The draw order is loss, then :meth:`_carry`, then the duplicate
    draw, then :meth:`_carry` again: the simulator's delay draws must
    sit between the loss and duplicate draws for a seed to replay the
    schedules recorded in the BENCH baselines.
    """

    def __init__(self, runtime: Runtime, rng: random.Random,
                 config: Optional[NetworkConfig] = None):
        self.runtime = runtime
        self.rng = rng
        self.config = config or NetworkConfig()
        self.nodes: Dict[int, Node] = {}
        self.metrics = NetworkMetrics()
        self._partitions: Set[FrozenSet[int]] = set()

    # -- topology -----------------------------------------------------------

    def register(self, node: Node) -> None:
        """Attach a node to the medium."""
        if node.node_id in self.nodes:
            raise SimulationError(f"node {node.node_id} already registered")
        self.nodes[node.node_id] = node

    def node_ids(self) -> Tuple[int, ...]:
        """All registered node ids, sorted."""
        return tuple(sorted(self.nodes))

    # -- partitions -------------------------------------------------------------

    def partition(self, a: int, b: int) -> None:
        """Sever the link between ``a`` and ``b`` (both directions)."""
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: int, b: int) -> None:
        """Restore the link between ``a`` and ``b``."""
        self._partitions.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        """Restore every severed link."""
        self._partitions.clear()

    def is_partitioned(self, a: int, b: int) -> bool:
        """True if the a—b link is currently severed."""
        return frozenset((a, b)) in self._partitions

    # -- sending ------------------------------------------------------------------

    def send(self, src: int, dst: int, message: WireMessage) -> None:
        """Inject one message from ``src`` to ``dst``.

        Loss and duplication are decided at send time with independent
        seeded draws; a message addressed to a down node is silently
        dropped at delivery time.
        """
        if dst not in self.nodes:
            raise SimulationError(f"unknown destination {dst}")
        metrics = self.metrics
        metrics.sent += 1
        metrics.bytes_sent += estimate_size(message)
        metrics.by_type[message.type] = \
            metrics.by_type.get(message.type, 0) + 1

        if src == dst:
            # Loopback: reliable, immediate, never crosses the medium.
            self.runtime.call_soon(self._deliver, src, dst, message)
            return
        if self._partitions and frozenset((src, dst)) in self._partitions:
            metrics.lost += 1
            return
        config = self.config
        if config.loss_rate and self.rng.random() < config.loss_rate:
            metrics.lost += 1
            return
        self._carry(src, dst, message)
        if (config.duplicate_rate
                and self.rng.random() < config.duplicate_rate):
            metrics.duplicated += 1
            self._carry(src, dst, message)

    def multisend(self, src: int, message: WireMessage,
                  targets: Optional[Tuple[int, ...]] = None) -> None:
        """The paper's ``multisend`` macro: send to every process,
        including the sender itself (Section 3.1, footnote 2).

        With ``targets`` (a membership view's member set) the send is
        restricted to those destinations; unknown ids are skipped —
        a view may momentarily name a node whose stack is still being
        built.
        """
        if targets is None:
            for dst in self.nodes:
                self.send(src, dst, message)
            return
        for dst in targets:
            if dst in self.nodes:
                self.send(src, dst, message)

    def _carry(self, src: int, dst: int, message: WireMessage) -> None:
        """Move one copy of a message the channel policy let through."""
        raise NotImplementedError

    def _deliver(self, src: int, dst: int, message: WireMessage) -> None:
        node = self.nodes.get(dst)
        if node is not None and node.deliver(message, src):
            self.metrics.delivered += 1
        else:
            self.metrics.dropped_down += 1


class Network(FairLossMedium):
    """The simulated medium connecting every node of a simulation."""

    def __init__(self, sim: Runtime, rng: random.Random,
                 config: Optional[NetworkConfig] = None):
        super().__init__(sim, rng, config)
        # Gray failure: constant extra delay on every message touching a
        # limping node (either direction).  Added on top of the drawn
        # delay with NO extra RNG draws, so an empty map leaves the
        # event order of every existing seed untouched.
        self._node_delays: Dict[int, float] = {}

    # -- gray failures (limping nodes) -----------------------------------------

    def set_node_delay(self, node_id: int, extra: float) -> None:
        """Make ``node_id`` limp: add ``extra`` to every delay draw on
        messages it sends or receives (slow NIC / overloaded host)."""
        if not (math.isfinite(extra) and extra >= 0):
            raise SimulationError(f"bad limp delay {extra}")
        self._node_delays[node_id] = extra

    def clear_node_delay(self, node_id: int) -> None:
        """Restore normal link latency for ``node_id``."""
        self._node_delays.pop(node_id, None)

    def clear_node_delays(self) -> None:
        """Restore normal link latency everywhere (chaos settle phase)."""
        self._node_delays.clear()

    # -- internals --------------------------------------------------------------------

    def _carry(self, src: int, dst: int, message: WireMessage) -> None:
        delay = self._draw_delay()
        if self._node_delays:
            delay += (self._node_delays.get(src, 0.0)
                      + self._node_delays.get(dst, 0.0))
        self.runtime.schedule(delay, self._deliver, src, dst, message)

    def _draw_delay(self) -> float:
        if self.config.delay_fn is not None:
            delay = self.config.delay_fn(self.rng)
            if not delay >= 0:  # also rejects NaN
                raise SimulationError(
                    f"delay_fn returned an invalid delay {delay}")
            return delay
        return self.rng.uniform(self.config.min_delay, self.config.max_delay)
