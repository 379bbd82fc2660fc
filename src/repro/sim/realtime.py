"""Soft real-time execution of a simulation.

The discrete-event kernel is virtual-time by default — perfect for
experiments, but a downstream user may want to watch a cluster live
(demos, manual poking, latency feel).  :class:`RealTimeRunner` replays
the event queue against the wall clock: before each event it sleeps
until the event's virtual time, scaled by ``time_scale`` (0.5 → twice
as fast as real time).

Nothing in the protocol stack changes: the same deterministic schedule
executes, just paced.  Because sleeping is the only difference, a
real-time run and a virtual run of the same seed produce identical
states — asserted by the tests.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.runtime.sim import Simulator

__all__ = ["RealTimeRunner"]


class RealTimeRunner:
    """Paces a simulator against the wall clock.

    Parameters
    ----------
    sim:
        The simulator to drive.
    time_scale:
        Wall seconds per unit of virtual time (1.0 = real time,
        0.01 = hundredfold speed-up).
    sleep:
        Injection point for tests (defaults to :func:`time.sleep`).
    clock:
        Injection point for tests (defaults to :func:`time.monotonic`).
    """

    def __init__(self, sim: Simulator, time_scale: float = 1.0,
                 # Sanctioned wall-clock boundary: pacing only — the event
                 # *schedule* stays a pure function of the seed.
                 sleep: Callable[[float], None] = time.sleep,  # repro: noqa(DET001) -- pacing only, injectable
                 clock: Callable[[], float] = time.monotonic):  # repro: noqa(DET001) -- pacing only, injectable
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.sim = sim
        self.time_scale = time_scale
        self._sleep = sleep
        self._clock = clock
        self.slept_total = 0.0

    def run(self, until: Optional[float] = None) -> float:
        """Process events, pacing each to its wall-clock due time.

        Returns the final virtual time, exactly like ``Simulator.run``.
        """
        anchor_wall = self._clock()
        anchor_virtual = self.sim.now
        while True:
            pending = [entry[0] for entry in self.sim._heap
                       if not entry[2].cancelled]
            if not pending:
                break
            next_when = min(pending)
            if until is not None and next_when > until:
                break
            due_wall = anchor_wall + \
                (next_when - anchor_virtual) * self.time_scale
            lag = due_wall - self._clock()
            if lag > 0:
                self._sleep(lag)
                self.slept_total += lag
            self.sim.run(until=next_when)
        if until is not None and self.sim.now < until:
            self.sim.run(until=until)
        return self.sim.now
