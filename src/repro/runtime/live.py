"""Live implementation of the runtime interface over asyncio.

:class:`LiveRuntime` runs the *same* generator-based protocol code as the
deterministic simulator, but against a real event loop:

* the clock is the loop's monotonic clock, rebased so ``now`` starts at
  0.0 (protocol timeouts are written in seconds and work unchanged);
* ``schedule`` maps onto ``loop.call_later`` and ``call_soon`` onto
  ``loop.call_soon`` — the only two operations the task/event primitives
  need;
* tasks remain cooperative generators stepped by callbacks, so the
  single-threaded atomicity assumption of the paper ("statements
  associated with message receptions are executed atomically") still
  holds: the asyncio loop never runs two callbacks concurrently.

What is *not* preserved is determinism: callback ordering depends on
wall-clock timing and the OS scheduler.  The protocols tolerate this by
construction — the paper's model is asynchronous — and the conformance
suite (tests/integration/test_runtime_conformance.py) checks that both
runtimes A-deliver the same totally-ordered stream for the same workload.

Exceptions raised by protocol callbacks are captured on
:attr:`LiveRuntime.errors` (asyncio would otherwise just log them);
harnesses re-raise them after the run so failures are loud.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.runtime.api import Runtime
from repro.runtime.primitives import Event

__all__ = ["LiveRuntime"]


class _FutureWaiter:
    """Adapter letting ``run_until_event`` park on an asyncio future."""

    __slots__ = ("future",)

    def __init__(self, future: "asyncio.Future[Any]"):
        self.future = future

    @property
    def dead(self) -> bool:
        return self.future.done()

    def _resume(self, value: Any) -> None:  # called by Event.fire
        if not self.future.done():
            self.future.set_result(value)


class LiveRuntime(Runtime):
    """Real-time runtime: asyncio loop, wall clock, captured errors.

    Parameters
    ----------
    seed:
        Root seed for the named RNG streams (drives the *injected*
        loss/duplication of :class:`~repro.runtime.live_net.LiveNetwork`;
        timing remains wall-clock and therefore non-deterministic).
    loop:
        An event loop to drive; a fresh one is created (and owned, i.e.
        closed by :meth:`close`) when omitted.
    """

    def __init__(self, seed: int = 0,
                 loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        super().__init__(seed=seed)
        self._owns_loop = loop is None
        self.loop = loop if loop is not None else asyncio.new_event_loop()
        self._epoch = self.loop.time()
        self._event_count = 0
        # (exception, context) pairs from protocol callbacks.
        self.errors: List[Tuple[BaseException, str]] = []

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Seconds of wall-clock time since this runtime was created."""
        return self.loop.time() - self._epoch

    def jump_clock(self, delta: float) -> None:
        """Skew the runtime clock ``delta`` seconds forward.

        Models an NTP step or a VM pause: already-armed timers keep
        their real delays, but every reader of :attr:`now` — adaptive
        failure-detector timeouts above all — sees time leap.  Used by
        the chaos engine's clock-jump nemesis; the protocols must
        tolerate it because the paper's model is fully asynchronous.
        """
        if delta < 0:
            raise SimulationError(f"clock can only jump forward, not {delta}")
        self._epoch -= delta

    @property
    def events_processed(self) -> int:
        """Total callbacks executed so far (useful as a work metric)."""
        return self._event_count

    # -- scheduling ---------------------------------------------------------

    def _step(self, callback: Callable, args: tuple) -> None:
        self._event_count += 1
        try:
            callback(*args)
        except BaseException as exc:  # noqa: BLE001 - recorded, re-raised later
            self.errors.append((exc, repr(callback)))

    def schedule(self, delay: float, callback: Callable,
                 *args: Any) -> asyncio.TimerHandle:
        """Run ``callback(*args)`` after ``delay`` wall-clock seconds."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"invalid delay {delay}")
        return self.loop.call_later(delay, self._step, callback, args)

    def call_soon(self, callback: Callable, *args: Any) -> asyncio.Handle:
        """Run ``callback(*args)`` on the next loop iteration."""
        return self.loop.call_soon(self._step, callback, args)

    # -- running -------------------------------------------------------------

    def run_for(self, seconds: float) -> None:
        """Drive the loop for ``seconds`` of wall-clock time."""
        self.loop.run_until_complete(asyncio.sleep(seconds))

    def run_until_event(self, event: Event,
                        limit: Optional[float] = None) -> Any:
        """Drive the loop until ``event`` fires; returns its value.

        Raises :class:`SimulationError` if ``limit`` wall-clock seconds
        pass first — the live analogue of the simulator's deadlock
        detector.
        """
        if event.fired:
            return event.value
        future: "asyncio.Future[Any]" = self.loop.create_future()
        event._add_waiter(_FutureWaiter(future))  # type: ignore[arg-type]

        async def wait() -> Any:
            if limit is None:
                return await future
            try:
                return await asyncio.wait_for(future, limit)
            except asyncio.TimeoutError:
                raise SimulationError(
                    f"timeout: event {event.name!r} not fired "
                    f"within {limit}s") from None

        return self.loop.run_until_complete(wait())

    def check_errors(self) -> None:
        """Re-raise the first exception captured from a callback."""
        if self.errors:
            exc, origin = self.errors[0]
            raise SimulationError(
                f"{len(self.errors)} callback error(s); first from "
                f"{origin}: {exc!r}") from exc

    def close(self) -> None:
        """Shut the loop down (only if this runtime created it)."""
        if self._owns_loop and not self.loop.is_closed():
            self.loop.close()
