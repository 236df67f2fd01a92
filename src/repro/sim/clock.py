"""The simulator clock: an ordered queue of timed callbacks."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from repro.perf.tracepoints import around as _around
from repro.perf.tracepoints import entering as _entering
from repro.perf.tracepoints import subscribers as _tracing


@dataclass(slots=True, eq=False)
class Event:
    """A scheduled callback.

    Events fire in ``(time, seq)`` order; ``seq`` is a creation counter so
    ties resolve in scheduling order, which keeps runs deterministic.  The
    queue holds ``(time, seq, event)`` tuples, so the heap compares in C
    and never reaches the event itself.
    """

    time: float
    seq: int
    fn: Callable[[], None]
    cancelled: bool = False
    fired: bool = False
    _sim: "Simulator | None" = field(default=None, repr=False)

    def cancel(self) -> None:
        """Prevent this event from firing (no-op if already fired)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._live -= 1


class Simulator:
    """A discrete-event simulator with a monotonically advancing clock."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._queue: list[tuple[float, int, Event]] = []
        self._dispatched = 0
        #: Live (not cancelled, not yet fired) events in the queue; kept
        #: in step with schedule/cancel/dispatch so ``pending`` is O(1).
        self._live = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def dispatched(self) -> int:
        """Number of events that have fired so far."""
        return self._dispatched

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.

        O(1): a counter maintained at schedule/cancel/dispatch time, not a
        scan of the heap — ``pending`` sits on monitoring paths that poll
        it per tick against queues holding thousands of events.
        """
        return self._live

    def schedule(self, delay: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` seconds from now.

        ``delay`` must be >= 0; a zero delay runs after all events already
        scheduled for the current instant.
        """
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        when = self._now + delay
        event = Event(when, self._seq, fn, _sim=self)
        heapq.heappush(self._queue, (when, self._seq, event))
        self._seq += 1
        self._live += 1
        return event

    def schedule_at(self, when: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at absolute simulated time ``when`` (>= now)."""
        if when < self._now:
            raise ValueError(f"cannot schedule in the past ({when} < {self._now})")
        return self.schedule(when - self._now, fn)

    def step(self) -> bool:
        """Fire the single next event.  Returns False if the queue is empty."""
        while self._queue:
            when, _seq, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue  # its cancel() already dropped the live counter
            event.fired = True
            self._live -= 1
            self._now = when
            self._dispatched += 1
            event.fn()
            return True
        return False

    def run(self, max_events: int = 1_000_000) -> int:
        """Run until the event queue drains.  Returns events dispatched.

        Raises RuntimeError if more than ``max_events`` fire, which almost
        always indicates a self-rescheduling loop that never terminates
        (e.g. a periodic daemon that was never stopped).

        Trace point (shared with :meth:`run_until`): ``on_sim_run_enter(sim)``
        / ``on_sim_run_exit(sim, result, exc)`` bracket the run window.
        """
        if _tracing and _entering(self):
            return _around("sim_run", (self,), self.run, max_events)
        fired = 0
        while self.step():
            fired += 1
            if fired > max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events; runaway loop?")
        return fired

    def run_until(self, deadline: float, max_events: int = 1_000_000) -> int:
        """Run events with time <= ``deadline``; advance the clock to it.

        Periodic tasks that re-schedule themselves keep a deadline-bounded
        run finite, unlike :meth:`run`.
        """
        if _tracing and _entering(self):
            return _around("sim_run", (self,), self.run_until, deadline, max_events)
        fired = 0
        while self._queue:
            when, _seq, head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if when > deadline:
                break
            self.step()
            fired += 1
            if fired > max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events before {deadline}")
        self._now = max(self._now, deadline)
        return fired

    def run_for(self, duration: float, max_events: int = 1_000_000) -> int:
        """Run for ``duration`` simulated seconds from the current time."""
        return self.run_until(self._now + duration, max_events=max_events)

    def every(self, interval: float, fn: Callable[[], None], *, start_delay: float | None = None) -> "PeriodicTask":
        """Run ``fn`` every ``interval`` seconds until the task is stopped."""
        return PeriodicTask(self, interval, fn, start_delay=start_delay)


class PeriodicTask:
    """A self-rescheduling task created by :meth:`Simulator.every`."""

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        fn: Callable[[], None],
        *,
        start_delay: float | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self._sim = sim
        self._interval = interval
        self._fn = fn
        self._stopped = False
        self._event = sim.schedule(interval if start_delay is None else start_delay, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._fn()
        if not self._stopped:
            self._event = self._sim.schedule(self._interval, self._fire)

    def stop(self) -> None:
        """Stop the task; any queued firing is cancelled."""
        self._stopped = True
        self._event.cancel()

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has been called."""
        return self._stopped
