"""Discrete-event simulation clock.

All components of the simulated board share a single :class:`SimulationClock`.
Time is expressed in seconds as a float. Components can register periodic or
one-shot callbacks; callbacks fire, in timestamp order, when the clock is
advanced past their due time. The clock never moves backwards.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Tuple


@dataclass(slots=True)
class _ScheduledEvent:
    due: float
    callback: Callable[[float], None]
    period: Optional[float] = None
    cancelled: bool = False


class EventHandle:
    """Handle returned by :meth:`SimulationClock.schedule` used to cancel events."""

    def __init__(self, event: _ScheduledEvent) -> None:
        self._event = event

    def cancel(self) -> None:
        """Prevent the event from firing (periodic events stop rescheduling)."""
        self._event.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def due(self) -> float:
        """Simulated time at which the event will next fire."""
        return self._event.due


class SimulationClock:
    """Monotonic simulated clock with scheduled callbacks.

    Parameters
    ----------
    start:
        Initial simulated time in seconds.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        #: Heap of ``(due, sequence, event)``: the unique sequence number
        #: breaks ties in scheduling order, so comparisons stay in C and
        #: never reach the event itself.
        self._events: list[Tuple[float, int, _ScheduledEvent]] = []
        self._counter = itertools.count()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(
        self,
        delay: float,
        callback: Callable[[float], None],
        *,
        period: Optional[float] = None,
    ) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        If ``period`` is given the callback re-arms itself every ``period``
        seconds after the first firing. The callback receives the simulated
        time at which it fires.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        if period is not None and period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        event = _ScheduledEvent(due=self._now + delay, callback=callback,
                                period=period)
        heapq.heappush(self._events, (event.due, next(self._counter), event))
        return EventHandle(event)

    def advance(self, duration: float) -> int:
        """Advance simulated time by ``duration`` seconds, firing due events.

        Returns the number of callbacks that fired. Events scheduled by
        callbacks during the advance are honored if they fall inside the
        window being advanced over.
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        target = self._now + duration
        fired = 0
        events = self._events
        heappop = heapq.heappop
        heappush = heapq.heappush
        counter = self._counter
        while events and events[0][0] <= target:
            due, _, event = heappop(events)
            if event.cancelled:
                continue
            if due > self._now:
                self._now = due
            event.callback(self._now)
            fired += 1
            if event.period is not None and not event.cancelled:
                event.due = due = self._now + event.period
                heappush(events, (due, next(counter), event))
        self._now = target
        return fired

    def pending_events(self) -> int:
        """Number of scheduled events that have not been cancelled."""
        return sum(1 for _, _, event in self._events if not event.cancelled)

    def cancel_all(self) -> None:
        """Cancel every scheduled event (used on board reset)."""
        for _, _, event in self._events:
            event.cancelled = True
        self._events.clear()

    def reset_to(self, now: float) -> None:
        """Cancel every event and move the clock to ``now`` (snapshot restore).

        Components that had events scheduled (the per-CPU timers) re-schedule
        themselves from their own restored state afterwards.
        """
        self.cancel_all()
        self._now = float(now)
