"""Per-CPU generic timer model.

Each Cortex-A7 core has a private timer that drives the guest OS tick (the
FreeRTOS scheduler tick and the Linux jiffy). The timer raises a private
peripheral interrupt (PPI) through the GIC; in a Jailhouse deployment the
virtual timer interrupt is handled by the guest, but its arrival still enters
through the hypervisor's ``irqchip_handle_irq()`` path, which is one of the
paper's candidate injection points.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import DeviceError
from repro.hw.clock import EventHandle, SimulationClock
from repro.hw.gic import Gic

#: PPI id of the virtual timer on ARM platforms.
VIRTUAL_TIMER_PPI = 27


class GenericTimer:
    """Periodic per-CPU timer wired to the GIC."""

    def __init__(self, cpu_id: int, clock: SimulationClock, gic: Gic,
                 *, irq: int = VIRTUAL_TIMER_PPI) -> None:
        self.cpu_id = cpu_id
        self.irq = irq
        self._clock = clock
        self._gic = gic
        self._handle: Optional[EventHandle] = None
        self._period: Optional[float] = None

    @property
    def running(self) -> bool:
        return self._handle is not None and not self._handle.cancelled

    @property
    def period(self) -> Optional[float]:
        return self._period

    def start(self, period: float) -> None:
        """Start (or restart) the timer with the given period in seconds."""
        if period <= 0:
            raise DeviceError(f"timer period must be positive, got {period}")
        self.stop()
        self._period = period
        self._handle = self._clock.schedule(period, self._tick, period=period)

    def stop(self) -> None:
        """Stop the timer; pending interrupts stay pending."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self._period = None

    def _tick(self, now: float) -> None:
        self._gic.raise_irq(self.irq, cpu_id=self.cpu_id)

    # -- snapshot / restore ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Capture run state including the phase of the next tick."""
        return {
            "running": self.running,
            "period": self._period,
            "due": self._handle.due if self.running else None,
        }

    def restore_state(self, state: dict) -> None:
        """Re-arm the timer from a snapshot (the clock must be restored first)."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self._period = state["period"]
        if state["running"]:
            delay = max(0.0, state["due"] - self._clock.now)
            self._handle = self._clock.schedule(
                delay, self._tick, period=state["period"]
            )
