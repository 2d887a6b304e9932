"""Root-cell Linux model.

The root cell runs a general-purpose Linux whose roles in the experiments are
(1) to host the ``jailhouse`` management tool (cell create/load/start/
shutdown/destroy — modeled by :class:`~repro.hypervisor.cli.JailhouseCli`),
(2) to generate background trap traffic on CPU 0, and (3) to make the
whole-system consequence of a hypervisor panic observable: when the
hypervisor dies underneath it, the console shows a kernel panic — the
signature the paper calls "panic park".
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.registry import GUESTS
from repro.guests.base import GuestEvent, GuestOS, GuestState
from repro.hw.registers import Register
from repro.hypervisor.hypercalls import Hypercall
from repro.hypervisor.traps import TrapCode

_RUNNING = GuestState.RUNNING  # bound once: enum attribute lookups are slow


@GUESTS.register("linux")
class LinuxGuest(GuestOS):
    """General-purpose OS running in the root cell."""

    def __init__(self, name: str = "BananaPi-Linux", *, seed: int = 0,
                 hypercall_probability: float = 0.02,
                 wfi_probability: float = 0.20,
                 cp15_probability: float = 0.05,
                 log_period: float = 2.0) -> None:
        super().__init__(name, seed=seed)
        self.hypercall_probability = hypercall_probability
        self.wfi_probability = wfi_probability
        self.cp15_probability = cp15_probability
        self.log_period = log_period
        self.jiffies = 0
        self.syscalls_serviced = 0
        # repro: allow[snapshot-complete] -- pure memo of dt -> jiffy increment; a hit and a recompute yield identical state
        self._jiffy_cache: Optional[tuple] = None
        self._last_log = 0.0
        self.kernel_panicked = False
        self.panic_message: Optional[str] = None

    def boot_banner(self) -> str:
        return "Linux version 5.10.0-jailhouse (root cell) booting"

    def step(self, cpu_id: int, now: float, dt: float) -> List[GuestEvent]:
        """One quantum of root-cell activity on ``cpu_id``."""
        if self.state is not _RUNNING:
            return []
        self.stats.steps += 1
        jiffy_cache = self._jiffy_cache
        if jiffy_cache is not None and jiffy_cache[0] == dt:
            self.jiffies += jiffy_cache[1]
        else:
            increment = max(1, int(round(dt / 0.010)))
            self._jiffy_cache = (dt, increment)
            self.jiffies += increment
        self.syscalls_serviced += self._integers(5, 40)

        if now - self._last_log >= self.log_period:
            self._last_log = now
            self.console(
                f"systemd[1]: heartbeat jiffies={self.jiffies} "
                f"syscalls={self.syscalls_serviced}"
            )

        events: List[GuestEvent] = []
        nominal = self.nominal_registers(cpu_id)
        self.place_registers(cpu_id, nominal)

        random = self._random
        if random() < self.wfi_probability:
            events.append(GuestEvent(trap=TrapCode.WFI, registers=dict(nominal),
                                     description="cpuidle WFI"))
        if random() < self.cp15_probability:
            events.append(GuestEvent(trap=TrapCode.CP15_ACCESS,
                                     registers=dict(nominal),
                                     description="arch timer register access"))
        if random() < self.hypercall_probability:
            registers = dict(nominal)
            registers[Register.R0] = int(Hypercall.HYPERVISOR_GET_INFO)
            events.append(GuestEvent(trap=TrapCode.HYPERCALL, registers=registers,
                                     description="jailhouse driver info query"))
        self.stats.traps_generated += len(events)
        return events

    def on_system_panic(self, reason: str) -> None:
        """The hypervisor died: the root kernel panics with it."""
        super().on_system_panic(reason)
        self.kernel_panicked = True
        self.panic_message = reason
        self.console(f"Kernel panic - not syncing: {reason}")
        self.console("---[ end Kernel panic - not syncing ]---")

    def healthy(self) -> bool:
        return self.state is GuestState.RUNNING and not self.kernel_panicked

    # -- snapshot / restore ------------------------------------------------------------

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["linux"] = (self.jiffies, self.syscalls_serviced, self._last_log,
                          self.kernel_panicked, self.panic_message)
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        (self.jiffies, self.syscalls_serviced, self._last_log,
         self.kernel_panicked, self.panic_message) = state["linux"]
