"""CPU core model for the dual-core Cortex-A7.

Each :class:`CpuCore` owns an architectural register file, a processor mode,
and an availability state. The hypervisor uses the state machine to model CPU
hotplug (bringing the non-root cell's core online), ``cpu_park()`` (the
reaction to an unhandled trap, error code 0x24 in the paper), and the
whole-system panic park.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import CpuStateError
from repro.hw.registers import (
    Register,
    RegisterFile,
    TrapContext,
    make_cpsr,
)


class CpuMode(enum.Enum):
    """ARMv7 processor modes relevant to the model."""

    USR = "usr"
    SVC = "svc"
    IRQ = "irq"
    HYP = "hyp"
    MON = "mon"


class CpuState(enum.Enum):
    """Availability state of a core."""

    OFFLINE = "offline"
    ONLINE = "online"
    WAIT_FOR_POWERON = "wait_for_poweron"
    PARKED = "parked"
    FAILED = "failed"


# Bound once for the trap entry/exit path (an enum class attribute lookup
# costs several times a module global).
_ONLINE = CpuState.ONLINE
_HYP = CpuMode.HYP
_SVC = CpuMode.SVC


@dataclass(frozen=True)
class ParkRecord:
    """Why and when a CPU was parked.

    Frozen: :meth:`CpuCore.snapshot_state` shallow-copies the park history,
    so a mutable record would alias between a live core and its snapshots —
    a post-snapshot mutation would silently rewrite history inside every
    snapshot holding the record (and, through a prefix fork, inside every
    experiment forked from it).
    """

    timestamp: float
    reason: str
    error_code: Optional[int] = None


class CpuCore:
    """One core of the simulated board."""

    def __init__(self, cpu_id: int) -> None:
        self.cpu_id = cpu_id
        self.registers = RegisterFile()
        self.mode = CpuMode.SVC
        self.state = CpuState.OFFLINE
        self.assigned_cell: Optional[int] = None
        self.park_history: List[ParkRecord] = []
        self._trap_entries = 0

    # -- lifecycle -------------------------------------------------------------

    def power_on(self, entry_point: int = 0x0, *, cell_id: Optional[int] = None) -> None:
        """Bring the core online at ``entry_point`` (models CPU hotplug)."""
        if self.state is CpuState.ONLINE:
            raise CpuStateError(f"CPU {self.cpu_id} is already online")
        self.registers.reset()
        self.registers.write(Register.PC, entry_point)
        self.registers.write(Register.CPSR, make_cpsr(0b10011, irq_masked=False))
        self.mode = CpuMode.SVC
        self.state = CpuState.ONLINE
        if cell_id is not None:
            self.assigned_cell = cell_id

    def power_off(self) -> None:
        """Take the core offline (models ``jailhouse cell shutdown``/hotunplug)."""
        self.state = CpuState.OFFLINE
        self.mode = CpuMode.SVC
        self.assigned_cell = None

    def park(self, reason: str, *, timestamp: float = 0.0,
             error_code: Optional[int] = None) -> None:
        """Park the core: it stops executing until reset (``cpu_park()``)."""
        self.state = CpuState.PARKED
        self.park_history.append(
            ParkRecord(timestamp=timestamp, reason=reason, error_code=error_code)
        )

    def fail(self, reason: str, *, timestamp: float = 0.0) -> None:
        """Mark the core as failed (fault left it in a non-executable state)."""
        self.state = CpuState.FAILED
        self.park_history.append(ParkRecord(timestamp=timestamp, reason=reason))

    def reset(self) -> None:
        """Warm reset: clears registers and returns the core to OFFLINE."""
        self.registers.reset()
        self.mode = CpuMode.SVC
        self.state = CpuState.OFFLINE
        self.assigned_cell = None

    # -- execution helpers -------------------------------------------------------

    @property
    def is_executing(self) -> bool:
        """Whether the core can currently run guest code."""
        return self.state is CpuState.ONLINE

    @property
    def is_parked(self) -> bool:
        return self.state is CpuState.PARKED

    def enter_trap(self, vector: str, hsr: int, *, timestamp: float = 0.0) -> TrapContext:
        """Capture the guest state into a :class:`TrapContext` at hypervisor entry.

        This models the CPU switching to HYP mode and the hypervisor saving the
        guest's registers on its per-CPU stack — the structure the paper's
        fault injector corrupts.
        """
        if self.state is not _ONLINE:
            raise CpuStateError(
                f"CPU {self.cpu_id} cannot trap in state {self.state.value}"
            )
        self.mode = _HYP
        self._trap_entries += 1
        return TrapContext.capture(self.cpu_id, self.registers.snapshot(),
                                   hsr, vector, timestamp)

    def exit_trap(self, context: TrapContext) -> None:
        """Restore the (possibly corrupted) context and return to guest mode."""
        if self.state is not _ONLINE:
            # A handler may have parked or failed the CPU; nothing to restore.
            return
        # The context's register dict holds masked values for (at least) every
        # corruptible register; bulk-load it instead of rebuilding a dict via
        # 17 read() calls — this runs a few times per simulation step.
        self.registers.load_context(context.registers)
        self.mode = _SVC

    @property
    def trap_entries(self) -> int:
        """Total number of hypervisor entries taken by this core."""
        return self._trap_entries

    # -- snapshot / restore -------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Capture architectural and availability state."""
        return {
            "registers": self.registers.snapshot(),
            "mode": self.mode,
            "state": self.state,
            "assigned_cell": self.assigned_cell,
            "park_history": list(self.park_history),
            "trap_entries": self._trap_entries,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a prior :meth:`snapshot_state` in place."""
        self.registers.load_context(state["registers"])
        self.mode = state["mode"]
        self.state = state["state"]
        self.assigned_cell = state["assigned_cell"]
        self.park_history = list(state["park_history"])
        self._trap_entries = state["trap_entries"]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CpuCore(id={self.cpu_id}, state={self.state.value}, "
            f"mode={self.mode.value}, cell={self.assigned_cell})"
        )
