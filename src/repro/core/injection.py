"""The fault injector.

:class:`FaultInjector` is the reproduction of the paper's "dozen of lines of
code added to Jailhouse": it installs itself as an entry hook on the targeted
hypervisor handlers, counts matching calls, asks its trigger whether to fire,
and applies the configured fault model to the saved guest context. Every
activation is recorded for later analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.faultmodels import AppliedFault, FaultModel
from repro.core.targets import InjectionTarget
from repro.core.triggers import Trigger
from repro.errors import InjectionError
from repro.hw.cpu import CpuCore
from repro.hw.registers import TrapContext
from repro.hypervisor.handlers import ArchHandlers
from repro.rng import seeded_rng


@dataclass(frozen=True)
class InjectionRecord:
    """One injector activation."""

    timestamp: float
    handler: str
    cpu_id: int
    call_index: int
    faults: tuple

    def describe(self) -> str:
        changes = "; ".join(fault.describe() for fault in self.faults)
        return (
            f"t={self.timestamp:.4f}s {self.handler} cpu{self.cpu_id} "
            f"call#{self.call_index}: {changes}"
        )


class FaultInjector:
    """Injects faults into the saved guest context at handler entry."""

    def __init__(self, target: InjectionTarget, trigger: Trigger,
                 fault_model: FaultModel, *, seed: int = 0,
                 max_injections: Optional[int] = None) -> None:
        if max_injections is not None and max_injections <= 0:
            raise InjectionError("max_injections must be positive or None")
        self.target = target
        self.trigger = trigger
        self.fault_model = fault_model
        self.rng = seeded_rng(seed)
        self.max_injections = max_injections
        self.records: List[InjectionRecord] = []
        self.matching_calls = 0
        self.total_calls = 0
        self.armed = False
        self._installed_on: Optional[ArchHandlers] = None

    # -- installation -----------------------------------------------------------------

    def install(self, handlers: ArchHandlers) -> None:
        """Install the entry hook on every targeted handler."""
        if self._installed_on is not None:
            raise InjectionError("injector is already installed")
        for handler_name in self.target.handlers:
            handlers.add_entry_hook(handler_name, self._entry_hook)
        self._installed_on = handlers

    def uninstall(self) -> None:
        """Remove the entry hook."""
        if self._installed_on is None:
            return
        for handler_name in self.target.handlers:
            self._installed_on.remove_entry_hook(handler_name, self._entry_hook)
        self._installed_on = None

    def arm(self) -> None:
        """Enable injections (installation alone does not inject)."""
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    def reset(self) -> None:
        """Clear counters and records between experiments."""
        self.records.clear()
        self.matching_calls = 0
        self.total_calls = 0
        self.trigger.reset()

    # -- the hook itself ----------------------------------------------------------------

    def observe_call(self, handler_name: str, cpu_id: int) -> bool:
        """Advance counters/trigger for one handler call; report a fire.

        This is the *decision* half of the entry hook: counters, target
        matching, the injection budget, and the trigger draw — everything up
        to (and including) ``should_fire``, with the exact operation and RNG
        order of the combined hook, but without touching the trap context.
        A ``True`` return means :meth:`apply_fault` must follow for this
        same handler call.
        """
        self.total_calls += 1
        if not self.armed:
            return False
        if not self.target.matches(handler_name, cpu_id):
            return False
        self.matching_calls += 1
        if self.max_injections is not None and len(self.records) >= self.max_injections:
            return False
        return self.trigger.should_fire(self.matching_calls, self.rng)

    def apply_fault(self, handler_name: str, cpu_id: int,
                    context: TrapContext) -> None:
        """Apply the fault model to ``context`` and record the activation.

        The *action* half of the entry hook; call only after
        :meth:`observe_call` returned ``True`` for the same handler call.
        """
        faults = self.fault_model.apply(context, self.rng)
        self.records.append(
            InjectionRecord(
                timestamp=context.timestamp,
                handler=handler_name,
                cpu_id=cpu_id,
                call_index=self.matching_calls,
                faults=tuple(faults),
            )
        )

    def _entry_hook(self, handler_name: str, cpu: CpuCore, context: TrapContext) -> None:
        if self.observe_call(handler_name, cpu.cpu_id):
            self.apply_fault(handler_name, cpu.cpu_id, context)

    # -- reporting ------------------------------------------------------------------------

    @property
    def injection_count(self) -> int:
        return len(self.records)

    def faults_applied(self) -> List[AppliedFault]:
        return [fault for record in self.records for fault in record.faults]

    def describe(self) -> str:
        return (
            f"inject {self.fault_model.describe()} into {self.target.describe()} "
            f"({self.trigger.describe()})"
        )
