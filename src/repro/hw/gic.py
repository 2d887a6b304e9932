"""Generic Interrupt Controller (GIC-400 style) model.

The board routes all interrupts — per-CPU timer ticks, UART, inter-processor
software-generated interrupts (SGIs), and the ivshmem doorbell — through the
GIC. The hypervisor's ``irqchip_handle_irq()`` entry point acknowledges
interrupts from the per-CPU interface and forwards them to the owning cell,
which is one of the three injection points profiled by the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import InterruptError

#: Interrupt-id layout follows the GIC architecture.
SGI_BASE = 0      # software generated interrupts 0-15
PPI_BASE = 16     # private peripheral interrupts 16-31
SPI_BASE = 32     # shared peripheral interrupts 32+
MAX_IRQ = 1020
SPURIOUS_IRQ = 1023


@dataclass(frozen=True)
class PendingInterrupt:
    """One pending interrupt instance."""

    irq: int
    cpu_id: int
    source_cpu: Optional[int] = None  # set for SGIs


class GicCpuInterface:
    """Per-CPU interface: acknowledge and complete interrupts."""

    def __init__(self, cpu_id: int, distributor: "Gic") -> None:
        self.cpu_id = cpu_id
        self._gic = distributor
        self.priority_mask = 0xFF
        self.enabled = True
        self.active: Optional[int] = None

    def acknowledge(self) -> int:
        """Pop the highest-priority pending interrupt, or the spurious id."""
        if not self.enabled:
            return SPURIOUS_IRQ
        irq = self._gic._pop_pending(self.cpu_id, self.priority_mask)
        if irq is None:
            return SPURIOUS_IRQ
        self.active = irq
        return irq

    def end_of_interrupt(self, irq: int) -> None:
        """Signal completion of a previously acknowledged interrupt."""
        if self.active != irq:
            raise InterruptError(
                f"CPU {self.cpu_id}: EOI for IRQ {irq} but active is {self.active}"
            )
        self.active = None


class Gic:
    """GIC distributor with per-CPU interfaces."""

    def __init__(self, num_cpus: int) -> None:
        if num_cpus <= 0:
            raise ValueError("num_cpus must be positive")
        self.num_cpus = num_cpus
        self.enabled = True
        self._enabled_irqs: Set[int] = set()
        self._priorities: Dict[int, int] = {}
        self._targets: Dict[int, Set[int]] = {}
        self._pending: Dict[int, List[PendingInterrupt]] = {
            cpu: [] for cpu in range(num_cpus)
        }
        self.cpu_interfaces = [GicCpuInterface(cpu, self) for cpu in range(num_cpus)]
        #: Flyweight cache of immutable (irq, cpu) pending instances.
        self._interned_pending: Dict[Tuple[int, int], PendingInterrupt] = {}

    # -- configuration -----------------------------------------------------------

    def enable_irq(self, irq: int, *, priority: int = 0xA0,
                   targets: Optional[Set[int]] = None) -> None:
        """Enable an interrupt line, set its priority and target CPUs."""
        self._validate_irq(irq)
        self._enabled_irqs.add(irq)
        self._priorities[irq] = priority & 0xFF
        if irq < PPI_BASE + 16 and irq >= SGI_BASE and irq < SPI_BASE:
            # SGIs/PPIs are banked per CPU; targets are implicit.
            self._targets[irq] = set(range(self.num_cpus))
        else:
            self._targets[irq] = set(targets) if targets else {0}

    def disable_irq(self, irq: int) -> None:
        self._validate_irq(irq)
        self._enabled_irqs.discard(irq)

    def is_enabled(self, irq: int) -> bool:
        return irq in self._enabled_irqs

    def retarget_irq(self, irq: int, targets: Set[int]) -> None:
        """Change the CPUs an SPI is delivered to (used on cell create/destroy)."""
        self._validate_irq(irq)
        bad = {cpu for cpu in targets if not 0 <= cpu < self.num_cpus}
        if bad:
            raise InterruptError(f"invalid target CPUs {sorted(bad)} for IRQ {irq}")
        self._targets[irq] = set(targets)

    # -- raising interrupts ---------------------------------------------------------

    def raise_irq(self, irq: int, *, cpu_id: Optional[int] = None) -> bool:
        """Mark an interrupt pending. Returns whether it was accepted.

        Without ``cpu_id`` the interrupt goes to its lowest-numbered target
        CPU. Hot path (every timer tick goes through here): the per-``(irq,
        cpu)`` :class:`PendingInterrupt` instances are immutable, so they are
        interned in a flyweight cache instead of re-constructed per tick.
        """
        if not 0 <= irq < MAX_IRQ:
            raise InterruptError(f"IRQ id {irq} out of range [0, {MAX_IRQ})")
        if not self.enabled or irq not in self._enabled_irqs:
            return False
        if cpu_id is None:
            cpu_id = min(self._targets.get(irq, ()), default=0)
        if not 0 <= cpu_id < self.num_cpus:
            raise InterruptError(f"IRQ {irq} targets invalid CPU {cpu_id}")
        pending = self._pending[cpu_id]
        for entry in pending:
            if entry.irq == irq:
                return True
        interned = self._interned_pending
        key = (irq, cpu_id)
        instance = interned.get(key)
        if instance is None:
            instance = interned[key] = PendingInterrupt(irq=irq, cpu_id=cpu_id)
        pending.append(instance)
        return True

    def send_sgi(self, irq: int, source_cpu: int, target_cpu: int) -> None:
        """Send a software-generated interrupt between cores."""
        if not SGI_BASE <= irq < PPI_BASE:
            raise InterruptError(f"SGI id must be in [0, 16), got {irq}")
        if not 0 <= target_cpu < self.num_cpus:
            raise InterruptError(f"invalid SGI target CPU {target_cpu}")
        self._pending[target_cpu].append(
            PendingInterrupt(irq=irq, cpu_id=target_cpu, source_cpu=source_cpu)
        )

    def pending_for(self, cpu_id: int) -> Tuple[int, ...]:
        """Interrupt ids pending for ``cpu_id`` (highest priority first)."""
        pending = self._pending[cpu_id]
        return tuple(
            p.irq for p in sorted(pending, key=lambda p: self._priorities.get(p.irq, 0xFF))
        )

    def has_pending(self, cpu_id: int) -> bool:
        return bool(self._pending[cpu_id])

    def pending_view(self) -> Dict[int, List[PendingInterrupt]]:
        """The live per-CPU pending queues, keyed by CPU id — read-only.

        This is the distributor's own mutable state, exposed for hot-path
        callers (the SUT's step loop polls it every tick) that must not pay
        for a copy; mutate it through :meth:`raise_irq`/:meth:`clear_pending`
        only. The mapping object is replaced wholesale by
        :meth:`restore_state`, so holders must re-fetch it after a restore
        rather than cache it across one.
        """
        return self._pending

    def clear_pending(self, cpu_id: Optional[int] = None) -> None:
        """Drop pending interrupts (all CPUs if ``cpu_id`` is None)."""
        cpus = range(self.num_cpus) if cpu_id is None else [cpu_id]
        for cpu in cpus:
            self._pending[cpu].clear()

    # -- internal -----------------------------------------------------------------

    def _pop_pending(self, cpu_id: int, priority_mask: int) -> Optional[int]:
        pending = self._pending[cpu_id]
        if not pending:
            return None
        priorities = self._priorities
        if len(pending) == 1:
            # The common case: one timer tick pending on this CPU.
            entry = pending[0]
            if priorities.get(entry.irq, 0xFF) >= priority_mask:
                return None
            pending.clear()
            return entry.irq
        pending.sort(key=lambda p: priorities.get(p.irq, 0xFF))
        for index, entry in enumerate(pending):
            if priorities.get(entry.irq, 0xFF) < priority_mask:
                pending.pop(index)
                return entry.irq
        return None

    @staticmethod
    def _validate_irq(irq: int) -> None:
        if not 0 <= irq < MAX_IRQ:
            raise InterruptError(f"IRQ id {irq} out of range [0, {MAX_IRQ})")

    # -- snapshot / restore --------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Capture distributor configuration, pending queues, and interfaces."""
        return {
            "enabled": self.enabled,
            "enabled_irqs": set(self._enabled_irqs),
            "priorities": dict(self._priorities),
            "targets": {irq: set(cpus) for irq, cpus in self._targets.items()},
            "pending": {cpu: list(queue) for cpu, queue in self._pending.items()},
            "interfaces": [
                (i.priority_mask, i.enabled, i.active)
                for i in self.cpu_interfaces
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Restore a prior :meth:`snapshot_state` in place."""
        self.enabled = state["enabled"]
        self._enabled_irqs = set(state["enabled_irqs"])
        self._priorities = dict(state["priorities"])
        self._targets = {irq: set(cpus) for irq, cpus in state["targets"].items()}
        self._pending = {cpu: list(queue) for cpu, queue in state["pending"].items()}
        for interface, snap in zip(self.cpu_interfaces, state["interfaces"]):
            (interface.priority_mask, interface.enabled,
             interface.active) = snap
