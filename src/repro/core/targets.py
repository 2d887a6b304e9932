"""Injection targets.

A target selects *where* faults are injected: which hypervisor entry point
(``irqchip_handle_irq``, ``arch_handle_trap``, ``arch_handle_hvc``) and,
optionally, a CPU filter — the paper "filters the injection to activate only
when CPU core 1 is calling the function" to separate root-cell from non-root-
cell effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Tuple

from repro.core.registry import TARGETS
from repro.errors import TargetError
from repro.hypervisor.handlers import ALL_HANDLERS, HANDLER_HVC, HANDLER_IRQCHIP, HANDLER_TRAP


@dataclass(frozen=True)
class InjectionTarget:
    """Which handler calls are eligible for injection."""

    handlers: Tuple[str, ...]
    cpu_filter: Optional[FrozenSet[int]] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.handlers:
            raise TargetError("injection target needs at least one handler")
        unknown = [name for name in self.handlers if name not in ALL_HANDLERS]
        if unknown:
            raise TargetError(f"unknown handler(s): {unknown}")
        if self.cpu_filter is not None and not self.cpu_filter:
            raise TargetError("CPU filter must be None or a non-empty set")

    def matches(self, handler_name: str, cpu_id: int) -> bool:
        """Whether a call to ``handler_name`` on ``cpu_id`` is in scope."""
        if handler_name not in self.handlers:
            return False
        if self.cpu_filter is not None and cpu_id not in self.cpu_filter:
            return False
        return True

    def describe(self) -> str:
        if self.description:
            return self.description
        handlers = "+".join(self.handlers)
        if self.cpu_filter is None:
            return handlers
        cpus = ",".join(str(cpu) for cpu in sorted(self.cpu_filter))
        return f"{handlers}@cpu{{{cpus}}}"

    # -- canonical targets used by the paper's experiments ------------------------

    @classmethod
    def trap_handler(cls, cpus: Optional[Iterable[int]] = None) -> "InjectionTarget":
        """``arch_handle_trap()``, optionally filtered to specific CPUs."""
        return cls(
            handlers=(HANDLER_TRAP,),
            cpu_filter=frozenset(cpus) if cpus is not None else None,
        )

    @classmethod
    def hvc_handler(cls, cpus: Optional[Iterable[int]] = None) -> "InjectionTarget":
        """``arch_handle_hvc()``, optionally filtered to specific CPUs."""
        return cls(
            handlers=(HANDLER_HVC,),
            cpu_filter=frozenset(cpus) if cpus is not None else None,
        )

    @classmethod
    def irqchip_handler(cls, cpus: Optional[Iterable[int]] = None) -> "InjectionTarget":
        """``irqchip_handle_irq()``, optionally filtered to specific CPUs."""
        return cls(
            handlers=(HANDLER_IRQCHIP,),
            cpu_filter=frozenset(cpus) if cpus is not None else None,
        )

    @classmethod
    def hvc_and_trap(cls, cpus: Optional[Iterable[int]] = None) -> "InjectionTarget":
        """Both management-relevant handlers, as in the high-intensity tests."""
        return cls(
            handlers=(HANDLER_HVC, HANDLER_TRAP),
            cpu_filter=frozenset(cpus) if cpus is not None else None,
        )

    @classmethod
    def nonroot_cpu_trap(cls, cpu_id: int = 1) -> "InjectionTarget":
        """The paper's Figure-3 target: trap handler on the non-root cell's CPU."""
        return cls(
            handlers=(HANDLER_TRAP,),
            cpu_filter=frozenset({cpu_id}),
            description=f"arch_handle_trap@cpu{cpu_id} (non-root cell)",
        )


# -- registry builders ----------------------------------------------------------------

@TARGETS.register("trap", HANDLER_TRAP)
def build_trap_target(cpus: Optional[Iterable[int]] = None) -> InjectionTarget:
    """``arch_handle_trap()``, optionally filtered to specific CPUs."""
    return InjectionTarget.trap_handler(cpus)


@TARGETS.register("hvc", HANDLER_HVC)
def build_hvc_target(cpus: Optional[Iterable[int]] = None) -> InjectionTarget:
    """``arch_handle_hvc()``, optionally filtered to specific CPUs."""
    return InjectionTarget.hvc_handler(cpus)


@TARGETS.register("irqchip", HANDLER_IRQCHIP)
def build_irqchip_target(cpus: Optional[Iterable[int]] = None) -> InjectionTarget:
    """``irqchip_handle_irq()``, optionally filtered to specific CPUs."""
    return InjectionTarget.irqchip_handler(cpus)


@TARGETS.register("hvc+trap")
def build_hvc_and_trap_target(cpus: Optional[Iterable[int]] = None) -> InjectionTarget:
    """Both management-relevant handlers, as in the high-intensity tests."""
    return InjectionTarget.hvc_and_trap(cpus)


@TARGETS.register("nonroot-trap")
def build_nonroot_trap_target(cpu_id: int = 1) -> InjectionTarget:
    """The Figure-3 target: the trap handler on the non-root cell's CPU."""
    return InjectionTarget.nonroot_cpu_trap(cpu_id)


@TARGETS.register("handlers")
def build_handlers_target(handlers: Iterable[str],
                          cpus: Optional[Iterable[int]] = None) -> InjectionTarget:
    """Arbitrary handler list + optional CPU filter (fully generic target)."""
    return InjectionTarget(
        handlers=tuple(handlers),
        cpu_filter=frozenset(cpus) if cpus is not None else None,
    )
