"""Jailhouse-like partitioning hypervisor model.

This subpackage models the static partitioning hypervisor assessed by the
paper: a root cell plus statically configured non-root cells, each owning a
disjoint set of CPUs, memory regions, and interrupt lines. The three
virtualization entry points profiled by the paper —
``arch_handle_hvc()``, ``arch_handle_trap()``, and ``irqchip_handle_irq()`` —
are exposed as hookable handler methods so the fault-injection framework can
corrupt the saved guest context exactly where the paper's patch does.
"""

# Names resolve on first access, as in :mod:`repro` itself: the record
# readers import :mod:`repro.hypervisor.traps` for the trap vocabulary,
# which must not load the hypervisor model and the hardware below it.
_EXPORTS = {
    "ArchHandlers": "repro.hypervisor.handlers",
    "Cell": "repro.hypervisor.cell",
    "CellConfig": "repro.hypervisor.config",
    "CellMemoryMap": "repro.hypervisor.paging",
    "CellState": "repro.hypervisor.cell",
    "ConsoleConfig": "repro.hypervisor.config",
    "ExceptionClass": "repro.hypervisor.traps",
    "Hypercall": "repro.hypervisor.hypercalls",
    "HypercallResult": "repro.hypervisor.hypercalls",
    "Hypervisor": "repro.hypervisor.core",
    "HypervisorEvent": "repro.hypervisor.core",
    "HypervisorState": "repro.hypervisor.core",
    "IvshmemChannel": "repro.hypervisor.ivshmem",
    "JailhouseCli": "repro.hypervisor.cli",
    "MemoryAssignment": "repro.hypervisor.config",
    "ReturnCode": "repro.hypervisor.hypercalls",
    "Stage2Mapping": "repro.hypervisor.paging",
    "SystemConfig": "repro.hypervisor.config",
    "TrapCode": "repro.hypervisor.traps",
    "TrapResult": "repro.hypervisor.handlers",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
