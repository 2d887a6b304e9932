"""ARMv7 virtualization-extension trap encoding.

When a guest traps into HYP mode, the Hyp Syndrome Register (HSR) describes
why: its top six bits hold the *exception class* (EC). The hypervisor's
``arch_handle_trap()`` dispatches on the EC; exception classes it does not
know how to handle are reported as *unhandled traps*. The paper observes the
error code ``0x24`` — a data abort from a lower exception level — as the
signature of the "CPU park" outcome.
"""

from __future__ import annotations

import enum
from typing import Optional

#: Names of the hookable handlers, as used by injection targets. They live
#: here, not in :mod:`repro.hypervisor.handlers`, so that naming a handler
#: (the CLI's ``--handler`` choices) loads no part of the simulator.
HANDLER_IRQCHIP = "irqchip_handle_irq"
HANDLER_TRAP = "arch_handle_trap"
HANDLER_HVC = "arch_handle_hvc"
ALL_HANDLERS = (HANDLER_IRQCHIP, HANDLER_TRAP, HANDLER_HVC)

HSR_EC_SHIFT = 26
HSR_EC_MASK = 0x3F
HSR_ISS_MASK = (1 << 25) - 1


class ExceptionClass(enum.IntEnum):
    """HSR exception classes relevant to the model (ARMv7-A encoding)."""

    UNKNOWN = 0x00
    WFI_WFE = 0x01
    CP15_TRAP = 0x03
    CP14_TRAP = 0x05
    HVC32 = 0x12
    SMC32 = 0x13
    PREFETCH_ABORT_LOWER = 0x20
    PREFETCH_ABORT_HYP = 0x21
    DATA_ABORT_LOWER = 0x24
    DATA_ABORT_HYP = 0x25


#: Error code reported by the paper for the CPU-park outcome.
UNHANDLED_TRAP_ERROR = int(ExceptionClass.DATA_ABORT_LOWER)  # 0x24

#: Exception classes the Jailhouse model knows how to handle for guest traps.
HANDLED_CLASSES = frozenset(
    {
        ExceptionClass.WFI_WFE,
        ExceptionClass.CP15_TRAP,
        ExceptionClass.HVC32,
        ExceptionClass.SMC32,
        ExceptionClass.PREFETCH_ABORT_LOWER,
        ExceptionClass.DATA_ABORT_LOWER,
    }
)


class TrapCode(enum.Enum):
    """Why a guest exited to the hypervisor (guest-event vocabulary)."""

    HYPERCALL = "hypercall"
    WFI = "wfi"
    CP15_ACCESS = "cp15"
    SMC = "smc"
    DATA_ABORT = "data_abort"
    PREFETCH_ABORT = "prefetch_abort"
    IRQ = "irq"
    UNKNOWN = "unknown"


_TRAP_TO_EC = {
    TrapCode.HYPERCALL: ExceptionClass.HVC32,
    TrapCode.WFI: ExceptionClass.WFI_WFE,
    TrapCode.CP15_ACCESS: ExceptionClass.CP15_TRAP,
    TrapCode.SMC: ExceptionClass.SMC32,
    TrapCode.DATA_ABORT: ExceptionClass.DATA_ABORT_LOWER,
    TrapCode.PREFETCH_ABORT: ExceptionClass.PREFETCH_ABORT_LOWER,
    TrapCode.UNKNOWN: ExceptionClass.UNKNOWN,
}


#: Precomputed HSR base values (EC field already shifted) and the reverse EC
#: lookup: both run once per trap dispatch, where the enum-constructor path
#: is measurably slow.
_HSR_FOR_TRAP = {
    trap: int(ec) << HSR_EC_SHIFT for trap, ec in _TRAP_TO_EC.items()
}
_EC_BY_RAW = {int(ec): ec for ec in ExceptionClass}


def encode_hsr(trap: TrapCode, iss: int = 0) -> int:
    """Build an HSR value for a trap of kind ``trap`` with syndrome ``iss``."""
    base = _HSR_FOR_TRAP.get(trap)
    if base is None:
        base = int(ExceptionClass.UNKNOWN) << HSR_EC_SHIFT
    return base | (iss & HSR_ISS_MASK)


def exception_class(hsr: int) -> int:
    """Extract the raw EC field from an HSR value."""
    return (hsr >> HSR_EC_SHIFT) & HSR_EC_MASK


def decode_exception_class(hsr: int) -> Optional[ExceptionClass]:
    """Return the :class:`ExceptionClass`, or ``None`` for unknown encodings."""
    return _EC_BY_RAW.get((hsr >> HSR_EC_SHIFT) & HSR_EC_MASK)


def iss(hsr: int) -> int:
    """Extract the instruction-specific syndrome field."""
    return hsr & HSR_ISS_MASK


def is_handled(hsr: int) -> bool:
    """Whether ``arch_handle_trap`` has a handler for this exception class."""
    decoded = decode_exception_class(hsr)
    return decoded is not None and decoded in HANDLED_CLASSES


def describe_trap(hsr: int) -> str:
    """Human-readable description of an HSR value (for register dumps)."""
    decoded = decode_exception_class(hsr)
    ec = exception_class(hsr)
    name = decoded.name if decoded is not None else "INVALID"
    return f"EC=0x{ec:02x} ({name}) ISS=0x{iss(hsr):07x}"
