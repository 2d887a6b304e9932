"""Fault models.

The paper uses "the classical bit-flip fault model" to emulate transient
hardware faults: the *medium* intensity flips one random bit of one random
architectural register per activation, while the *high* intensity flips bits
in multiple registers at once. Both operate on the trap context saved at the
entry of the targeted hypervisor handler.

Additional models (register-class-restricted flips, multi-bit bursts within a
register, stuck-at faults) support the ablation benchmarks.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.registry import FAULT_MODELS
from repro.errors import InjectionError
from repro.hw.registers import (
    ARCHITECTURAL_REGISTERS,
    Register,
    RegisterClass,
    TrapContext,
    WORD_BITS,
    register_class,
    registers_in_class,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np


@dataclass(frozen=True)
class AppliedFault:
    """One register corruption actually performed."""

    register: Register
    bit: int
    value_before: int
    value_after: int

    @property
    def register_class(self) -> RegisterClass:
        return register_class(self.register)

    def describe(self) -> str:
        return (
            f"{self.register.value} bit {self.bit}: "
            f"0x{self.value_before:08x} -> 0x{self.value_after:08x}"
        )


class FaultModel(abc.ABC):
    """Decides which corruption to apply to a trap context."""

    name: str = "fault-model"

    @abc.abstractmethod
    def apply(self, context: TrapContext, rng: np.random.Generator) -> List[AppliedFault]:
        """Corrupt ``context`` in place and return the applied faults."""

    def describe(self) -> str:
        return self.name


def _flip_register_bit(context: TrapContext, register: Register, bit: int) -> AppliedFault:
    before = context.read(register)
    after = context.flip(register, bit)
    return AppliedFault(register=register, bit=bit, value_before=before,
                        value_after=after)


class SingleBitFlip(FaultModel):
    """Flip one random bit of one random architectural register.

    This is the paper's medium-intensity fault model.
    """

    name = "single-bit-flip"

    def __init__(self, registers: Optional[Sequence[Register]] = None) -> None:
        self.registers: Tuple[Register, ...] = (
            tuple(registers) if registers is not None else ARCHITECTURAL_REGISTERS
        )
        if not self.registers:
            raise InjectionError("fault model needs at least one target register")

    def apply(self, context: TrapContext, rng: np.random.Generator) -> List[AppliedFault]:
        register = self.registers[int(rng.integers(0, len(self.registers)))]
        bit = int(rng.integers(0, WORD_BITS))
        return [_flip_register_bit(context, register, bit)]


class MultiRegisterBitFlip(FaultModel):
    """Flip one random bit in each of ``count`` distinct registers.

    This is the paper's high-intensity fault model ("a bit flip of multiple
    registers at the time").
    """

    name = "multi-register-bit-flip"

    def __init__(self, count: int = 4,
                 registers: Optional[Sequence[Register]] = None) -> None:
        if count <= 0:
            raise InjectionError("multi-register flip needs a positive register count")
        self.registers: Tuple[Register, ...] = (
            tuple(registers) if registers is not None else ARCHITECTURAL_REGISTERS
        )
        if not self.registers:
            raise InjectionError("fault model needs at least one target register")
        if count > len(self.registers):
            raise InjectionError(
                f"cannot corrupt {count} distinct registers out of {len(self.registers)}"
            )
        self.count = count

    def apply(self, context: TrapContext, rng: np.random.Generator) -> List[AppliedFault]:
        indices = rng.choice(len(self.registers), size=self.count, replace=False)
        faults = []
        for index in indices:
            register = self.registers[int(index)]
            bit = int(rng.integers(0, WORD_BITS))
            faults.append(_flip_register_bit(context, register, bit))
        return faults


class RegisterClassBitFlip(FaultModel):
    """Flip one random bit within a specific register class (ablation A3)."""

    name = "register-class-bit-flip"

    def __init__(self, target_class: RegisterClass) -> None:
        registers = tuple(
            reg for reg in registers_in_class(target_class)
            if reg in ARCHITECTURAL_REGISTERS or target_class is RegisterClass.SYNDROME
        )
        if not registers:
            raise InjectionError(f"no architectural registers in class {target_class}")
        self.target_class = target_class
        self.registers = registers
        self.name = f"register-class-bit-flip[{target_class.value}]"

    def apply(self, context: TrapContext, rng: np.random.Generator) -> List[AppliedFault]:
        register = self.registers[int(rng.integers(0, len(self.registers)))]
        bit = int(rng.integers(0, WORD_BITS))
        return [_flip_register_bit(context, register, bit)]


class MultiBitBurst(FaultModel):
    """Flip several adjacent bits of one register (burst fault extension)."""

    name = "multi-bit-burst"

    def __init__(self, burst_length: int = 2,
                 registers: Optional[Sequence[Register]] = None) -> None:
        if not 1 <= burst_length <= WORD_BITS:
            raise InjectionError(
                f"burst length must be in [1, {WORD_BITS}], got {burst_length}"
            )
        self.burst_length = burst_length
        self.registers: Tuple[Register, ...] = (
            tuple(registers) if registers is not None else ARCHITECTURAL_REGISTERS
        )
        if not self.registers:
            raise InjectionError("fault model needs at least one target register")

    def apply(self, context: TrapContext, rng: np.random.Generator) -> List[AppliedFault]:
        register = self.registers[int(rng.integers(0, len(self.registers)))]
        start = int(rng.integers(0, WORD_BITS - self.burst_length + 1))
        faults = []
        for bit in range(start, start + self.burst_length):
            faults.append(_flip_register_bit(context, register, bit))
        return faults


class StuckAtFault(FaultModel):
    """Force one register to all-zeros or all-ones (stuck-at extension)."""

    def __init__(self, stuck_value: int,
                 registers: Optional[Sequence[Register]] = None) -> None:
        if stuck_value not in (0, 1):
            raise InjectionError("stuck value must be 0 or 1")
        self.stuck_value = stuck_value
        self.registers: Tuple[Register, ...] = (
            tuple(registers) if registers is not None else ARCHITECTURAL_REGISTERS
        )
        if not self.registers:
            raise InjectionError("fault model needs at least one target register")
        self.name = f"stuck-at-{stuck_value}"

    def apply(self, context: TrapContext, rng: np.random.Generator) -> List[AppliedFault]:
        register = self.registers[int(rng.integers(0, len(self.registers)))]
        before = context.read(register)
        after = 0x0000_0000 if self.stuck_value == 0 else 0xFFFF_FFFF
        context.write(register, after)
        # Report the most significant differing bit for record purposes.
        diff = before ^ after
        bit = diff.bit_length() - 1 if diff else 0
        return [AppliedFault(register=register, bit=bit, value_before=before,
                             value_after=after)]


# -- registry builders ----------------------------------------------------------------
#
# Config files select fault models by key; these builders coerce the
# config-friendly parameter spellings (register names and class names as
# strings) into the enum types the constructors take.

def _coerce_registers(registers: Optional[Sequence["str | Register"]]
                      ) -> Optional[Tuple[Register, ...]]:
    if registers is None:
        return None
    return tuple(Register(entry) for entry in registers)


@FAULT_MODELS.register("single-bit-flip")
def build_single_bit_flip(registers: Optional[Sequence[str]] = None) -> SingleBitFlip:
    """Flip one random bit of one random register (paper's medium intensity)."""
    return SingleBitFlip(registers=_coerce_registers(registers))


@FAULT_MODELS.register("multi-register-bit-flip")
def build_multi_register_bit_flip(
        count: int = 4,
        registers: Optional[Sequence[str]] = None) -> MultiRegisterBitFlip:
    """Flip one bit in each of ``count`` registers (paper's high intensity)."""
    return MultiRegisterBitFlip(count=count,
                                registers=_coerce_registers(registers))


@FAULT_MODELS.register("register-class-bit-flip")
def build_register_class_bit_flip(
        target_class: "str | RegisterClass") -> RegisterClassBitFlip:
    """Flip one bit within one register class (``sp``, ``pc``, ``gpr``, ...)."""
    if not isinstance(target_class, RegisterClass):
        try:
            target_class = RegisterClass(target_class)
        except ValueError:
            choices = ", ".join(entry.value for entry in RegisterClass)
            raise InjectionError(
                f"unknown register class {target_class!r}; choices: {choices}"
            ) from None
    return RegisterClassBitFlip(target_class)


@FAULT_MODELS.register("multi-bit-burst")
def build_multi_bit_burst(burst_length: int = 2,
                          registers: Optional[Sequence[str]] = None) -> MultiBitBurst:
    """Flip ``burst_length`` adjacent bits of one register."""
    return MultiBitBurst(burst_length=burst_length,
                         registers=_coerce_registers(registers))


@FAULT_MODELS.register("stuck-at")
def build_stuck_at(stuck_value: int = 0,
                   registers: Optional[Sequence[str]] = None) -> StuckAtFault:
    """Force one register to all-zeros (``stuck_value=0``) or all-ones (``1``)."""
    return StuckAtFault(stuck_value, registers=_coerce_registers(registers))
