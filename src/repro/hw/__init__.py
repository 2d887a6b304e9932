"""Simulated hardware substrate.

This subpackage models the testbed used by the paper — a Banana Pi M1 board
with a dual-core ARM Cortex-A7, 1 GB of DRAM, a UART serial console, a GIC
interrupt controller, per-CPU generic timers, and a GPIO-driven LED — at the
behavioral level needed by the fault-injection experiments: architectural
registers, exception entry and exit, interrupt routing, and observable
serial output. The physical memory map holds the board's region layout only;
no simulated memory is read or written, since cell isolation is decided by
each cell's stage-2 map.
"""

from repro.hw.board import BananaPiBoard, BoardConfig
from repro.hw.clock import SimulationClock
from repro.hw.cpu import CpuCore, CpuState
from repro.hw.gic import Gic, GicCpuInterface
from repro.hw.gpio import GpioController, Led
from repro.hw.memory import AccessType, MemoryFlags, MemoryRegion, PhysicalMemory
from repro.hw.registers import (
    Register,
    RegisterClass,
    RegisterFile,
    TrapContext,
    flip_bit,
)
from repro.hw.timer import GenericTimer
from repro.hw.uart import Uart, UartRecord

__all__ = [
    "AccessType",
    "BananaPiBoard",
    "BoardConfig",
    "CpuCore",
    "CpuState",
    "GenericTimer",
    "Gic",
    "GicCpuInterface",
    "GpioController",
    "Led",
    "MemoryFlags",
    "MemoryRegion",
    "PhysicalMemory",
    "Register",
    "RegisterClass",
    "RegisterFile",
    "SimulationClock",
    "TrapContext",
    "Uart",
    "UartRecord",
    "flip_bit",
]
