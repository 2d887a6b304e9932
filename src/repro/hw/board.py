"""Banana Pi M1 board model.

The paper's testbed is a Banana Pi (Allwinner A20 SoC: dual-core Cortex-A7,
1 GB DRAM, UART console, GIC-400, per-CPU timers, GPIO LED). This module
assembles the hardware substrate: CPU cores, the physical memory map, the
interrupt controller, the serial console, timers, and the onboard LED.

The physical addresses follow the real A20 memory map (DRAM at 0x4000_0000,
UART0 at 0x01C2_8000, GIC at 0x01C8_0000, PIO at 0x01C2_0800) so cell
configurations read like genuine Jailhouse configs for this board.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import HardwareError
from repro.hw.clock import SimulationClock
from repro.hw.cpu import CpuCore
from repro.hw.gic import Gic
from repro.hw.gpio import GpioController, Led
from repro.hw.memory import MemoryFlags, MemoryRegion, PhysicalMemory
from repro.hw.timer import GenericTimer, VIRTUAL_TIMER_PPI
from repro.hw.uart import Uart

# -- A20 / Banana Pi physical memory layout -----------------------------------

DRAM_BASE = 0x4000_0000
DRAM_SIZE = 1 << 30          # 1 GB
SRAM_BASE = 0x0000_0000
SRAM_SIZE = 0x0001_0000      # 64 KB boot SRAM
UART0_BASE = 0x01C2_8000
UART0_SIZE = 0x400
GIC_BASE = 0x01C8_0000
GIC_SIZE = 0x8000
PIO_BASE = 0x01C2_0800
PIO_SIZE = 0x400

#: SPI id used by UART0 on the A20.
UART0_IRQ = 33
#: GPIO pin wired to the onboard green LED on the Banana Pi.
LED_PIN = 24


@dataclass(frozen=True)
class BoardConfig:
    """Configuration knobs of the simulated board."""

    num_cpus: int = 2
    dram_base: int = DRAM_BASE
    dram_size: int = DRAM_SIZE
    timer_period: float = 0.010   # 100 Hz tick, as configured by the guests
    name: str = "banana-pi-m1"

    def validate(self) -> None:
        if self.num_cpus <= 0:
            raise HardwareError("board needs at least one CPU")
        if self.dram_size <= 0:
            raise HardwareError("DRAM size must be positive")
        if self.timer_period <= 0:
            raise HardwareError("timer period must be positive")


class BananaPiBoard:
    """The full simulated board."""

    def __init__(self, config: Optional[BoardConfig] = None) -> None:
        self.config = config or BoardConfig()
        self.config.validate()
        self.clock = SimulationClock()
        self.cpus: List[CpuCore] = [
            CpuCore(cpu_id) for cpu_id in range(self.config.num_cpus)
        ]
        self.memory = PhysicalMemory(self._build_memory_map())
        self.gic = Gic(self.config.num_cpus)
        self.uart = Uart("uart0", clock=lambda: self.clock.now)
        self.gpio = GpioController(num_pins=32)
        self.led = Led(self.gpio, LED_PIN, name="green-led")
        self.timers: List[GenericTimer] = [
            GenericTimer(cpu_id, self.clock, self.gic)
            for cpu_id in range(self.config.num_cpus)
        ]
        self._configure_interrupts()

    def _build_memory_map(self) -> List[MemoryRegion]:
        return [
            MemoryRegion("boot-sram", SRAM_BASE, SRAM_SIZE, MemoryFlags.RWX),
            MemoryRegion("pio", PIO_BASE, PIO_SIZE, MemoryFlags.RW | MemoryFlags.IO),
            MemoryRegion("uart0", UART0_BASE, UART0_SIZE,
                         MemoryFlags.RW | MemoryFlags.IO),
            MemoryRegion("gic", GIC_BASE, GIC_SIZE,
                         MemoryFlags.RW | MemoryFlags.IO),
            MemoryRegion("dram", self.config.dram_base, self.config.dram_size,
                         MemoryFlags.RWX),
        ]

    def _configure_interrupts(self) -> None:
        self.gic.enable_irq(VIRTUAL_TIMER_PPI, priority=0x20)
        self.gic.enable_irq(UART0_IRQ, priority=0xA0, targets={0})

    # -- lifecycle -------------------------------------------------------------

    def power_on(self) -> None:
        """Cold boot: CPU 0 comes online at the DRAM base, others stay offline."""
        self.cpus[0].power_on(entry_point=self.config.dram_base)
        for timer in self.timers:
            timer.start(self.config.timer_period)

    def reset(self) -> None:
        """Full board reset: CPUs offline, timers stopped, captures cleared."""
        for cpu in self.cpus:
            cpu.reset()
        for timer in self.timers:
            timer.stop()
        self.clock.cancel_all()
        self.gic.clear_pending()
        self.uart.clear()

    # -- snapshot / restore --------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Capture the whole board: clock phase, CPUs, memory map, devices."""
        return {
            "now": self.clock.now,
            "cpus": [cpu.snapshot_state() for cpu in self.cpus],
            "memory": self.memory.snapshot_state(),
            "gic": self.gic.snapshot_state(),
            "uart": self.uart.snapshot_state(),
            "gpio": self.gpio.snapshot_state(),
            "timers": [timer.snapshot_state() for timer in self.timers],
        }

    def restore_state(self, state: dict) -> None:
        """Restore a prior :meth:`snapshot_state` in place.

        The clock is reset first (cancelling every scheduled event), then the
        timers re-arm themselves from their snapshotted phase — the per-CPU
        generic timers are the only components that schedule clock events.
        """
        self.clock.reset_to(state["now"])
        for cpu, cpu_state in zip(self.cpus, state["cpus"]):
            cpu.restore_state(cpu_state)
        self.memory.restore_state(state["memory"])
        self.gic.restore_state(state["gic"])
        self.uart.restore_state(state["uart"])
        self.gpio.restore_state(state["gpio"])
        for timer, timer_state in zip(self.timers, state["timers"]):
            timer.restore_state(timer_state)

    # -- helpers -----------------------------------------------------------------

    def cpu(self, cpu_id: int) -> CpuCore:
        """Return the core with id ``cpu_id``."""
        if not 0 <= cpu_id < len(self.cpus):
            raise HardwareError(f"no CPU with id {cpu_id}")
        return self.cpus[cpu_id]

    @property
    def num_cpus(self) -> int:
        return len(self.cpus)

    @property
    def dram(self) -> MemoryRegion:
        region = self.memory.find_region_by_name("dram")
        assert region is not None
        return region

    def online_cpus(self) -> Tuple[int, ...]:
        return tuple(cpu.cpu_id for cpu in self.cpus if cpu.is_executing)

    def parked_cpus(self) -> Tuple[int, ...]:
        return tuple(cpu.cpu_id for cpu in self.cpus if cpu.is_parked)

    def advance(self, duration: float) -> int:
        """Advance the board clock (timers fire, interrupts become pending)."""
        return self.clock.advance(duration)

    def describe(self) -> str:
        """Render a human-readable board summary."""
        lines = [
            f"Board: {self.config.name}",
            f"CPUs : {self.num_cpus}x Cortex-A7 "
            f"(online: {list(self.online_cpus())}, parked: {list(self.parked_cpus())})",
            f"DRAM : {self.config.dram_size // (1 << 20)} MiB @ 0x{self.config.dram_base:08x}",
            "Memory map:",
        ]
        lines.extend("  " + line for line in self.memory.describe_map().splitlines())
        return "\n".join(lines)
