"""Tests for the Banana Pi board model."""

import pytest

from repro.errors import HardwareError
from repro.hw.board import (
    BananaPiBoard,
    BoardConfig,
    DRAM_BASE,
    DRAM_SIZE,
    GIC_BASE,
    GIC_SIZE,
    PIO_BASE,
    PIO_SIZE,
    SRAM_BASE,
    SRAM_SIZE,
    UART0_BASE,
    UART0_IRQ,
    UART0_SIZE,
)
from repro.hw.cpu import CpuState
from repro.hw.memory import MemoryFlags, MemoryRegion
from repro.hw.timer import VIRTUAL_TIMER_PPI


def test_default_board_matches_the_paper_testbed():
    board = BananaPiBoard()
    assert board.num_cpus == 2                      # dual-core Cortex-A7
    assert board.dram.size == 1 << 30               # 1 GB of RAM
    assert board.dram.start == DRAM_BASE


def test_invalid_configurations_are_rejected():
    with pytest.raises(HardwareError):
        BananaPiBoard(BoardConfig(num_cpus=0))
    with pytest.raises(HardwareError):
        BananaPiBoard(BoardConfig(dram_size=-1))
    with pytest.raises(HardwareError):
        BananaPiBoard(BoardConfig(timer_period=0))


def test_memory_map_has_no_overlaps_and_expected_regions():
    board = BananaPiBoard()
    names = {region.name for region in board.memory.regions}
    assert {"dram", "uart0", "gic", "pio", "boot-sram"} <= names
    for region in board.memory.regions:
        others = [other for other in board.memory.regions if other is not region]
        assert not any(region.overlaps(other) for other in others)


@pytest.mark.parametrize("name, start, size, flags", [
    ("boot-sram", SRAM_BASE, SRAM_SIZE, MemoryFlags.RWX),
    ("pio", PIO_BASE, PIO_SIZE, MemoryFlags.RW | MemoryFlags.IO),
    ("uart0", UART0_BASE, UART0_SIZE, MemoryFlags.RW | MemoryFlags.IO),
    ("gic", GIC_BASE, GIC_SIZE, MemoryFlags.RW | MemoryFlags.IO),
    ("dram", DRAM_BASE, DRAM_SIZE, MemoryFlags.RWX),
])
def test_memory_map_follows_the_a20_layout(name, start, size, flags):
    region = BananaPiBoard().memory.find_region_by_name(name)
    assert (region.start, region.size, region.flags) == (start, size, flags)


def test_uart_region_is_an_io_region():
    board = BananaPiBoard()
    region = board.memory.find_region_by_name("uart0")
    assert region.flags & MemoryFlags.IO


def test_power_on_brings_cpu0_online_only():
    board = BananaPiBoard()
    board.power_on()
    assert board.online_cpus() == (0,)
    assert board.cpu(1).state is CpuState.OFFLINE


def test_timers_raise_interrupts_after_power_on():
    board = BananaPiBoard()
    board.power_on()
    board.advance(0.05)
    assert board.gic.has_pending(0)
    assert board.gic.has_pending(1)
    assert VIRTUAL_TIMER_PPI in board.gic.pending_for(0)


def test_uart_irq_is_enabled_in_the_gic():
    board = BananaPiBoard()
    assert board.gic.is_enabled(UART0_IRQ)


def test_cpu_accessor_validates_id():
    board = BananaPiBoard()
    with pytest.raises(HardwareError):
        board.cpu(5)


def test_parked_cpus_listing():
    board = BananaPiBoard()
    board.power_on()
    board.cpu(0).park("test")
    assert board.parked_cpus() == (0,)
    assert board.online_cpus() == ()


def test_reset_returns_board_to_cold_state():
    board = BananaPiBoard()
    board.power_on()
    board.advance(0.1)
    board.uart.write_line("x", "y")
    board.reset()
    assert board.online_cpus() == ()
    assert board.clock.pending_events() == 0
    assert board.uart.output_count() == 0
    assert not board.gic.has_pending(0)


def test_snapshot_restore_brings_back_the_led_and_the_console():
    board = BananaPiBoard()
    board.power_on()
    board.uart.write_line("FreeRTOS", "before")
    state = board.snapshot_state()
    board.led.on()
    board.advance(0.5)
    board.uart.write_line("FreeRTOS", "after")
    board.restore_state(state)
    assert board.led.lit is False
    assert board.uart.lines("FreeRTOS") == ["before"]
    assert board.clock.now == 0.0


def test_restore_drops_a_memory_region_added_after_the_snapshot():
    board = BananaPiBoard()
    state = board.snapshot_state()
    board.memory.add_region(MemoryRegion("late", 0x2000_0000, 0x1000))
    board.restore_state(state)
    assert board.memory.find_region_by_name("late") is None
    assert board.dram.start == DRAM_BASE


def test_describe_mentions_cpus_and_memory():
    board = BananaPiBoard()
    text = board.describe()
    assert "Cortex-A7" in text
    assert "1024 MiB" in text
    assert "dram" in text
