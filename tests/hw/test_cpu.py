"""Tests for the CPU core model."""

import pytest

from repro.errors import CpuStateError
from repro.hw.cpu import CpuCore, CpuState
from repro.hw.registers import Register, TrapContext


def test_new_cpu_is_offline():
    cpu = CpuCore(0)
    assert cpu.state is CpuState.OFFLINE
    assert not cpu.is_executing


def test_power_on_sets_entry_point_and_cell():
    cpu = CpuCore(1)
    cpu.power_on(entry_point=0x4000_0000, cell_id=2)
    assert cpu.state is CpuState.ONLINE
    assert cpu.registers.read(Register.PC) == 0x4000_0000
    assert cpu.assigned_cell == 2


def test_double_power_on_is_rejected():
    cpu = CpuCore(0)
    cpu.power_on()
    with pytest.raises(CpuStateError):
        cpu.power_on()


def test_power_off_clears_assignment():
    cpu = CpuCore(0)
    cpu.power_on(cell_id=1)
    cpu.power_off()
    assert cpu.state is CpuState.OFFLINE
    assert cpu.assigned_cell is None


def test_park_records_reason_and_error_code():
    cpu = CpuCore(1)
    cpu.power_on()
    cpu.park("unhandled trap", timestamp=4.2, error_code=0x24)
    assert cpu.is_parked
    assert not cpu.is_executing
    record = cpu.park_history[-1]
    assert record.reason == "unhandled trap"
    assert record.error_code == 0x24
    assert record.timestamp == pytest.approx(4.2)


def test_fail_marks_cpu_failed():
    cpu = CpuCore(0)
    cpu.power_on()
    cpu.fail("bring-up derailed")
    assert cpu.state is CpuState.FAILED


def test_reset_returns_to_offline_and_clears_registers():
    cpu = CpuCore(0)
    cpu.power_on(entry_point=0x1000, cell_id=3)
    cpu.park("x")
    cpu.reset()
    assert cpu.state is CpuState.OFFLINE
    assert cpu.registers.read(Register.PC) == 0
    assert cpu.assigned_cell is None


def test_enter_trap_snapshots_registers():
    cpu = CpuCore(0)
    cpu.power_on(entry_point=0x2000)
    cpu.registers.write(Register.R0, 0xAA)
    context = cpu.enter_trap("hvc", hsr=0x1234, timestamp=1.0)
    assert context.cpu_id == 0
    assert context.read(Register.R0) == 0xAA
    assert context.read(Register.PC) == 0x2000
    assert context.hsr == 0x1234
    # The context owns a copy: a handler's write stays in it until exit.
    context.write(Register.R0, 0xBB)
    assert cpu.registers.read(Register.R0) == 0xAA


def test_enter_trap_requires_online_cpu():
    cpu = CpuCore(0)
    with pytest.raises(CpuStateError):
        cpu.enter_trap("hvc", 0)
    cpu.power_on()
    cpu.park("dead")
    with pytest.raises(CpuStateError):
        cpu.enter_trap("hvc", 0)


def test_exit_trap_restores_possibly_modified_context():
    cpu = CpuCore(0)
    cpu.power_on(entry_point=0x2000)
    context = cpu.enter_trap("hvc", 0)
    context.write(Register.R0, 0xFFFF_FFEA)   # handler wrote a return code
    cpu.exit_trap(context)
    assert cpu.registers.read(Register.R0) == 0xFFFF_FFEA


def test_exit_trap_is_a_noop_when_cpu_was_parked_by_the_handler():
    cpu = CpuCore(0)
    cpu.power_on(entry_point=0x2000)
    context = cpu.enter_trap("hvc", 0)
    cpu.park("handler parked us")
    context.write(Register.PC, 0xDEAD)
    cpu.exit_trap(context)
    assert cpu.registers.read(Register.PC) == 0x2000


def test_irq_entry_holds_the_live_register_file():
    cpu = CpuCore(0)
    cpu.power_on(entry_point=0x2000)
    context = cpu.enter_irq(timestamp=2.0)
    assert (context.exception_vector, context.hsr) == ("irq", 0)
    assert context.timestamp == 2.0
    cpu.registers.write(Register.R3, 0x33)
    assert context.read(Register.R3) == 0x33
    cpu.exit_trap(context)                    # nothing to load back
    assert cpu.registers.read(Register.R3) == 0x33
    assert cpu.registers.read(Register.PC) == 0x2000


def test_irq_entry_stays_live_across_reset_and_restore():
    cpu = CpuCore(0)
    cpu.power_on(entry_point=0x2000)
    state = cpu.snapshot_state()
    cpu.reset()
    cpu.power_on(entry_point=0x3000)
    context = cpu.enter_irq()
    cpu.restore_state(state)
    assert context.read(Register.PC) == 0x2000


def test_irq_entry_requires_online_cpu():
    cpu = CpuCore(0)
    with pytest.raises(CpuStateError):
        cpu.enter_irq()
    cpu.power_on()
    cpu.park("dead")
    with pytest.raises(CpuStateError):
        cpu.enter_irq()


def test_park_records_are_frozen():
    # snapshot_state() shallow-copies park_history, so records must be
    # immutable or a later mutation would rewrite history inside snapshots.
    cpu = CpuCore(0)
    cpu.power_on()
    cpu.park("unhandled trap", timestamp=1.5, error_code=0x24)
    with pytest.raises(Exception):
        cpu.park_history[0].reason = "rewritten"


def test_snapshot_park_history_survives_later_parks():
    cpu = CpuCore(0)
    cpu.power_on()
    cpu.park("first park", timestamp=1.0, error_code=0x24)
    snapshot = cpu.snapshot_state()
    cpu.state = CpuState.ONLINE
    cpu.park("second park", timestamp=2.0)
    assert len(snapshot["park_history"]) == 1
    assert snapshot["park_history"][0].reason == "first park"
    cpu.restore_state(snapshot)
    assert [record.reason for record in cpu.park_history] == ["first park"]
