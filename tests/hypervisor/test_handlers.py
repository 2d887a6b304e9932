"""Tests for the three hookable entry points (arch_handle_hvc/trap, irqchip)."""

import pytest

from repro.hw.board import BananaPiBoard
from repro.hw.cpu import CpuState
from repro.hw.registers import Register, TrapContext, make_cpsr
from repro.hypervisor.cell import LoadedImage
from repro.hypervisor.config import bananapi_system_config, freertos_cell_config
from repro.hypervisor.core import Hypervisor, HypervisorEventKind
from repro.hypervisor.handlers import (
    ALL_HANDLERS,
    HANDLER_HVC,
    HANDLER_IRQCHIP,
    HANDLER_TRAP,
    PSCI_CPU_ON,
    TrapResult,
)
from repro.hypervisor.hypercalls import Hypercall, ReturnCode
from repro.hypervisor.traps import TrapCode, encode_hsr


@pytest.fixture
def hv() -> Hypervisor:
    board = BananaPiBoard()
    board.power_on()
    hypervisor = Hypervisor(board)
    hypervisor.enable(bananapi_system_config())
    return hypervisor


def started_inmate(hv: Hypervisor):
    address = hv.stage_config(freertos_cell_config())
    create = hv.issue_hypercall(0, int(Hypercall.CELL_CREATE), address)
    cell = hv.cell_by_id(create.code)
    cell.load_image(LoadedImage("ram", entry_point=0x0, size=4096))
    hv.issue_hypercall(0, int(Hypercall.CELL_START), create.code)
    return cell


def make_trap_context(hv: Hypervisor, cpu_id: int, trap: TrapCode,
                      registers=None) -> TrapContext:
    cpu = hv.board.cpu(cpu_id)
    if registers:
        for register, value in registers.items():
            cpu.registers.write(register, value)
    return cpu.enter_trap(trap.value, encode_hsr(trap))


class TestEntryHooks:
    def test_hooks_fire_with_handler_name_cpu_and_context(self, hv: Hypervisor):
        seen = []
        hv.handlers.add_entry_hook(
            HANDLER_HVC, lambda name, cpu, ctx: seen.append((name, cpu.cpu_id))
        )
        hv.issue_hypercall(0, int(Hypercall.HYPERVISOR_GET_INFO))
        assert seen == [(HANDLER_HVC, 0)]

    def test_hook_can_corrupt_the_context_before_dispatch(self, hv: Hypervisor):
        # Corrupting r0 at handler entry turns a valid hypercall into an
        # unknown one, which must be rejected — the paper's core mechanism.
        def corrupt(name, cpu, context):
            context.write(Register.R0, 0xFFFF)

        hv.handlers.add_entry_hook(HANDLER_HVC, corrupt)
        outcome = hv.issue_hypercall(0, int(Hypercall.HYPERVISOR_GET_INFO))
        assert outcome.code == int(ReturnCode.ENOSYS)

    def test_unknown_handler_name_is_rejected(self, hv: Hypervisor):
        with pytest.raises(KeyError):
            hv.handlers.add_entry_hook("bogus", lambda *a: None)

    def test_remove_and_clear_hooks(self, hv: Hypervisor):
        calls = []
        hook = lambda name, cpu, ctx: calls.append(name)  # noqa: E731
        hv.handlers.add_entry_hook(HANDLER_HVC, hook)
        hv.handlers.remove_entry_hook(HANDLER_HVC, hook)
        hv.issue_hypercall(0, int(Hypercall.HYPERVISOR_GET_INFO))
        assert calls == []
        hv.handlers.add_entry_hook(HANDLER_TRAP, hook)
        hv.handlers.clear_hooks()
        assert not hv.handlers._hooks[HANDLER_TRAP]

    def test_restore_brings_back_the_irqchip_hooks_it_captured(
            self, hv: Hypervisor):
        seen = []
        first = lambda name, cpu, ctx: seen.append("first")   # noqa: E731
        second = lambda name, cpu, ctx: seen.append("second")  # noqa: E731
        cpu = hv.board.cpu(0)
        hv.handlers.add_entry_hook(HANDLER_IRQCHIP, first)
        state = hv.handlers.snapshot_state()
        hv.handlers.remove_entry_hook(HANDLER_IRQCHIP, first)
        hv.handlers.add_entry_hook(HANDLER_IRQCHIP, second)
        hv.handlers.restore_state(state)
        hv.handlers.irqchip_handle_irq(cpu, cpu.enter_irq())
        assert seen == ["first"]
        # Hooks installed after a restore run on the next interrupt too.
        hv.handlers.add_entry_hook(HANDLER_IRQCHIP, second)
        hv.handlers.irqchip_handle_irq(cpu, cpu.enter_irq())
        assert seen == ["first", "first", "second"]
        assert hv.handlers.call_count(HANDLER_IRQCHIP) == 2

    def test_call_counters_per_handler(self, hv: Hypervisor):
        before = hv.handlers.call_count(HANDLER_HVC)
        hv.issue_hypercall(0, int(Hypercall.HYPERVISOR_GET_INFO))
        assert hv.handlers.call_count(HANDLER_HVC) == before + 1
        assert set(hv.handlers.stats) == set(ALL_HANDLERS)


class TestArchHandleTrap:
    def test_wfi_is_handled(self, hv: Hypervisor):
        started_inmate(hv)
        calls = hv.handlers.call_count(HANDLER_TRAP)
        context = make_trap_context(hv, 1, TrapCode.WFI)
        context.write(Register.R4, 0x44)
        result = hv.handlers.arch_handle_trap(hv.board.cpu(1), context)
        assert result is TrapResult.HANDLED
        assert hv.handlers.call_count(HANDLER_TRAP) == calls + 1
        # Returned to the guest: the context was loaded onto the vCPU.
        assert hv.board.cpu(1).registers.read(Register.R4) == 0x44

    def test_cp15_access_returns_zero_in_r0(self, hv: Hypervisor):
        started_inmate(hv)
        context = make_trap_context(hv, 1, TrapCode.CP15_ACCESS,
                                    {Register.R0: 0x55})
        result = hv.handlers.arch_handle_trap(hv.board.cpu(1), context)
        assert result is TrapResult.HANDLED
        assert context.read(Register.R0) == 0

    def test_hvc_exception_class_routes_to_hvc_handler(self, hv: Hypervisor):
        context = make_trap_context(
            hv, 0, TrapCode.HYPERCALL,
            {Register.R0: int(Hypercall.HYPERVISOR_GET_INFO)},
        )
        result = hv.handlers.arch_handle_trap(hv.board.cpu(0), context)
        assert result is TrapResult.HANDLED
        assert hv.handlers.stats[HANDLER_HVC].calls >= 1

    def test_data_abort_on_mapped_window_is_mmio_emulated(self, hv: Hypervisor):
        cell = started_inmate(hv)
        context = make_trap_context(hv, 1, TrapCode.DATA_ABORT)
        result = hv.handlers.arch_handle_trap(
            hv.board.cpu(1), context, fault_address=0x3000_0010
        )
        assert result is TrapResult.HANDLED
        assert cell.stats.mmio_accesses == 1

    def test_data_abort_on_unmapped_address_parks_with_error_0x24(self, hv: Hypervisor):
        cell = started_inmate(hv)
        context = make_trap_context(hv, 1, TrapCode.DATA_ABORT)
        result = hv.handlers.arch_handle_trap(
            hv.board.cpu(1), context, fault_address=0xDEAD_0000
        )
        assert result is TrapResult.UNHANDLED_PARKED
        cpu = hv.board.cpu(1)
        assert cpu.is_parked
        assert cpu.park_history[-1].error_code == 0x24
        assert not hv.panicked
        # The other cell (root) is untouched: isolation preserved.
        assert hv.board.cpu(0).is_executing
        lines = "\n".join(hv.board.uart.lines("hypervisor"))
        assert "error 0x24" in lines

    def test_prefetch_abort_on_unmapped_address_panics_the_system(self, hv: Hypervisor):
        started_inmate(hv)
        context = make_trap_context(hv, 1, TrapCode.PREFETCH_ABORT)
        result = hv.handlers.arch_handle_trap(
            hv.board.cpu(1), context, fault_address=0xDEAD_0000
        )
        assert result is TrapResult.PANIC
        assert hv.panicked
        assert all(not cpu.is_executing for cpu in hv.board.cpus)

    def test_prefetch_abort_on_mapped_executable_address_is_spurious(self, hv: Hypervisor):
        started_inmate(hv)
        context = make_trap_context(hv, 1, TrapCode.PREFETCH_ABORT)
        result = hv.handlers.arch_handle_trap(
            hv.board.cpu(1), context, fault_address=0x100
        )
        assert result is TrapResult.HANDLED
        assert not hv.panicked

    def test_unknown_exception_class_parks_the_cpu(self, hv: Hypervisor):
        started_inmate(hv)
        cpu = hv.board.cpu(1)
        context = cpu.enter_trap("unknown", encode_hsr(TrapCode.UNKNOWN))
        result = hv.handlers.arch_handle_trap(cpu, context)
        assert result is TrapResult.UNHANDLED_PARKED
        assert cpu.is_parked

    def test_illegal_exception_return_panics(self, hv: Hypervisor):
        started_inmate(hv)
        context = make_trap_context(hv, 1, TrapCode.WFI)
        context.write(Register.CPSR, make_cpsr(0b11010))   # HYP mode
        result = hv.handlers.arch_handle_trap(hv.board.cpu(1), context)
        assert result is TrapResult.PANIC
        assert hv.panicked

    def test_containment_policy_fails_only_the_cell(self):
        board = BananaPiBoard()
        board.power_on()
        hv = Hypervisor(board, contains_guest_faults=True)
        hv.enable(bananapi_system_config())
        cell = started_inmate(hv)
        context = make_trap_context(hv, 1, TrapCode.PREFETCH_ABORT)
        result = hv.handlers.arch_handle_trap(
            board.cpu(1), context, fault_address=0xDEAD_0000
        )
        assert result is TrapResult.UNHANDLED_PARKED
        assert not hv.panicked
        assert cell.state.value == "failed"
        assert board.cpu(0).is_executing

    def test_escalation_policy_turns_parks_into_panics(self):
        board = BananaPiBoard()
        board.power_on()
        hv = Hypervisor(board, escalate_parks_to_panic=True)
        hv.enable(bananapi_system_config())
        started_inmate(hv)
        context = make_trap_context(hv, 1, TrapCode.DATA_ABORT)
        hv.handlers.arch_handle_trap(board.cpu(1), context,
                                     fault_address=0xDEAD_0000)
        assert hv.panicked


class TestPsciAndBringUp:
    def test_cpu_on_with_invalid_entry_fails_to_come_online(self, hv: Hypervisor):
        address = hv.stage_config(freertos_cell_config())
        create = hv.issue_hypercall(0, int(Hypercall.CELL_CREATE), address)
        cell = hv.cell_by_id(create.code)
        cell.load_image(LoadedImage("ram", entry_point=0xDEAD_0000, size=4096))
        start = hv.issue_hypercall(0, int(Hypercall.CELL_START), create.code)
        assert start.ok                       # Jailhouse reports success anyway
        assert cell.state.is_running
        assert not cell.online_cpus           # ... but the CPU never came up
        assert not cell.is_consistent()
        assert hv.events_of_kind(HypervisorEventKind.CPU_ONLINE_FAILED)

    def test_corrupting_the_bringup_context_leaves_cell_inconsistent(self, hv: Hypervisor):
        # Install a hook corrupting the PSCI entry-point register on CPU 1,
        # mimicking the paper's high-intensity non-root finding.
        def corrupt(name, cpu, context):
            if cpu.cpu_id == 1:
                context.write(Register.R2, 0xFFF0_0000)

        hv.handlers.add_entry_hook(HANDLER_TRAP, corrupt)
        address = hv.stage_config(freertos_cell_config())
        create = hv.issue_hypercall(0, int(Hypercall.CELL_CREATE), address)
        cell = hv.cell_by_id(create.code)
        cell.load_image(LoadedImage("ram", entry_point=0x0, size=4096))
        start = hv.issue_hypercall(0, int(Hypercall.CELL_START), create.code)
        assert start.ok
        assert cell.state.is_running and not cell.online_cpus

    def test_psci_cpu_off_takes_the_core_offline(self, hv: Hypervisor):
        cell = started_inmate(hv)
        cpu = hv.board.cpu(1)
        cpu.registers.write(Register.R0, 0x8400_0002)   # PSCI_CPU_OFF
        context = cpu.enter_trap("smc", encode_hsr(TrapCode.SMC))
        result = hv.handlers.arch_handle_trap(cpu, context)
        assert result is TrapResult.HANDLED
        assert cpu.state is CpuState.OFFLINE
        assert 1 not in cell.online_cpus

    def test_unknown_smc_returns_not_supported(self, hv: Hypervisor):
        started_inmate(hv)
        cpu = hv.board.cpu(1)
        cpu.registers.write(Register.R0, 0x1234_5678)
        context = cpu.enter_trap("smc", encode_hsr(TrapCode.SMC))
        result = hv.handlers.arch_handle_trap(cpu, context)
        assert result is TrapResult.HANDLED
        assert context.read(Register.R0) == 0xFFFF_FFFF


class TestIrqchip:
    def test_pending_timer_interrupt_is_routed_to_the_owning_cell(
            self, hv: Hypervisor, monkeypatch):
        cell = started_inmate(hv)
        delivered = []
        guest = type("Guest", (), {"on_interrupt": lambda self, irq, cpu_id:
                                   delivered.append((irq, cpu_id))})()
        monkeypatch.setattr(cell, "guest", guest)
        hv.board.advance(0.02)                 # raise timer PPIs
        cpu = hv.board.cpu(1)
        context = cpu.enter_irq()
        result = hv.handlers.irqchip_handle_irq(cpu, context)
        assert result is TrapResult.HANDLED
        assert delivered == [(27, 1)]
        assert not hv.board.gic.has_pending(1)
        assert hv.board.gic.cpu_interfaces[1].active is None

    def test_spurious_wakeup_with_nothing_pending(self, hv: Hypervisor):
        cpu = hv.board.cpu(0)
        context = cpu.enter_trap("irq", 0)
        result = hv.handlers.irqchip_handle_irq(cpu, context)
        assert result is TrapResult.HANDLED

    def test_unowned_spi_is_reported_as_spurious(self, hv: Hypervisor):
        hv.board.gic.enable_irq(120, targets={0})
        hv.root_cell.irqs.discard(120)
        hv.board.gic.raise_irq(120)
        cpu = hv.board.cpu(0)
        context = cpu.enter_trap("irq", 0)
        hv.handlers.irqchip_handle_irq(cpu, context)
        assert any("Spurious" in line for line in hv.board.uart.lines("hypervisor"))
