"""The timer IRQ entry: one path, the same state with hooks and without.

``_step`` enters every interrupt over the vCPU's live register file;
``irqchip_handle_irq`` copies the registers only when entry hooks are
installed, so that a hook's corruption reaches the vCPU through
``exit_trap`` after the CPSR check. A no-op hook therefore switches a run
from the live path to the copy path and must change nothing else.
"""

import random

import pytest

from repro.core.sut import JailhouseSUT, SutConfig
from repro.hw.registers import ARCHITECTURAL_REGISTERS, Register
from repro.hypervisor.traps import HANDLER_IRQCHIP, HANDLER_TRAP, TrapCode

#: A stack pointer and a return address no FreeRTOS mapping covers.
BAD_SP = 0x2000_0100
BAD_LR = 0x2000_0200


def steady_sut(seed: int, *, hooked: bool) -> JailhouseSUT:
    sut = JailhouseSUT(SutConfig(seed=seed))
    sut.setup()
    sut.perform_cell_lifecycle()
    sut.run(1.0)
    if hooked:
        sut.hypervisor.handlers.add_entry_hook(
            HANDLER_IRQCHIP, lambda name, cpu, context: None)
    return sut


def record_follow_ups(sut: JailhouseSUT) -> list:
    """Record each resume follow-up the SUT dispatches, then dispatch it."""
    follow_ups = []
    dispatch = sut._dispatch_guest_event

    def recording(cpu_id, guest, event, *, depth):
        if depth > 0:
            follow_ups.append((cpu_id, depth, event.trap,
                               dict(event.registers), event.fault_address))
        return dispatch(cpu_id, guest, event, depth=depth)

    sut._dispatch_guest_event = recording
    return follow_ups


def observed(sut: JailhouseSUT) -> dict:
    handlers = sut.hypervisor.handlers
    return {
        "registers": [cpu.registers.snapshot() for cpu in sut.board.cpus],
        "cpu_states": [cpu.state for cpu in sut.board.cpus],
        "gic": sut.board.gic.snapshot_state(),
        "handler_calls": {name: s.calls for name, s in handlers.stats.items()},
        "uart": sut.board.uart.dump(),
        "rng": [sut.linux.rng.bit_generator.state,
                sut.freertos.rng.bit_generator.state],
        "now": sut.now,
    }


@pytest.mark.parametrize("seed", [0, 7])
def test_a_no_op_hook_changes_nothing(seed):
    live, copied = (steady_sut(seed, hooked=hooked) for hooked in (False, True))
    for sut in (live, copied):
        sut.run(4.0)
    assert observed(live) == observed(copied)
    assert live.hypervisor.handlers.stats[HANDLER_IRQCHIP].calls == 2 * 250


def test_random_trap_faults_take_the_same_course_on_both_paths():
    # The same bit flips at every 7th trap entry in both runs: the resume
    # checks raise follow-up faults, and the flips the traps return with
    # stay on the vCPUs for the following ticks.
    def flipper():
        draws = random.Random(3)
        calls = [0]

        def flip(name, cpu, context):
            calls[0] += 1
            if calls[0] % 7 == 0:
                register = draws.choice(ARCHITECTURAL_REGISTERS[:-1])
                context.flip(register, draws.randrange(32))

        return flip

    live, copied = (steady_sut(5, hooked=hooked) for hooked in (False, True))
    follow_ups = []
    for sut in (live, copied):
        sut.hypervisor.handlers.add_entry_hook(HANDLER_TRAP, flipper())
        follow_ups.append(record_follow_ups(sut))
        sut.run(6.0)
    assert follow_ups[0] and follow_ups[0] == follow_ups[1]
    assert observed(live) == observed(copied)


def leave_bad_sp_and_lr(sut: JailhouseSUT) -> None:
    """Step until a FreeRTOS trap returns with a corrupted SP and LR.

    The trap's own resume check raises a stack fault for the SP, and the
    depth limit drops it, so both values stay on the vCPU for the next
    tick's resume check.
    """
    corrupted = []

    def corrupt(name, cpu, context):
        if cpu.cpu_id == 1:
            context.registers[Register.SP] = BAD_SP
            context.registers[Register.LR] = BAD_LR
            corrupted.append(cpu.cpu_id)

    handlers = sut.hypervisor.handlers
    handlers.add_entry_hook(HANDLER_TRAP, corrupt)
    sut.config.max_resume_faults_per_step = 0
    sut.freertos.stack_use_probability = 1.0
    while not corrupted:
        sut.run(0.02)
    handlers.remove_entry_hook(HANDLER_TRAP, corrupt)
    sut.config.max_resume_faults_per_step = SutConfig().max_resume_faults_per_step
    # At the tick: the SP check reloads a sane SP, the LR check faults.
    sut.freertos.stack_use_probability = 0.0
    sut.freertos.link_return_probability = 1.0


def test_lr_fault_at_the_tick_carries_the_sp_the_trap_returned_with():
    runs = []
    for hooked in (False, True):
        sut = steady_sut(11, hooked=hooked)
        leave_bad_sp_and_lr(sut)
        vcpu = sut.board.cpu(1).registers
        assert (vcpu.read(Register.SP), vcpu.read(Register.LR)) == (BAD_SP, BAD_LR)
        follow_ups = record_follow_ups(sut)
        sut.run(0.02)
        runs.append((follow_ups, observed(sut), sut.hypervisor.panic_reason))
    (live_follow_ups, live, live_panic), (copied_follow_ups, copied, _) = runs
    cpu_id, depth, trap, registers, fault_address = live_follow_ups[0]
    assert (cpu_id, depth, trap, fault_address) == (
        1, 1, TrapCode.PREFETCH_ABORT, BAD_LR)
    # The SP check reloaded a sane SP on the vCPU before the LR check, but
    # the follow-up states the registers the interrupt returned with.
    assert registers[Register.SP] == BAD_SP
    assert live_follow_ups == copied_follow_ups
    assert live == copied
    assert "prefetch abort" in live_panic


def test_a_hook_corruption_reaches_the_vcpu_only_after_the_cpsr_check():
    sut = steady_sut(2, hooked=False)
    vcpu = sut.board.cpu(1).registers
    cpsr = vcpu.read(Register.CPSR)

    def corrupt(name, cpu, context):
        if cpu.cpu_id == 1:
            context.registers[Register.R5] = 0xDEAD
            context.registers[Register.CPSR] = 0x1A        # HYP: illegal

    sut.hypervisor.handlers.add_entry_hook(HANDLER_IRQCHIP, corrupt)
    sut.run(0.02)
    assert "illegal exception return" in sut.hypervisor.panic_reason
    # The return was refused, so nothing the hook wrote was loaded.
    assert vcpu.read(Register.CPSR) == cpsr
    assert vcpu.read(Register.R5) != 0xDEAD


def test_a_hook_corruption_is_loaded_at_exit():
    sut = steady_sut(2, hooked=False)

    def corrupt(name, cpu, context):
        if cpu.cpu_id == 1:
            context.registers[Register.R5] = 0xDEAD

    sut.hypervisor.handlers.add_entry_hook(HANDLER_IRQCHIP, corrupt)
    sut.run(0.02)
    assert sut.board.cpu(1).registers.read(Register.R5) == 0xDEAD
