"""Guest OS protocol and shared fault-propagation behaviour.

A guest model does three things:

1. **Generate traps.** Each simulation quantum it reports the VM exits its
   workload caused (hypercalls, WFI, system-register accesses, MMIO) as
   :class:`GuestEvent` objects. The system-under-test feeds those through the
   hypervisor's hookable entry points.
2. **Produce observable output.** Tasks print to the cell's UART; the paper
   judges availability purely from this output.
3. **React to a (possibly corrupted) resume context.** After a trap returns,
   the guest inspects the architectural state it was resumed with. A PC
   outside the cell's executable mappings faults at the next fetch; a stack
   pointer outside mapped RAM faults at the next stack access (unless the
   scheduler reloads SP first); a corrupted link register only matters if the
   running task returns through it before it is overwritten. These rules are
   what turn the paper's random bit flips into the outcome distribution of
   Figure 3 — they are behavioural properties of the guest, not of the
   injector.
"""

from __future__ import annotations

import abc
import copy
import dataclasses
import enum
import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.hw.board import BananaPiBoard
from repro.hw.memory import AccessType
from repro.hw.registers import Register, TrapContext
from repro.hypervisor.cell import Cell
from repro.hypervisor.traps import TrapCode
from repro.rng import seeded_rng

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

#: Probability that a task dereferences its (corrupted) stack pointer before
#: the scheduler reloads SP from the task control block at the next switch.
DEFAULT_STACK_USE_PROBABILITY = 0.35
#: Probability that the running task returns through a corrupted link register
#: before overwriting it with a new call.
DEFAULT_LINK_RETURN_PROBABILITY = 0.10

_UINT32_SPAN = 1 << 32

# Bound once for the per-step paths: on CPython 3.11 an enum class attribute
# lookup costs several times a module global.
_PC = Register.PC
_SP = Register.SP
_LR = Register.LR
_WRITE = AccessType.WRITE


class GuestState(enum.Enum):
    """Lifecycle state of a guest model."""

    STOPPED = "stopped"
    RUNNING = "running"
    CRASHED = "crashed"
    PANICKED = "panicked"


@dataclass(slots=True)
class GuestEvent:
    """One VM exit requested by the guest (slotted: built every quantum)."""

    trap: TrapCode
    registers: Dict[Register, int] = field(default_factory=dict)
    fault_address: Optional[int] = None
    description: str = ""


@dataclass
class GuestStats:
    """Counters kept by every guest model."""

    steps: int = 0
    traps_generated: int = 0
    uart_lines: int = 0
    faults_after_resume: int = 0
    silent_corruptions: int = 0


class GuestOS(abc.ABC):
    """Base class for guest OS models."""

    def __init__(self, name: str, *, seed: int = 0,
                 stack_use_probability: float = DEFAULT_STACK_USE_PROBABILITY,
                 link_return_probability: float = DEFAULT_LINK_RETURN_PROBABILITY) -> None:
        self.name = name
        self.state = GuestState.STOPPED
        self.stats = GuestStats()
        self.cell: Optional[Cell] = None
        self.board: Optional[BananaPiBoard] = None
        self.rng = seeded_rng(seed)
        self.stack_use_probability = stack_use_probability
        self.link_return_probability = link_return_probability
        self.crash_reason: Optional[str] = None
        #: Cached (cell, base, size, code_hi, stack_lo, stack_hi) draw bounds.
        # repro: allow[snapshot-complete] -- self-validating cache keyed on cell identity; recomputed whenever the cell changes
        self._nominal_bounds: Optional[tuple] = None

    # -- lifecycle --------------------------------------------------------------------

    def attach(self, cell: Cell, board: BananaPiBoard) -> None:
        """Bind the guest to its cell and board; called at cell load time."""
        self.cell = cell
        self.board = board
        cell.attach_guest(self)

    def boot(self) -> None:
        """Mark the guest as running and emit its boot banner."""
        if self.cell is None or self.board is None:
            raise RuntimeError(f"guest {self.name!r} must be attached before boot")
        self.state = GuestState.RUNNING
        # Establish sane architectural state on every online vCPU: a real guest
        # sets up its own stack and code pointers long before the first trap.
        for cpu_id in sorted(self.cell.online_cpus):
            self.place_registers(cpu_id, self.nominal_registers(cpu_id))
        self.console(self.boot_banner())

    def boot_banner(self) -> str:
        return f"{self.name} booting"

    @property
    def alive(self) -> bool:
        return self.state is GuestState.RUNNING

    # -- random draws -------------------------------------------------------------------

    @property
    def rng(self) -> np.random.Generator:
        """The guest's random stream; every workload draw comes from it."""
        return self._rng

    @rng.setter
    def rng(self, generator: np.random.Generator) -> None:
        # Bind the C entry points of the generator's bit generator once. The
        # state address they take stays valid while ``self._rng`` holds the
        # generator, and restoring ``bit_generator.state`` rewrites that
        # state in place; only a new generator, assigned here, rebinds them.
        self._rng = generator
        handles = generator.bit_generator.ctypes
        #: ``self._random()`` is ``self.rng.random()``: the same draw from
        #: the same C function, without numpy's Python-level wrapper.
        self._random = functools.partial(handles.next_double,
                                         handles.state_address)
        self._next_uint32 = functools.partial(handles.next_uint32,
                                              handles.state_address)

    def __getstate__(self) -> dict:
        # The C bindings are not copyable; a copy rebinds its own generator.
        state = self.__dict__.copy()
        del state["_random"], state["_next_uint32"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.rng = self._rng

    def _integers(self, low: int, high: int) -> int:
        """``int(self.rng.integers(low, high))`` for ``1 <= high - low <= 2**32``.

        Reproduces numpy's bounded-integer rule for the default int64 dtype
        draw for draw: a span of 1 consumes nothing, a span of ``2**32``
        takes one raw 32-bit word, any other span uses Lemire's
        multiply-and-reject method on 32-bit words. Those words come from
        the bit generator's own ``next_uint32``, which shares its
        half-consumed 64-bit buffer with numpy, so the stream and the
        ``bit_generator.state`` stay exactly numpy's.
        """
        span = high - low
        if span == 1:
            return low
        if not 1 < span < _UINT32_SPAN:
            if span == _UINT32_SPAN:
                return low + self._next_uint32()
            raise ValueError(f"draw span must be in [1, 2**32], got {span}")
        next_uint32 = self._next_uint32
        product = next_uint32() * span
        if (product & 0xFFFF_FFFF) < span:
            threshold = (_UINT32_SPAN - span) % span
            while (product & 0xFFFF_FFFF) < threshold:
                product = next_uint32() * span
        return low + (product >> 32)

    # -- console ------------------------------------------------------------------------

    def console(self, text: str) -> None:
        """Write one line to the cell's UART, tagged with the cell name."""
        if self.board is None or self.cell is None:
            return
        if not self.cell.config.console.enabled:
            return
        self.board.uart.write_line(self.cell.name, text)
        self.stats.uart_lines += 1
        self.cell.stats.uart_lines += 1

    # -- abstract workload ------------------------------------------------------------------

    @abc.abstractmethod
    def step(self, cpu_id: int, now: float, dt: float) -> List[GuestEvent]:
        """Run one quantum on ``cpu_id`` and return the traps it caused."""

    def on_interrupt(self, irq: int, cpu_id: int) -> None:
        """An interrupt owned by this cell was delivered."""

    def on_cpu_online(self, cpu_id: int) -> None:
        """A CPU just came online for this guest's cell.

        Models the guest's secondary-CPU startup code, which establishes a
        valid stack and return pointer before interrupts are enabled.
        """
        self.place_registers(cpu_id, self.nominal_registers(cpu_id))

    def on_system_panic(self, reason: str) -> None:
        """The hypervisor panicked underneath this guest."""
        self.state = GuestState.PANICKED

    # -- fault propagation after resume ----------------------------------------------------------

    def resume_from_trap(self, cpu_id: int, context: TrapContext) -> Optional[GuestEvent]:
        """Inspect the resumed state; return a follow-up fault event if it is bad.

        The returned event (if any) is dispatched immediately by the system
        under test, modelling the fact that a corrupted PC faults on the very
        next instruction fetch. ``context.registers`` may be the vCPU's live
        register file (an interrupt entry without hooks), so an event built
        after this method writes the vCPU states what the context held.
        """
        if self.cell is None:
            return None
        memory_map = self.cell.memory_map
        registers = context.registers

        pc = registers[_PC]
        if not memory_map.is_executable(pc):
            self.stats.faults_after_resume += 1
            return GuestEvent(
                trap=TrapCode.PREFETCH_ABORT,
                registers=dict(registers),
                fault_address=pc,
                description=f"instruction fetch from unmapped 0x{pc:08x}",
            )

        sp = registers[_SP]
        if not memory_map.is_mapped(sp, 4, _WRITE):
            if self._random() < self.stack_use_probability:
                self.stats.faults_after_resume += 1
                return GuestEvent(
                    trap=TrapCode.DATA_ABORT,
                    registers=dict(registers),
                    fault_address=sp,
                    description=f"stack access at unmapped 0x{sp:08x}",
                )
            # The scheduler reloads SP from the task control block before the
            # corrupted value is ever dereferenced.
            self._restore_stack_pointer(cpu_id)

        lr = registers[_LR]
        if not memory_map.is_executable(lr):
            if self._random() < self.link_return_probability:
                self.stats.faults_after_resume += 1
                # The SP restore above may have written a live context:
                # the event carries the SP the trap returned with.
                return GuestEvent(
                    trap=TrapCode.PREFETCH_ABORT,
                    registers={**registers, _SP: sp},
                    fault_address=lr,
                    description=f"return to unmapped 0x{lr:08x}",
                )

        return None

    def _restore_stack_pointer(self, cpu_id: int) -> None:
        """Reload a sane SP on the vCPU (models the next context switch)."""
        if self.board is None or self.cell is None:
            return
        ram = self.cell.memory_map.ram_mappings()
        if not ram:
            return
        top = ram[0].virt_start + ram[0].size - 0x100
        self.board.cpu(cpu_id).registers.write(Register.SP, top)

    # -- vCPU register housekeeping ---------------------------------------------------------------------

    def place_registers(self, cpu_id: int, values: Dict[Register, int]) -> None:
        """Write workload register values onto the vCPU before trapping.

        Hot path: callers pass :class:`Register`-keyed dicts built by the
        guest models, so the per-register validation of
        :meth:`~repro.hw.registers.RegisterFile.write` is skipped.
        """
        if self.board is None:
            return
        self.board.cpus[cpu_id].registers.load_masked(values)

    def nominal_registers(self, cpu_id: int) -> Dict[Register, int]:
        """Plausible architectural state for this guest while it executes."""
        cell = self.cell
        if cell is None:
            return {}
        # The RAM geometry is static per cell; cache the draw bounds (this
        # runs once per guest per simulation step).
        cached = self._nominal_bounds
        if cached is None or cached[0] is not cell:
            ram = cell.memory_map.ram_mappings()
            if not ram:
                return {}
            first = ram[0]
            size = first.size
            cached = self._nominal_bounds = (
                cell, first.virt_start, size,
                max(0x200, size // 4), size // 2, size - 0x100,
            )
        _, base, size, code_hi, stack_lo, stack_hi = cached
        integers = self._integers
        code_offset = integers(0x100, code_hi) & ~0x3
        stack_offset = integers(stack_lo, stack_hi) & ~0x7
        return {
            _PC: base + code_offset,
            _SP: base + stack_offset,
            _LR: base + ((code_offset + 0x40) % size),
        }

    def crash(self, reason: str) -> None:
        """Mark the guest as crashed (stops producing output)."""
        self.state = GuestState.CRASHED
        self.crash_reason = reason

    # -- snapshot / restore ------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Capture guest lifecycle state, counters, RNG stream and bindings.

        Subclasses extend the returned dict via ``super().snapshot_state()``.
        The RNG is captured as the bit-generator state so a restored guest
        replays exactly the same random draws a cold-booted one would.
        """
        return {
            "state": self.state,
            "stats": dataclasses.replace(self.stats),
            "cell": self.cell,
            "board": self.board,
            "rng": copy.deepcopy(self.rng.bit_generator.state),
            "crash_reason": self.crash_reason,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a prior :meth:`snapshot_state` in place."""
        self.state = state["state"]
        self.stats = dataclasses.replace(state["stats"])
        self.cell = state["cell"]
        self.board = state["board"]
        self.rng.bit_generator.state = copy.deepcopy(state["rng"])
        self.crash_reason = state["crash_reason"]
