"""System-under-test drivers.

A :class:`SystemUnderTest` packages everything an experiment needs: it builds
the board, the hypervisor, and the guests; it brings the mixed-criticality
deployment up (Linux root cell managing a FreeRTOS non-root cell, as in the
paper's testbed); it drives the simulation loop that feeds guest activity
through the hypervisor's hookable entry points; and it exposes the evidence
the outcome classifier needs.

:class:`JailhouseSUT` is the paper's deployment. The baselines in
:mod:`repro.baselines` implement the same interface so the comparison
benchmark can run identical campaigns against them.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.injection import FaultInjector
from repro.core.monitors import AvailabilityMonitor, HypervisorMonitor, LogCollector
from repro.core.outcomes import ManagementEvidence, OutcomeEvidence
from repro.core.registry import SUTS
from repro.errors import CampaignError
from repro.guests.base import GuestEvent, GuestOS, GuestState
from repro.guests.freertos.kernel import FreeRTOSKernel
from repro.guests.freertos.workloads import build_paper_workload
from repro.guests.linux import LinuxGuest
from repro.hw.board import BananaPiBoard, BoardConfig
from repro.hw.cpu import CpuState
from repro.hypervisor.cell import CellState, LoadedImage
from repro.hypervisor.cli import JailhouseCli
from repro.hypervisor.config import (
    bananapi_system_config,
    freertos_cell_config,
)
from repro.hypervisor.core import Hypervisor, HypervisorState
from repro.hypervisor.handlers import TrapResult
from repro.hypervisor.traps import TrapCode, encode_hsr

# Enum members the step loop compares by identity, bound once: a class
# attribute lookup on an enum costs several times a module global.
_CPU_ONLINE = CpuState.ONLINE
_CELL_RUNNING = CellState.RUNNING
_CELL_LOCKED = CellState.RUNNING_LOCKED
_GUEST_RUNNING = GuestState.RUNNING
_HANDLED = TrapResult.HANDLED
_PANICKED = HypervisorState.PANICKED
#: Exception vector and HSR of each guest trap code, computed once.
_TRAP_ENTRY = {trap: (trap.value, encode_hsr(trap)) for trap in TrapCode}


@dataclass
class SutConfig:
    """Configuration of the Jailhouse system under test."""

    timestep: float = 0.02            # simulation quantum in seconds
    seed: int = 0
    root_cell_name: str = "BananaPi-Linux"
    inmate_cell_name: str = "FreeRTOS"
    inmate_entry_offset: int = 0x0
    create_ivshmem: bool = True
    max_resume_faults_per_step: int = 4


@dataclass
class SutSnapshot:
    """Full mutable state of a :class:`JailhouseSUT` at one instant.

    Captured by :meth:`JailhouseSUT.snapshot` and written back in place by
    :meth:`JailhouseSUT.restore`: restoring mutates the existing object graph
    (board memory map, CPU/GIC/timer state, hypervisor cell registry, guest
    kernel state) instead of rebuilding it, so references between components
    — guests attached to cells, injector hooks — stay valid.
    """

    board: dict
    hypervisor: dict
    cli: dict
    linux: dict
    freertos: dict
    log_start: Optional[float]
    lifecycle_done: bool


class SystemUnderTest(abc.ABC):
    """Interface every system under test implements."""

    name: str = "sut"

    @abc.abstractmethod
    def setup(self) -> None:
        """Boot the system to its steady state (no injections yet)."""

    @abc.abstractmethod
    def install_injector(self, injector: FaultInjector) -> None:
        """Install (but do not arm) a fault injector."""

    @abc.abstractmethod
    def run(self, duration: float) -> None:
        """Advance the workload for ``duration`` simulated seconds."""

    @abc.abstractmethod
    def perform_cell_lifecycle(self) -> ManagementEvidence:
        """Create, load and start the non-root cell (used by lifecycle tests)."""

    @abc.abstractmethod
    def destroy_inmate_cell(self) -> bool:
        """Destroy the non-root cell; returns whether resources came back."""

    @abc.abstractmethod
    def inmate_cell_exists(self) -> bool:
        """Whether the non-root cell is currently allocated."""

    @abc.abstractmethod
    def evidence(self, window_start: float, window_end: float) -> OutcomeEvidence:
        """Collect the classifier evidence for the given observation window."""

    @abc.abstractmethod
    def teardown(self) -> None:
        """Release references (a SUT instance is single-use)."""

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Current simulated time."""


class JailhouseSUT(SystemUnderTest):
    """The paper's deployment: Jailhouse on a Banana Pi with Linux + FreeRTOS."""

    name = "jailhouse"

    def __init__(self, config: Optional[SutConfig] = None) -> None:
        self.config = config or SutConfig()
        self.board = BananaPiBoard(BoardConfig())
        self.hypervisor = Hypervisor(self.board)
        self.cli = JailhouseCli(self.hypervisor)
        self.linux = LinuxGuest(self.config.root_cell_name, seed=self.config.seed)
        self.freertos: FreeRTOSKernel = build_paper_workload(
            self.config.inmate_cell_name, seed=self.config.seed + 1
        )
        self.injectors: List[FaultInjector] = []
        self._lifecycle_done = False
        self._log_collector = LogCollector(self.board.uart)
        #: Optional telemetry bus (:meth:`attach_telemetry`). ``None`` by
        #: default: :meth:`run` checks it once per call, never per step, so
        #: an uninstrumented SUT runs the exact historical hot path.
        self.telemetry = None

    # -- setup ---------------------------------------------------------------------------

    def setup(self) -> None:
        """Boot to the steady state: power on, enable, boot the root cell."""
        self.board.power_on()
        system_config = bananapi_system_config()
        result = self.cli.enable(system_config)
        if not result.success:
            raise CampaignError(f"failed to enable the hypervisor: {result.output}")
        root = self.hypervisor.root_cell
        assert root is not None
        self.linux.attach(root, self.board)
        self.linux.boot()
        self._log_collector.start(self.board.clock.now)

    # -- snapshot / restore ----------------------------------------------------------------

    def snapshot(self) -> SutSnapshot:
        """Capture the full mutable state of the deployment.

        Injector hooks installed on the handlers are captured too (as
        references); a snapshot is normally taken with no injector installed
        — the engine snapshots the fault-free state a prefix family reaches
        at its injection point.
        """
        return SutSnapshot(
            board=self.board.snapshot_state(),
            hypervisor=self.hypervisor.snapshot_state(),
            cli=self.cli.snapshot_state(),
            linux=self.linux.snapshot_state(),
            freertos=self.freertos.snapshot_state(),
            log_start=self._log_collector.start_time,
            lifecycle_done=self._lifecycle_done,
        )

    def restore(self, snapshot: SutSnapshot) -> None:
        """Restore a prior :meth:`snapshot` in place (object identity kept)."""
        self.board.restore_state(snapshot.board)
        self.hypervisor.restore_state(snapshot.hypervisor)
        self.cli.restore_state(snapshot.cli)
        self.linux.restore_state(snapshot.linux)
        self.freertos.restore_state(snapshot.freertos)
        self._log_collector.start(snapshot.log_start)
        self._lifecycle_done = snapshot.lifecycle_done
        self.injectors.clear()

    def fork_from_snapshot(self, snapshot: SutSnapshot) -> None:
        """Rewind to ``snapshot`` to run another fault variant from it.

        The prefix fast-forward path executes one golden bring-up per prefix
        family, snapshots the deployment at the injection point, and forks
        every variant of that family from the snapshot instead of re-running
        the bring-up. Restoring is in place (the snapshot must have been
        taken on this SUT's object graph) and leaves no injector installed.
        A family's members share one seed (it is part of their prefix key)
        and the RNG streams are restored bit-exactly, so a forked run replays
        the exact draws a cold boot would make.
        """
        self.restore(snapshot)

    def install_injector(self, injector: FaultInjector) -> None:
        injector.install(self.hypervisor.handlers)
        self.injectors.append(injector)

    # -- cell lifecycle ------------------------------------------------------------------------

    def perform_cell_lifecycle(self) -> ManagementEvidence:
        """Create, load and start the FreeRTOS cell through the jailhouse CLI."""
        evidence = ManagementEvidence()
        cell_config = freertos_cell_config(self.config.inmate_cell_name)

        evidence.create_attempted = True
        create = self.cli.cell_create(cell_config)
        evidence.create_succeeded = create.success
        evidence.create_code = create.code
        if not create.success:
            return evidence

        ram = cell_config.find_assignment("ram")
        assert ram is not None
        entry = ram.virt_start + self.config.inmate_entry_offset
        load = self.cli.cell_load(
            cell_config.name,
            LoadedImage(region_name="ram", entry_point=entry,
                        size=256 << 10, description="freertos-bananapi.bin"),
        )
        if load.success:
            cell = self.hypervisor.cell_by_name(cell_config.name)
            assert cell is not None
            self.freertos.attach(cell, self.board)
            if self.config.create_ivshmem:
                channel = self.hypervisor.create_ivshmem_channel(
                    self.config.root_cell_name, cell_config.name
                )
                channel.set_doorbell_target(cell_config.name, min(cell.cpus))
                self.freertos.attach_ivshmem(channel)

        evidence.start_attempted = True
        start = self.cli.cell_start(cell_config.name)
        evidence.start_succeeded = start.success
        evidence.start_code = start.code
        if start.success:
            cell = self.hypervisor.cell_by_name(cell_config.name)
            if cell is not None and cell.online_cpus:
                self.freertos.boot()
        self._lifecycle_done = True
        return evidence

    def inmate_cell_exists(self) -> bool:
        return self.hypervisor.cell_by_name(self.config.inmate_cell_name) is not None

    def destroy_inmate_cell(self) -> bool:
        """``jailhouse cell destroy`` and verify resources return to the root."""
        result = self.cli.cell_destroy(self.config.inmate_cell_name)
        if not result.success:
            return False
        root = self.hypervisor.root_cell
        assert root is not None
        freertos_cpus = freertos_cell_config(self.config.inmate_cell_name).cpus
        return freertos_cpus <= root.cpus

    # -- simulation loop ----------------------------------------------------------------------------

    def attach_telemetry(self, bus) -> None:
        """Attach a :class:`~repro.obs.telemetry.Telemetry` bus to this SUT.

        While the bus is active, every :meth:`run` emits two aggregate
        ``span`` events — ``sut.guest_step`` (the per-tick guest execution
        loop) and ``sut.trap_dispatch`` (workload-generated trap handling) —
        with total elapsed seconds and call counts for that run. An inactive
        or absent bus costs one check per :meth:`run` call, never per step.
        """
        self.telemetry = bus

    def run(self, duration: float) -> None:
        """Drive the workload; stops early if the whole system panics."""
        steps = max(1, int(round(duration / self.config.timestep)))
        timestep = self.config.timestep
        telemetry = self.telemetry
        if telemetry is not None and telemetry.active:
            self._run_instrumented(steps, timestep, telemetry)
            return
        hypervisor = self.hypervisor
        step = self._step
        for _ in range(steps):
            if hypervisor.state is _PANICKED:
                break
            step(timestep)

    def _run_instrumented(self, steps: int, timestep: float,
                          telemetry) -> None:
        """The :meth:`run` loop with span instrumentation.

        Timing wraps the existing :meth:`_step`/:meth:`_dispatch_guest_event`
        rather than duplicating them (one hot path to keep correct); the
        dispatch wrapper shadows the bound method for the duration of this
        run only, and nested resume-fault dispatches are folded into their
        depth-0 ancestor's time.
        """
        from time import perf_counter

        hypervisor = self.hypervisor
        step_elapsed = 0.0
        step_count = 0
        dispatch = {"elapsed": 0.0, "count": 0}
        inner_dispatch = self._dispatch_guest_event

        def timed_dispatch(cpu_id, guest, event, *, depth):
            if depth > 0:
                return inner_dispatch(cpu_id, guest, event, depth=depth)
            started = perf_counter()
            try:
                return inner_dispatch(cpu_id, guest, event, depth=depth)
            finally:
                dispatch["elapsed"] += perf_counter() - started
                dispatch["count"] += 1

        self._dispatch_guest_event = timed_dispatch
        try:
            for _ in range(steps):
                if hypervisor.state is _PANICKED:
                    break
                started = perf_counter()
                self._step(timestep)
                step_elapsed += perf_counter() - started
                step_count += 1
        finally:
            del self._dispatch_guest_event
        # repro: allow[telemetry-guard] -- run() only calls _run_instrumented when the bus is active (cross-function guard)
        telemetry.emit("span", name="sut.guest_step",
                       elapsed_s=step_elapsed, count=step_count)
        # repro: allow[telemetry-guard] -- run() only calls _run_instrumented when the bus is active (cross-function guard)
        telemetry.emit("span", name="sut.trap_dispatch",
                       elapsed_s=dispatch["elapsed"],
                       count=dispatch["count"])

    def _step(self, dt: float) -> None:
        # Hot path, 50 times per simulated second: attribute lookups hoisted,
        # states compared by identity against module-level enum members.
        board = self.board
        hypervisor = self.hypervisor
        handlers = hypervisor.handlers
        gic_pending = board.gic.pending_view()
        board.advance(dt)
        now = board.clock.now
        for cpu in board.cpus:
            if cpu.state is not _CPU_ONLINE:
                continue
            cpu_id = cpu.cpu_id
            cell = hypervisor.cell_of_cpu(cpu_id)
            if cell is None:
                continue
            cell_state = cell.state
            if cell_state is not _CELL_RUNNING and cell_state is not _CELL_LOCKED:
                continue
            guest = cell.guest
            if guest is None or guest.state is not _GUEST_RUNNING:
                continue
            # Pending interrupts enter through irqchip_handle_irq().
            if gic_pending[cpu_id]:
                context = cpu.enter_trap("irq", 0, timestamp=now)
                result = handlers.irqchip_handle_irq(cpu, context)
                if result is _HANDLED:
                    follow_up = guest.resume_from_trap(cpu_id, context)
                    if follow_up is not None:
                        self._dispatch_guest_event(cpu_id, guest, follow_up, depth=1)
                if hypervisor.state is _PANICKED or cpu.state is not _CPU_ONLINE:
                    continue
            # Workload-generated VM exits enter through arch_handle_trap()/hvc().
            for event in guest.step(cpu_id, now, dt):
                if hypervisor.state is _PANICKED or cpu.state is not _CPU_ONLINE:
                    break
                self._dispatch_guest_event(cpu_id, guest, event, depth=0)

    def _dispatch_guest_event(self, cpu_id: int, guest: GuestOS,
                              event: GuestEvent, *, depth: int) -> None:
        if depth > self.config.max_resume_faults_per_step:
            return
        board = self.board
        cpu = board.cpus[cpu_id]
        if cpu.state is not _CPU_ONLINE:
            return
        guest.place_registers(cpu_id, event.registers)
        vector, hsr = _TRAP_ENTRY[event.trap]
        context = cpu.enter_trap(vector, hsr, timestamp=board.clock.now)
        result = self.hypervisor.handlers.arch_handle_trap(
            cpu, context, fault_address=event.fault_address
        )
        if result is not _HANDLED:
            return
        follow_up = guest.resume_from_trap(cpu_id, context)
        if follow_up is not None:
            self._dispatch_guest_event(cpu_id, guest, follow_up, depth=depth + 1)

    # -- evidence ------------------------------------------------------------------------------------

    def evidence(self, window_start: float, window_end: float) -> OutcomeEvidence:
        hypervisor_monitor = HypervisorMonitor(self.hypervisor)
        availability: Dict[str, "AvailabilityReport"] = {}
        for cell_name in (self.config.inmate_cell_name, self.config.root_cell_name):
            monitor = AvailabilityMonitor(self.board.uart, cell_name)
            availability[cell_name] = monitor.report(window_start, window_end)
        injections = sum(injector.injection_count for injector in self.injectors)
        return OutcomeEvidence(
            observation=hypervisor_monitor.observe(window_start, window_end),
            availability=availability,
            target_cell=self.config.inmate_cell_name,
            root_cell=self.config.root_cell_name,
            injections=injections,
        )

    def serial_log(self) -> str:
        """The full captured serial log of this run (the paper's log file)."""
        return self._log_collector.collect(self.board.clock.now)

    @property
    def now(self) -> float:
        return self.board.clock.now

    def teardown(self) -> None:
        for injector in self.injectors:
            injector.uninstall()
        self.injectors.clear()


@SUTS.register("jailhouse")
def build_jailhouse_sut(seed: int = 0, **config_params) -> JailhouseSUT:
    """The paper's deployment: Jailhouse managing Linux root + FreeRTOS inmate."""
    return JailhouseSUT(SutConfig(seed=seed, **config_params))
