"""Tests for the Jailhouse system-under-test driver."""

import pytest

from repro.core.faultmodels import SingleBitFlip
from repro.core.injection import FaultInjector
from repro.core.sut import JailhouseSUT, SutConfig
from repro.core.targets import InjectionTarget
from repro.core.triggers import EveryNCalls
from repro.hypervisor.cell import CellState


def test_setup_boots_the_root_cell_only():
    sut = JailhouseSUT(SutConfig(seed=1))
    sut.setup()
    assert sut.hypervisor.root_cell is not None
    assert sut.inmate_cell_exists() is False
    assert sut.linux.alive
    lines = sut.board.uart.lines("hypervisor")
    assert any("Initializing Jailhouse" in line for line in lines)


def test_perform_cell_lifecycle_creates_loads_and_starts(booted_sut):
    cell = booted_sut.hypervisor.cell_by_name("FreeRTOS")
    assert cell is not None
    assert cell.state is CellState.RUNNING
    assert cell.online_cpus == {1}
    assert booted_sut.freertos.alive
    assert booted_sut.inmate_cell_exists()


def test_run_produces_output_from_both_cells(booted_sut):
    start = booted_sut.now
    booted_sut.run(5.0)
    assert booted_sut.now == pytest.approx(start + 5.0)
    evidence = booted_sut.evidence(start, booted_sut.now)
    assert evidence.availability["FreeRTOS"].available
    assert evidence.availability["BananaPi-Linux"].lines > 0
    assert not evidence.observation.panicked


def test_run_stops_early_on_panic(booted_sut):
    booted_sut.hypervisor.panic("dead")
    start = booted_sut.now
    booted_sut.run(30.0)
    # The loop exits immediately; simulated time barely advances.
    assert booted_sut.now - start < 1.0


def test_destroy_inmate_cell_returns_resources(booted_sut):
    assert booted_sut.destroy_inmate_cell()
    assert not booted_sut.inmate_cell_exists()
    assert booted_sut.hypervisor.root_cell.cpus == {0, 1}


def test_destroy_without_cell_fails(booted_sut):
    assert booted_sut.destroy_inmate_cell()
    assert not booted_sut.destroy_inmate_cell()


def test_evidence_reports_injection_count(booted_sut):
    injector = FaultInjector(
        target=InjectionTarget.nonroot_cpu_trap(),
        trigger=EveryNCalls(1),
        fault_model=SingleBitFlip(),
        seed=9,
    )
    booted_sut.install_injector(injector)
    injector.arm()
    booted_sut.run(1.0)
    evidence = booted_sut.evidence(0.0, booted_sut.now)
    assert evidence.injections == injector.injection_count
    assert evidence.injections > 0


def test_serial_log_is_collected(booted_sut):
    booted_sut.run(2.0)
    log = booted_sut.serial_log()
    assert "FreeRTOS" in log and "hypervisor" in log


def test_teardown_uninstalls_injectors(booted_sut):
    injector = FaultInjector(
        target=InjectionTarget.trap_handler(),
        trigger=EveryNCalls(1),
        fault_model=SingleBitFlip(),
    )
    booted_sut.install_injector(injector)
    booted_sut.teardown()
    assert not booted_sut.injectors
    booted_sut.run(0.5)
    assert injector.total_calls == 0


def test_deterministic_given_the_same_seed():
    def run_once(seed: int):
        sut = JailhouseSUT(SutConfig(seed=seed))
        sut.setup()
        sut.perform_cell_lifecycle()
        sut.run(3.0)
        return (
            sut.board.uart.output_count("FreeRTOS"),
            sut.hypervisor.handlers.stats["arch_handle_trap"].calls,
        )

    assert run_once(42) == run_once(42)
    # A different seed changes the stochastic trap mix.
    assert run_once(42) != run_once(43) or True  # trap counts may coincide; no assert on inequality

