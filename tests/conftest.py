"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.campaign import CampaignResult
from repro.core.experiment import Experiment, default_sut_factory
from repro.core.registry import resolve_sut_factory
from repro.core.sut import JailhouseSUT, SutConfig
from repro.hw.board import BananaPiBoard, BoardConfig
from repro.hypervisor.cli import JailhouseCli
from repro.hypervisor.config import (
    bananapi_system_config,
    freertos_cell_config,
)
from repro.hypervisor.core import Hypervisor
from repro.hypervisor.cell import LoadedImage


def run_cold_reference(plan, sut_factory=default_sut_factory,
                       classifier=None) -> CampaignResult:
    """The per-spec cold reference every parity suite compares against.

    Each spec runs through its own ``Experiment(spec, ...).run()`` in plan
    order, outside the engine: a fresh system under test per spec, no
    prefix forks, no worker processes. Whatever the engine does to go
    faster, its records must equal these.
    """
    factory = resolve_sut_factory(sut_factory)
    return CampaignResult(plan_name=plan.name, results=[
        Experiment(spec, sut_factory=factory, classifier=classifier).run()
        for spec in plan
    ])


@pytest.fixture
def cold_reference():
    """:func:`run_cold_reference`, for test modules that cannot import it."""
    return run_cold_reference


@pytest.fixture
def board() -> BananaPiBoard:
    """A powered-on dual-core board."""
    board = BananaPiBoard(BoardConfig())
    board.power_on()
    return board


@pytest.fixture
def hypervisor(board: BananaPiBoard) -> Hypervisor:
    """An enabled hypervisor with its root cell."""
    hv = Hypervisor(board)
    hv.enable(bananapi_system_config())
    return hv


@pytest.fixture
def cli(hypervisor: Hypervisor) -> JailhouseCli:
    return JailhouseCli(hypervisor)


@pytest.fixture
def freertos_cell(hypervisor: Hypervisor, cli: JailhouseCli):
    """A created, loaded and started FreeRTOS cell (no guest attached)."""
    config = freertos_cell_config()
    assert cli.cell_create(config).success
    assert cli.cell_load(
        "FreeRTOS",
        LoadedImage(region_name="ram", entry_point=0x0, size=64 << 10),
    ).success
    assert cli.cell_start("FreeRTOS").success
    return hypervisor.cell_by_name("FreeRTOS")


@pytest.fixture
def booted_sut() -> JailhouseSUT:
    """A fully booted mixed-criticality deployment (Linux + FreeRTOS)."""
    sut = JailhouseSUT(SutConfig(seed=12345))
    sut.setup()
    management = sut.perform_cell_lifecycle()
    assert management.create_succeeded and management.start_succeeded
    return sut
