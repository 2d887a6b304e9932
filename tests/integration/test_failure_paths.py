"""Failure-injection tests for the framework itself (error paths).

These tests make sure the orchestration layer degrades cleanly when the
system under test misbehaves: broken bring-up, panics during management,
hypervisor disable races, and experiment misconfiguration.
"""

import pytest

from repro.core.campaign import Campaign
from repro.core.experiment import Experiment, ExperimentSpec, Scenario
from repro.core.faultmodels import SingleBitFlip
from repro.core.outcomes import Outcome
from repro.core.plan import TestPlan, paper_figure3_plan
from repro.core.sut import JailhouseSUT, SutConfig
from repro.core.targets import InjectionTarget
from repro.core.triggers import EveryNCalls
from repro.errors import CampaignError, PlanError
from repro.hypervisor.config import freertos_cell_config
from repro.hypervisor.hypercalls import Hypercall, ReturnCode


class BrokenBringUpSUT(JailhouseSUT):
    """A SUT whose non-root cell image points at an invalid entry point."""

    name = "broken-bringup"

    def __init__(self, config=None):
        super().__init__(config or SutConfig(seed=0,
                                             inmate_entry_offset=0x4000_0000))


class TestExperimentErrorPaths:
    def test_steady_state_aborts_if_the_golden_bringup_fails(self):
        spec = ExperimentSpec(
            name="broken", target=InjectionTarget.nonroot_cpu_trap(),
            trigger=EveryNCalls(100), fault_model=SingleBitFlip(),
            duration=2.0, seed=0,
        )
        experiment = Experiment(spec, sut_factory=lambda seed: BrokenBringUpSUT())
        with pytest.raises(CampaignError):
            experiment.run()

    def test_lifecycle_scenario_reports_the_broken_bringup_instead_of_raising(self):
        spec = ExperimentSpec(
            name="broken-lifecycle", target=InjectionTarget.nonroot_cpu_trap(),
            trigger=EveryNCalls(10_000), fault_model=SingleBitFlip(),
            scenario=Scenario.LIFECYCLE_UNDER_FAULT,
            duration=4.0, observe_time=4.0, warmup_time=0.5, seed=0,
        )
        result = Experiment(spec, sut_factory=lambda seed: BrokenBringUpSUT()).run()
        # No faults were injected; the inconsistency comes from the broken
        # image and must be detected as such.
        assert result.injections == 0
        assert result.outcome is Outcome.INCONSISTENT_STATE

    def test_campaign_rejects_an_empty_plan(self):
        with pytest.raises(CampaignError):
            Campaign(TestPlan(name="empty"))

    @pytest.mark.parametrize("field, value", [
        ("duration", 0.0), ("duration", float("nan")), ("seed", -1),
        ("settle_time", -1.0), ("warmup_time", float("inf")),
        ("observe_time", -5.0),
    ])
    def test_campaign_rejects_a_spec_that_cannot_give_a_verdict(self, field,
                                                                value):
        spec = ExperimentSpec(
            name="no-verdict", target=InjectionTarget.nonroot_cpu_trap(),
            trigger=EveryNCalls(100), fault_model=SingleBitFlip(),
            duration=2.0, seed=0,
        )
        setattr(spec, field, value)
        with pytest.raises(PlanError, match=field):
            Campaign(TestPlan(name="bad", specs=[spec]))


class TestHypervisorRobustnessUnderManagementRaces:
    def test_create_after_disable_fails_with_eio(self, booted_sut):
        hv = booted_sut.hypervisor
        assert booted_sut.destroy_inmate_cell()
        assert hv.issue_hypercall(0, int(Hypercall.DISABLE)).ok
        address = hv.stage_config(freertos_cell_config("Late"))
        outcome = hv.issue_hypercall(0, int(Hypercall.CELL_CREATE), address)
        assert outcome.code == int(ReturnCode.EIO)

    def test_management_after_panic_fails_without_crashing_the_framework(self, booted_sut):
        booted_sut.hypervisor.panic("injected")
        evidence_before = booted_sut.evidence(0.0, booted_sut.now)
        assert evidence_before.observation.panicked
        # The CLI path used by the scenarios keeps returning errors instead of
        # raising, so campaign loops can classify and move on.
        result = booted_sut.cli.cell_destroy("FreeRTOS")
        assert not result.success
        assert not booted_sut.destroy_inmate_cell()

    def test_repeated_lifecycle_survives_mid_test_panic(self):
        spec = ExperimentSpec(
            name="lifecycle-panic", target=InjectionTarget.trap_handler(cpus={0, 1}),
            trigger=EveryNCalls(5), fault_model=SingleBitFlip(),
            scenario=Scenario.REPEATED_LIFECYCLE,
            duration=15.0, observe_time=5.0, warmup_time=0.5,
            seed=321, intensity="high",
        )
        result = Experiment(spec).run()
        # Whatever happens, the experiment terminates with a classified
        # outcome and bookkeeping intact.
        assert isinstance(result.outcome, Outcome)
        assert result.extras["lifecycle_attempts"] >= 1


class TestSeedIndependenceOfThePlan:
    def test_two_campaigns_with_disjoint_seeds_do_not_share_outcomes_object(self):
        plan_a = paper_figure3_plan(num_tests=2, duration=3.0, base_seed=1)
        plan_b = paper_figure3_plan(num_tests=2, duration=3.0, base_seed=900)
        result_a = Campaign(plan_a).run()
        result_b = Campaign(plan_b).run()
        assert len(result_a) == len(result_b) == 2
        assert result_a.results is not result_b.results
