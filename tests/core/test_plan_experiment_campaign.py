"""Tests for test plans, single experiments, and campaign orchestration."""

import pytest

from repro.core.campaign import Campaign, CampaignResult
from repro.core.experiment import (
    Experiment,
    ExperimentSpec,
    PAPER_TEST_DURATION,
    Scenario,
    park_provoking_spec,
)
from repro.core.faultmodels import MultiRegisterBitFlip, SingleBitFlip
from repro.core.outcomes import Outcome
from repro.core.plan import (
    IntensityLevel,
    TestPlan,
    build_custom_plan,
    build_intensity_plan,
    paper_figure3_plan,
    paper_high_intensity_nonroot_plan,
    paper_high_intensity_root_plan,
)
from repro.core.targets import InjectionTarget
from repro.core.triggers import EveryNCalls, ProbabilisticTrigger
from repro.errors import CampaignError, ReproError


class TestIntensityLevels:
    def test_paper_intensity_parameters(self):
        # Medium: single register, once every 100 calls. High: multiple
        # registers, once every 50 calls.
        assert IntensityLevel.MEDIUM.call_interval == 100
        assert IntensityLevel.HIGH.call_interval == 50
        assert isinstance(IntensityLevel.MEDIUM.build_fault_model(), SingleBitFlip)
        assert isinstance(IntensityLevel.HIGH.build_fault_model(), MultiRegisterBitFlip)

    def test_triggers_match_the_interval(self):
        trigger = IntensityLevel.MEDIUM.build_trigger()
        assert isinstance(trigger, EveryNCalls)
        assert trigger.n == 100


class TestPlans:
    def test_intensity_plan_has_unique_seeded_specs(self):
        plan = build_intensity_plan(
            IntensityLevel.MEDIUM, InjectionTarget.nonroot_cpu_trap(),
            num_tests=10, duration=5.0, base_seed=100,
        )
        assert len(plan) == 10
        seeds = [spec.seed for spec in plan]
        assert seeds == list(range(100, 110))
        names = [spec.name for spec in plan]
        assert len(set(names)) == 10
        plan.validate()

    def test_plan_validation_rejects_empty_and_duplicates(self):
        with pytest.raises(CampaignError):
            build_intensity_plan(IntensityLevel.MEDIUM,
                                 InjectionTarget.trap_handler(), num_tests=0)
        plan = TestPlan(name="dup")
        spec = ExperimentSpec(
            name="same", target=InjectionTarget.trap_handler(),
            trigger=EveryNCalls(10), fault_model=SingleBitFlip(),
        )
        plan.add(spec)
        plan.add(spec)
        with pytest.raises(CampaignError):
            plan.validate()

    def test_paper_plans_have_the_right_shape(self):
        fig3 = paper_figure3_plan(num_tests=3)
        assert all(spec.duration == PAPER_TEST_DURATION for spec in fig3)
        assert all(spec.scenario is Scenario.STEADY_STATE for spec in fig3)
        assert all(spec.intensity == "medium" for spec in fig3)
        root = paper_high_intensity_root_plan(num_tests=2)
        assert all(spec.scenario is Scenario.REPEATED_LIFECYCLE for spec in root)
        nonroot = paper_high_intensity_nonroot_plan(num_tests=2)
        assert all(spec.scenario is Scenario.LIFECYCLE_UNDER_FAULT for spec in nonroot)
        assert all(spec.intensity == "high" for spec in nonroot)

    def test_custom_plan_builder(self):
        plan = build_custom_plan(
            "ablation", InjectionTarget.irqchip_handler(),
            trigger_factory=lambda: ProbabilisticTrigger(0.01),
            fault_model_factory=SingleBitFlip,
            num_tests=4, duration=2.0, intensity="ablation",
        )
        assert len(plan) == 4
        assert all(spec.intensity == "ablation" for spec in plan)

    def test_describe_summarizes_the_plan(self):
        plan = paper_figure3_plan(num_tests=8, duration=1.0)
        text = plan.describe()
        assert "8 experiments" in text
        assert "..." in text


class TestExperiment:
    def test_steady_state_without_faults_is_correct(self):
        spec = ExperimentSpec(
            name="golden-ish", target=InjectionTarget.nonroot_cpu_trap(),
            trigger=EveryNCalls(10_000_000), fault_model=SingleBitFlip(),
            duration=5.0, seed=7, intensity="medium",
        )
        result = Experiment(spec).run()
        assert result.outcome is Outcome.CORRECT
        assert result.injections == 0
        assert result.target_cell_lines > 0
        assert result.scenario == "steady_state"

    def test_aggressive_injection_produces_a_failure(self):
        spec = ExperimentSpec(
            name="aggressive", target=InjectionTarget.nonroot_cpu_trap(),
            trigger=EveryNCalls(2), fault_model=MultiRegisterBitFlip(count=6),
            duration=20.0, seed=11, intensity="high",
        )
        result = Experiment(spec).run()
        assert result.outcome.is_failure
        assert result.injections > 0
        assert result.register_class_counts

    def test_results_are_reproducible_for_the_same_seed(self):
        def run(seed: int):
            spec = ExperimentSpec(
                name="repro", target=InjectionTarget.nonroot_cpu_trap(),
                trigger=EveryNCalls(50), fault_model=SingleBitFlip(),
                duration=10.0, seed=seed, intensity="medium",
            )
            result = Experiment(spec).run()
            return result.outcome, result.injections

        assert run(123) == run(123)

    def test_park_and_recover_scenario_reports_isolation(self):
        result = Experiment(park_provoking_spec(seed=5, duration=30.0)).run()
        assert result.scenario == "park_and_recover"
        assert "isolation_preserved" in result.extras
        if result.outcome is Outcome.CPU_PARK:
            assert result.extras["park_observed"]
            assert result.extras["destroy_returned_resources"]

    def test_lifecycle_under_fault_reports_management_evidence(self):
        spec = ExperimentSpec(
            name="lifecycle", target=InjectionTarget.hvc_and_trap(cpus={1}),
            trigger=EveryNCalls(50), fault_model=MultiRegisterBitFlip(count=4),
            scenario=Scenario.LIFECYCLE_UNDER_FAULT,
            duration=10.0, observe_time=5.0, seed=2024, intensity="high",
        )
        result = Experiment(spec).run()
        assert result.management is not None
        assert result.management.create_attempted
        assert "create_succeeded" in result.extras


class TestCampaign:
    def small_plan(self, n: int = 3) -> TestPlan:
        return paper_figure3_plan(num_tests=n, duration=5.0, base_seed=50)

    def test_campaign_runs_every_spec(self):
        result = Campaign(self.small_plan()).run()
        assert len(result) == 3
        assert sum(result.outcome_counts().values()) == 3
        assert 0.0 <= result.failure_rate() <= 1.0

    def test_outcome_distribution_sums_to_one(self):
        result = Campaign(self.small_plan()).run()
        assert sum(result.outcome_distribution().values()) == pytest.approx(1.0)

    def test_progress_callback_is_invoked(self):
        seen = []
        Campaign(self.small_plan()).run(
            progress=lambda done, total, res: seen.append((done, total))
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_golden_run_reports_handler_calls_and_is_correct(self):
        campaign = Campaign(self.small_plan(1))
        golden = campaign.golden_run(duration=5.0)
        assert golden.healthy
        assert golden.handler_calls["arch_handle_trap"] > 0
        assert golden.handler_calls["irqchip_handle_irq"] > 0
        assert golden.target_cell_lines > 0

    def test_golden_run_refuses_a_run_without_a_verdict(self):
        campaign = Campaign(self.small_plan(1))
        built = []
        campaign.sut_factory = built.append
        with pytest.raises(ReproError, match="duration"):
            campaign.golden_run(duration=0)
        with pytest.raises(ReproError, match="seed"):
            campaign.golden_run(duration=1.0, seed=-1)
        assert built == []          # refused before any SUT was built

    def test_campaign_result_filters_and_records(self):
        result = Campaign(self.small_plan()).run()
        for outcome in Outcome:
            for entry in result.results_with_outcome(outcome):
                assert entry.outcome is outcome
        records = result.to_records()
        assert len(records) == 3
        assert records[0].spec_name.startswith("fig3-medium")

    def test_campaign_save_and_reload(self, tmp_path):
        result = Campaign(self.small_plan()).run()
        path = tmp_path / "campaign.jsonl"
        count = result.save(str(path))
        assert count == 3
        from repro.core.recording import RecordStore
        assert len(RecordStore(path).load()) == 3
