"""Campaign-level parity of snapshot/reset pooling.

The engine always pools: each process keeps one system under test and
retargets it between experiments. A pooled campaign must be record-for-record
identical to the per-spec cold reference — outcomes, injections, rationales,
availability counts, everything the record schema captures.
"""

import dataclasses

from repro.core.experiment import ExperimentSpec, Scenario, SingleBitFlip
from repro.core.plan import TestPlan, paper_figure3_plan
from repro.core.targets import InjectionTarget
from repro.core.triggers import EveryNCalls
from repro.engine import CampaignEngine
from repro.engine.workers import PooledSutFactory


def records_of(result):
    return [dataclasses.asdict(record) for record in result.to_records()]


class TestCampaignPoolingParity:
    def test_pooled_campaign_matches_cold_boot_sequential(self,
                                                           cold_reference):
        plan = paper_figure3_plan(num_tests=4, duration=3.0)
        pooled = CampaignEngine(plan, jobs=1).run()
        assert records_of(pooled) == records_of(cold_reference(plan))

    def test_cold_boot_opt_out_spec_is_honoured(self, cold_reference):
        specs = []
        for seed in range(3):
            specs.append(ExperimentSpec(
                name=f"optout-{seed}",
                target=InjectionTarget.nonroot_cpu_trap(),
                trigger=EveryNCalls(80),
                fault_model=SingleBitFlip(),
                scenario=Scenario.STEADY_STATE,
                duration=3.0,
                seed=seed,
                cold_boot=(seed == 1),      # middle spec opts out of pooling
            ))
        plan = TestPlan(name="optout", specs=specs)
        pooled = CampaignEngine(plan, jobs=1).run()
        assert records_of(pooled) == records_of(cold_reference(plan))

    def test_pooled_factory_falls_back_for_non_pooling_suts(self):
        built = []

        class PlainSut:
            """No snapshot-pooling protocol: must cold-build every time."""

            def __init__(self, seed):
                self.seed = seed

        def base_factory(seed):
            sut = PlainSut(seed)
            built.append(sut)
            return sut

        factory = PooledSutFactory(base_factory)
        first = factory(1)
        second = factory(1)
        assert first is not second
        assert len(built) == 2


class TestPooledParallelParity:
    def test_pooled_pool_matches_sequential(self, cold_reference):
        """Each worker pools independently; results still match plan order."""
        plan = paper_figure3_plan(num_tests=4, duration=2.0)
        parallel_pooled = CampaignEngine(plan, jobs=2).run()
        assert records_of(parallel_pooled) == records_of(cold_reference(plan))
