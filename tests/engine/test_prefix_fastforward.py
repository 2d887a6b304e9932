"""Prefix fast-forward: parity, families, snapshot lifetime, opt-outs.

The contract is absolute: a campaign whose prefix families fork from one
snapshot must be record-for-record identical to the per-spec cold reference
— forking may only change *when* the golden bring-up executes, never what
any experiment observes.
"""

import dataclasses
from collections import Counter

import pytest

from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig, PartRef, catalog_config
from repro.core.experiment import (
    Experiment,
    ExperimentSpec,
    Scenario,
    default_sut_factory,
)
from repro.core.faultmodels import SingleBitFlip
from repro.core.plan import paper_figure3_plan
from repro.core.policy import RunPolicy
from repro.core.sut import JailhouseSUT, SutConfig
from repro.core.targets import InjectionTarget
from repro.core.triggers import EveryNCalls, OneShotAtCall
from repro.engine import CampaignEngine
from repro.engine.scheduler import (
    build_work_queue,
    group_by_prefix,
    shard_families,
)
from repro.engine.workers import FamilyExecutor


def records_of(result):
    return [dataclasses.asdict(record) for record in result.to_records()]


def shared_prefix_config(*, tests: int = 2, variants: int = 3,
                         duration: float = 1.0,
                         settle: float = 2.0) -> CampaignConfig:
    """A grid whose fault-model axis fans each seed into a prefix family."""
    fault_models = [
        PartRef("single-bit-flip", tag="sbf"),
        PartRef("multi-register-bit-flip", {"count": 2}, tag="mr2"),
        PartRef("register-class-bit-flip", {"target_class": "sp"}, tag="sp"),
        PartRef("register-class-bit-flip", {"target_class": "pc"}, tag="pc"),
    ][:variants]
    return CampaignConfig(
        name="prefix-shared",
        targets=[PartRef("nonroot-trap")],
        triggers=[PartRef("every-n-calls", {"n": 60}, tag="t60")],
        fault_models=fault_models,
        scenarios=["steady-state"],
        tests=tests,
        duration=duration,
        settle_time=settle,
        intensity="medium",
    )


def fast_trigger_config(*, tests: int = 3,
                        duration: float = 2.0) -> CampaignConfig:
    """A steady-state family grid whose fast triggers fire in every member."""
    return CampaignConfig(
        name="fast-trigger-grid",
        targets=[PartRef("nonroot-trap"), PartRef("hvc+trap", {"cpus": [1]})],
        triggers=[PartRef("every-n-calls", {"n": 5}, tag="fast"),
                  PartRef("every-n-calls", {"n": 10}, tag="mid")],
        fault_models=[PartRef("single-bit-flip")],
        scenarios=["steady-state"],
        intensity="custom",
        tests=tests,
        duration=duration,
    )


def campaign_for(config: CampaignConfig) -> Campaign:
    return Campaign(config.compile(), sut_factory=config.sut_factory(),
                    classifier=config.build_classifier())


def reference_records(config: CampaignConfig, cold_reference) -> list:
    return records_of(cold_reference(config.compile(), config.sut_factory(),
                                     config.build_classifier()))


class TestPrefixKey:
    def spec(self, **overrides) -> ExperimentSpec:
        payload = dict(
            name="base",
            target=InjectionTarget.nonroot_cpu_trap(),
            trigger=EveryNCalls(100),
            fault_model=SingleBitFlip(),
            scenario=Scenario.STEADY_STATE,
            duration=10.0,
            seed=3,
        )
        payload.update(overrides)
        return ExperimentSpec(**payload)

    def test_injection_axes_do_not_split_families(self):
        base = self.spec()
        variants = [
            self.spec(name="other-name"),
            self.spec(trigger=EveryNCalls(7)),
            self.spec(trigger=OneShotAtCall(5)),
            self.spec(fault_model=SingleBitFlip(), intensity="high"),
            self.spec(target=InjectionTarget.hvc_and_trap(cpus=[0])),
            self.spec(duration=99.0),
        ]
        for variant in variants:
            assert variant.prefix_key() == base.prefix_key()

    def test_prefix_determinants_split_families(self):
        base = self.spec()
        assert self.spec(seed=4).prefix_key() != base.prefix_key()
        assert (self.spec(scenario=Scenario.PARK_AND_RECOVER).prefix_key()
                != base.prefix_key())
        assert self.spec(settle_time=2.5).prefix_key() != base.prefix_key()

    def test_lifecycle_prefix_ignores_settle_and_observe(self):
        # The lifecycle scenarios arm right after setup: their prefix is the
        # bare boot, so post-arm timing must not split the family.
        base = self.spec(scenario=Scenario.LIFECYCLE_UNDER_FAULT)
        same = self.spec(scenario=Scenario.LIFECYCLE_UNDER_FAULT,
                         settle_time=9.0, observe_time=5.0, warmup_time=0.5)
        assert base.prefix_key() == same.prefix_key()

    def test_both_lifecycle_scenarios_share_one_family(self):
        # Their prefixes are literally the same code path (bare setup), so
        # one boot snapshot serves both scenarios of a seed.
        lifecycle = self.spec(scenario=Scenario.LIFECYCLE_UNDER_FAULT)
        repeated = self.spec(scenario=Scenario.REPEATED_LIFECYCLE)
        assert lifecycle.prefix_key() == repeated.prefix_key()
        # Steady-state and park-and-recover validate their golden runs
        # differently, so they stay separate despite similar bring-ups.
        steady = self.spec(scenario=Scenario.STEADY_STATE)
        park = self.spec(scenario=Scenario.PARK_AND_RECOVER)
        assert steady.prefix_key() != park.prefix_key()

    def test_key_is_stable_across_processes(self):
        # A bare hash of attribute values, no id()/repr() leakage.
        assert self.spec().prefix_key() == self.spec().prefix_key()
        assert len(self.spec().prefix_key()) == 16


class TestSchedulerFamilies:
    def queue(self, config=None):
        config = config or shared_prefix_config(tests=2, variants=3)
        return build_work_queue(config.compile())

    def test_group_by_prefix_groups_seed_families(self):
        families = group_by_prefix(self.queue())
        assert [len(family) for family in families] == [3, 3]
        for family in families:
            seeds = {item.spec.seed for item in family.items}
            assert len(seeds) == 1

    def test_grouping_keeps_first_appearance_order(self):
        queue = self.queue()
        families = group_by_prefix(queue)
        first_indices = [family.items[0].index for family in families]
        assert first_indices == sorted(first_indices)

    def test_families_partition_the_queue(self):
        # The serial backend executes the flattened family list; it must be
        # a permutation of the queue (nothing lost, nothing duplicated).
        queue = self.queue()
        flattened = [item for family in group_by_prefix(queue)
                     for item in family.items]
        assert sorted(item.index for item in flattened) == [
            item.index for item in queue
        ]

    def test_shard_families_never_splits_a_family_by_default(self):
        families = group_by_prefix(self.queue())
        shards = shard_families(families)
        assert [len(shard) for shard in shards] == [3, 3]

    def test_min_shards_splits_large_families_to_feed_the_pool(self):
        # 2 families of 3 but 4 workers: the largest tasks are bisected so
        # no worker idles; every item survives exactly once.
        queue = self.queue()
        shards = shard_families(group_by_prefix(queue), min_shards=4)
        assert len(shards) == 4
        flattened = sorted(item.index for shard in shards
                           for item in shard.items)
        assert flattened == [item.index for item in queue]
        # Splitting stops when only singletons remain.
        tiny = shard_families(group_by_prefix(queue[:2]), min_shards=8)
        assert all(len(shard) == 1 for shard in tiny)


class TestPrefixCacheLru:
    """A family snapshot lives only while its family runs."""

    def test_singleton_families_are_not_snapshotted(self):
        # A snapshot nobody will fork from is pure overhead: a singleton
        # family runs as a plain Experiment.run(), while a larger family
        # captures one for its members and drops it when the family ends.
        config = shared_prefix_config(tests=1, variants=2)
        pair = build_work_queue(config.compile())
        single = build_work_queue(paper_figure3_plan(num_tests=1,
                                                     duration=1.0))
        executor = FamilyExecutor(default_sut_factory)
        captured = []
        for family, item in executor.steps(single + pair):
            index, result = executor.run_item(family, item)
            captured.append((result.prefix_cache_hit,
                             executor._shared is not None))
        assert captured == [(None, False), (False, True), (True, True)]
        assert executor._shared is None


class TestCatalogParity:
    """Record-for-record parity on every paper catalog entry."""

    @pytest.mark.parametrize("key", ["fig3", "high-root", "high-nonroot",
                                     "park-and-recover"])
    def test_catalog_entry_parity(self, key, cold_reference):
        plan = catalog_config(key, num_tests=2, duration=3.0).compile()
        engine = CampaignEngine(plan, jobs=1).run()
        assert records_of(engine) == records_of(cold_reference(plan))
        # Catalog entries use one seed per test: every family is a
        # singleton, which runs as a plain Experiment.run().
        assert engine.prefix_cache_stats() == {
            "hits": 0, "misses": 0, "uncached": 2
        }


class TestSharedPrefixParity:
    def test_families_fast_forward_with_identical_records(self,
                                                           cold_reference):
        plan = shared_prefix_config(tests=2, variants=4).compile()
        cached = CampaignEngine(plan, jobs=1).run()
        assert records_of(cached) == records_of(cold_reference(plan))
        assert cached.prefix_cache_stats() == {
            "hits": 6, "misses": 2, "uncached": 0
        }

    def test_parallel_and_pooled_combinations_match(self, cold_reference):
        # Interleaved families (the grid compiles combo-major): every
        # schedule still runs each family contiguously, one miss apiece.
        plan = shared_prefix_config(tests=3, variants=3).compile()
        reference = records_of(cold_reference(plan))
        for kwargs in (dict(jobs=1), dict(jobs=2)):
            variant = CampaignEngine(plan, **kwargs).run()
            assert records_of(variant) == reference, kwargs
            assert variant.prefix_cache_stats()["misses"] >= 3, kwargs

    def test_multi_scenario_grid_parity(self, cold_reference):
        # Mixed scenarios per seed: the steady-state family forks from the
        # post-settle snapshot, the lifecycle family from the bare post-boot
        # snapshot — both must replay bit-identically.
        config = shared_prefix_config(tests=2, variants=2)
        config.scenarios = ["steady-state", "lifecycle"]
        plan = config.compile()
        cached = CampaignEngine(plan, jobs=1).run()
        assert records_of(cached) == records_of(cold_reference(plan))
        # 2 seeds x 2 scenarios = 4 families of 2 variants each.
        assert cached.prefix_cache_stats() == {
            "hits": 4, "misses": 4, "uncached": 0
        }

    def test_cross_lifecycle_family_parity(self, cold_reference):
        # lifecycle and repeated-lifecycle share a prefix family: the
        # repeated-lifecycle variant forks from the snapshot the lifecycle
        # miss captured, and must replay bit-identically.
        config = shared_prefix_config(tests=2, variants=1, duration=2.0)
        config.scenarios = ["lifecycle", "repeated-lifecycle"]
        plan = config.compile()
        cached = CampaignEngine(plan, jobs=1).run()
        assert records_of(cached) == records_of(cold_reference(plan))
        # 2 seeds x 2 scenarios, one family per seed.
        assert cached.prefix_cache_stats() == {
            "hits": 2, "misses": 2, "uncached": 0
        }

    def test_baseline_sut_is_served_by_the_cache(self, cold_reference):
        # The baseline SUTs subclass JailhouseSUT, so they inherit the
        # snapshot/fork protocol and fast-forward like the real deployment.
        plan = shared_prefix_config(tests=1, variants=3).compile()
        cached = CampaignEngine(plan, jobs=1, sut_factory="bao-like").run()
        assert records_of(cached) == records_of(
            cold_reference(plan, "bao-like"))
        assert cached.prefix_cache_stats() == {
            "hits": 2, "misses": 1, "uncached": 0
        }

    def test_non_snapshot_sut_bypasses_the_cache(self, cold_reference):
        class NoSnapshotSut(JailhouseSUT):
            """No snapshot/fork protocol: every member runs cold."""

            snapshot = None
            fork_from_snapshot = None

        def factory(seed):
            return NoSnapshotSut(SutConfig(seed=seed))

        plan = shared_prefix_config(tests=1, variants=3).compile()
        result = CampaignEngine(plan, jobs=1, sut_factory=factory).run()
        assert records_of(result) == records_of(cold_reference(plan))
        assert result.prefix_cache_stats() == {
            "hits": 0, "misses": 0, "uncached": 3
        }

    def test_checkpoint_resume_composes_with_the_cache(self, tmp_path,
                                                       cold_reference):
        plan = shared_prefix_config(tests=2, variants=3).compile()
        path = str(tmp_path / "ckpt.jsonl")
        full = CampaignEngine(plan, jobs=2, checkpoint_path=path).run()
        assert records_of(full) == records_of(cold_reference(plan))
        resumed = CampaignEngine(plan, jobs=1, checkpoint_path=path,
                                 resume=True).run()
        assert records_of(full) == records_of(resumed)
        # Everything came from the checkpoint: nothing executed, so nothing
        # hit or missed the cache this session.
        assert resumed.prefix_cache_stats() == {
            "hits": 0, "misses": 0, "uncached": 6
        }


class TestFastTriggerGrid:
    """Members whose faults fire early still fork to cold-identical records."""

    def test_fast_trigger_grid_matches_cold_reference(self, cold_reference):
        config = fast_trigger_config()
        result = campaign_for(config).run(jobs=1)
        assert records_of(result) == reference_records(config,
                                                       cold_reference)
        assert all(r.injections > 0 for r in result.results)

    def test_pool_execution_matches_cold_reference(self, cold_reference):
        config = fast_trigger_config()
        pooled = campaign_for(config).run(jobs=2)
        assert records_of(pooled) == reference_records(config,
                                                       cold_reference)

    def test_supervised_execution_matches_cold_reference(self,
                                                          cold_reference):
        config = fast_trigger_config(tests=2)
        reference = reference_records(config, cold_reference)
        campaign = campaign_for(config)
        for jobs in (1, 2):
            supervised = campaign.run(
                jobs=jobs, policy=RunPolicy(timeout_s=300.0, retries=1))
            assert records_of(supervised) == reference, jobs

    def test_checkpoint_and_resume(self, tmp_path, cold_reference):
        checkpoint = str(tmp_path / "ckpt.jsonl")
        config = fast_trigger_config(tests=2)
        reference = reference_records(config, cold_reference)
        campaign = campaign_for(config)
        first = campaign.run(jobs=1, checkpoint_path=checkpoint)
        assert records_of(first) == reference
        resumed = campaign.run(jobs=1, checkpoint_path=checkpoint,
                               resume=True)
        assert records_of(resumed) == reference
        assert resumed.prefix_cache_stats()["uncached"] == len(resumed)

    def test_every_member_runs_the_suffix_once_and_forks(self, monkeypatch):
        # One execution path for every family member: the member that runs
        # the prefix and each fork pass through run_from_snapshot exactly
        # once, and a family of n members forks n - 1 times.
        suffixes = Counter()
        forks = Counter()
        run_from_snapshot = Experiment.run_from_snapshot
        fork_from_snapshot = JailhouseSUT.fork_from_snapshot

        def counting_suffix(self, sut, **kwargs):
            suffixes[self.spec.identity()] += 1
            return run_from_snapshot(self, sut, **kwargs)

        def counting_fork(self, snapshot):
            forks[self.config.seed] += 1
            return fork_from_snapshot(self, snapshot)

        monkeypatch.setattr(Experiment, "run_from_snapshot", counting_suffix)
        monkeypatch.setattr(JailhouseSUT, "fork_from_snapshot", counting_fork)
        config = fast_trigger_config(tests=2)
        plan = config.compile()
        families = group_by_prefix(build_work_queue(plan))
        assert [len(family) for family in families] == [4, 4]
        campaign_for(config).run(jobs=1)
        assert suffixes == Counter(spec.identity() for spec in plan)
        assert forks == Counter({family.items[0].spec.seed: len(family) - 1
                                 for family in families})


class TestOneSutPerFamily:
    """The first member of every prefix family builds a fresh SUT."""

    @pytest.mark.parametrize("plan, builds", [
        # One spec per seed: every family is a singleton.
        (paper_figure3_plan(num_tests=3, duration=1.0), 3),
        # Two seed families of four members each.
        (fast_trigger_config(tests=2, duration=1.0).compile(), 2),
    ], ids=["fig3", "fast-trigger-grid"])
    def test_a_serial_campaign_builds_one_sut_per_family(self, monkeypatch,
                                                         plan, builds):
        built = []
        init = JailhouseSUT.__init__

        def counting_init(self, config=None):
            built.append(config.seed)
            init(self, config)

        monkeypatch.setattr(JailhouseSUT, "__init__", counting_init)
        CampaignEngine(plan, jobs=1).run()
        families = group_by_prefix(build_work_queue(plan))
        assert len(families) == builds
        assert built == [family.items[0].spec.seed for family in families]
