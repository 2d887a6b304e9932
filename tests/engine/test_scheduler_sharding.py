"""Tests for deterministic sharding and work-queue construction."""

import dataclasses

import pytest

from repro.core.plan import TestPlan, paper_figure3_plan
from repro.engine.scheduler import (
    build_work_queue,
    group_by_prefix,
    shard_families,
)


@pytest.fixture
def plan():
    return paper_figure3_plan(num_tests=10, duration=2.0)


class TestWorkQueue:
    def test_queue_preserves_plan_order_and_indices(self, plan):
        queue = build_work_queue(plan)
        assert [item.index for item in queue] == list(range(10))
        assert [item.spec.name for item in queue] == [s.name for s in plan]

    def test_skip_indices_are_left_out(self, plan):
        queue = build_work_queue(plan, skip_indices={0, 3, 9})
        assert [item.index for item in queue] == [1, 2, 4, 5, 6, 7, 8]


class TestPoolSharding:
    """The pool's tasks: whole prefix families, in queue order."""

    def test_pool_sharding_is_deterministic(self, plan):
        families = group_by_prefix(build_work_queue(plan))
        assert shard_families(families, min_shards=3) == \
            shard_families(families, min_shards=3)

    def test_empty_queue_yields_no_shards(self):
        assert shard_families([], min_shards=4) == []


def _one_family_plan(variants: int) -> TestPlan:
    """A plan whose specs all share one pre-injection prefix (same seed)."""
    base = paper_figure3_plan(num_tests=1, duration=2.0).specs[0]
    plan = TestPlan(name="one-family")
    for index in range(variants):
        plan.add(dataclasses.replace(base, name=f"variant-{index:04d}"))
    return plan


class TestFamilySharding:
    def test_empty_campaign_yields_no_shards(self):
        assert group_by_prefix([]) == []
        assert shard_families([]) == []
        assert shard_families([], min_shards=8) == []

    def test_single_family_larger_than_chunk_stays_whole(self):
        queue = build_work_queue(_one_family_plan(6))
        families = group_by_prefix(queue)
        assert len(families) == 1
        # A family is one task: a split slice would re-pay the family's
        # prefix. Only min_shards splits one.
        shards = shard_families(families, min_shards=1)
        assert len(shards) == 1
        assert [item.index for item in shards[0].items] == list(range(6))

    def test_min_shards_bisects_when_families_are_scarce(self):
        queue = build_work_queue(_one_family_plan(8))
        families = group_by_prefix(queue)
        shards = shard_families(families, min_shards=4)
        # One 8-variant family, four workers: bisected into four slices so
        # nobody idles; each slice keeps queue order and covers everything.
        assert len(shards) == 4
        assert [len(shard) for shard in shards] == [2, 2, 2, 2]
        covered = sorted(item.index for shard in shards
                         for item in shard.items)
        assert covered == list(range(8))
        for shard in shards:
            indices = [item.index for item in shard.items]
            assert indices == sorted(indices)

    def test_min_shards_stops_at_singleton_tasks(self):
        plan = paper_figure3_plan(num_tests=2, duration=2.0)
        families = group_by_prefix(build_work_queue(plan))
        # Two singleton families cannot be split further than two shards, no
        # matter how many workers are waiting.
        shards = shard_families(families, min_shards=8)
        assert len(shards) == 2
