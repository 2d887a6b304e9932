"""Deterministic sharding and work-queue ordering for campaign execution.

The paper's campaigns are thousands of *independent* one-minute tests (e.g.
hundreds of tests per target function and intensity level), so the execution
order carries no semantic weight — only the per-spec seed does. That makes the
plan trivially shardable: this module turns a :class:`~repro.core.plan.TestPlan`
into an ordered work queue of :class:`WorkItem`\\ s (plan position + spec),
groups it into prefix families and whole-family shards for the worker pool, and
keeps everything reproducible: the same plan always yields the same queue, the
same shards, and — because results are re-assembled by plan position — the
same :class:`~repro.core.campaign.CampaignResult` regardless of how many
workers ran it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.experiment import ExperimentSpec
from repro.core.plan import TestPlan
from repro.errors import CampaignError


@dataclass(frozen=True)
class WorkItem:
    """One schedulable unit: a spec plus its position in the plan.

    The position is what lets the engine stream results out of order (workers
    finish whenever they finish) and still hand back a campaign result whose
    ``results`` list matches sequential execution exactly.
    """

    index: int
    spec: ExperimentSpec


@dataclass(frozen=True)
class Shard:
    """A deterministic slice of the work queue assigned to one worker lane."""

    shard_index: int
    items: Sequence[WorkItem]

    def __len__(self) -> int:
        return len(self.items)


def build_work_queue(plan: TestPlan,
                     skip_indices: Set[int] = frozenset()) -> List[WorkItem]:
    """Turn a plan into the ordered queue of still-to-run work items.

    ``skip_indices`` holds plan positions whose records already exist in a
    checkpoint; they are simply left out of the queue, which is how resume
    avoids re-executing completed specs.
    """
    return [
        WorkItem(index=index, spec=spec)
        for index, spec in enumerate(plan)
        if index not in skip_indices
    ]


@dataclass(frozen=True)
class PrefixFamily:
    """All queued work items that share one pre-injection prefix.

    Every spec in a family executes the identical golden bring-up before the
    injector is armed (same :meth:`~repro.core.experiment.ExperimentSpec.
    prefix_key`), so a worker that owns the whole family pays that prefix
    exactly once and forks the fault variants from its snapshot.
    """

    key: str
    items: Tuple[WorkItem, ...]

    def __len__(self) -> int:
        return len(self.items)


def group_by_prefix(items: Sequence[WorkItem]) -> List[PrefixFamily]:
    """Group the queue into prefix families, in first-appearance order.

    Grouping is fully determined by the queue: families appear in the order
    their first member does, and members keep their relative queue order —
    no randomness, no timing, so repeated runs schedule identically.
    """
    buckets: Dict[str, List[WorkItem]] = {}
    order: List[str] = []
    for item in items:
        key = item.spec.prefix_key()
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = []
            order.append(key)
        bucket.append(item)
    return [PrefixFamily(key=key, items=tuple(buckets[key])) for key in order]


def shard_families(families: Sequence[PrefixFamily],
                   min_shards: int = 1) -> List[Shard]:
    """Turn pre-grouped prefix families into pool tasks, one per family.

    The pool hands tasks out in order over the family sequence, so one
    worker owns a family end to end and pays its prefix once.

    ``min_shards`` (the worker count) keeps the pool busy: fewer families
    than workers would silently idle the surplus workers, so the largest
    tasks are bisected until there are enough — a family slice re-pays the
    prefix once per worker that got a piece, which is still far cheaper than
    running a many-variant family serially.
    """
    tasks = [list(family.items) for family in families]
    while tasks and len(tasks) < min_shards:
        largest = max(range(len(tasks)), key=lambda index: len(tasks[index]))
        task = tasks[largest]
        if len(task) < 2:
            break                        # nothing left worth splitting
        middle = len(task) // 2
        tasks[largest:largest + 1] = [task[:middle], task[middle:]]
    return [Shard(shard_index=index, items=tuple(task))
            for index, task in enumerate(tasks)]


@dataclass(frozen=True)
class PlanShard:
    """One fleet lease unit: a deterministic slice of a plan.

    ``shard_id`` is a stable hash of the member spec identities, so the same
    plan sharded the same way yields the same ids on every host — the
    coordinator and a resumed coordinator agree on shard membership without
    exchanging anything beyond the campaign config. ``spec_ids`` are the
    members' :meth:`~repro.core.experiment.ExperimentSpec.identity` values in
    plan order (the wire format names specs by identity, never by position,
    so a worker compiling the config itself maps them back unambiguously).
    """

    shard_id: str
    spec_ids: Tuple[str, ...]
    spec_names: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.spec_ids)


def plan_shards(plan: TestPlan, *, shard_size: int,
                skip_identities: Set[str] = frozenset()) -> List[PlanShard]:
    """Split a plan into deterministic fleet shards of whole prefix families.

    The fleet's lease unit. Specs already completed (``skip_identities``,
    e.g. the identity stamps in a resumed coordinator's checkpoint) are left
    out, so a resume re-offers exactly the unfinished work. Shards are built
    from whole prefix families (:func:`group_by_prefix`) merged up to
    ``shard_size`` specs per shard, so a worker that owns a shard pays each
    pre-injection prefix once and its family executor forks the other
    members from its snapshot. Fully determined by the plan and
    ``shard_size`` — no randomness, no timing — so every host derives the
    same shards.
    """
    if shard_size <= 0:
        raise CampaignError(f"shard size must be positive, got {shard_size}")
    identities: Dict[int, str] = {}
    items: List[WorkItem] = []
    for index, spec in enumerate(plan):
        identity = spec.identity()
        if identity in skip_identities:
            continue
        identities[index] = identity
        items.append(WorkItem(index=index, spec=spec))
    families = group_by_prefix(items)
    shards: List[PlanShard] = []
    current: List[WorkItem] = []
    def close(members: List[WorkItem]) -> None:
        ids = tuple(identities[item.index] for item in members)
        names = tuple(item.spec.name for item in members)
        digest = hashlib.sha256("|".join(ids).encode("utf-8")).hexdigest()
        shards.append(PlanShard(shard_id=digest[:16], spec_ids=ids,
                                spec_names=names))
    for family in families:
        current.extend(family.items)
        if len(current) >= shard_size:
            close(current)
            current = []
    if current:
        close(current)
    return shards
