"""Parallel campaign execution engine.

The paper's methodology is thousands of independent fault-injection
experiments per campaign; this subsystem executes them at scale. It separates
*plan* from *execution* the way chaos-engineering harnesses do: a
:class:`~repro.core.plan.TestPlan` is turned into a deterministic work
queue of prefix families (:mod:`~repro.engine.scheduler`), executed by one
family executor — in process or across a *supervised* worker pool that
survives worker deaths, hangs, and poison specs
(:mod:`~repro.engine.workers`, :mod:`~repro.engine.supervisor`,
:mod:`~repro.engine.quarantine`), streamed to a crash-safe checkpoint that
makes runs resumable (:mod:`~repro.engine.checkpoint`), and aggregated live
(:mod:`~repro.engine.aggregate`). :class:`CampaignEngine`
(:mod:`~repro.engine.runner`) ties the pieces together; ``Campaign.run``
delegates here with ``jobs=1``, so the sequential API is just the smallest
configuration of the same engine.
"""

from repro.engine.aggregate import (
    AggregateSnapshot,
    EngineProgress,
    LiveAggregator,
)
from repro.engine.checkpoint import Checkpoint
from repro.engine.quarantine import QuarantineLog, default_quarantine_path
from repro.engine.runner import CampaignEngine
from repro.engine.scheduler import Shard, WorkItem, build_work_queue
from repro.engine.supervisor import RunPolicy, SupervisedPool
from repro.engine.workers import execute_pool, execute_serial, resolve_jobs

__all__ = [
    "AggregateSnapshot",
    "CampaignEngine",
    "Checkpoint",
    "EngineProgress",
    "LiveAggregator",
    "QuarantineLog",
    "RunPolicy",
    "Shard",
    "SupervisedPool",
    "WorkItem",
    "build_work_queue",
    "default_quarantine_path",
    "execute_pool",
    "execute_serial",
    "resolve_jobs",
]
