"""The campaign execution engine.

:class:`CampaignEngine` is the parallel, resumable counterpart of the
sequential loop that used to live in ``Campaign.run`` (which now delegates
here). It composes the other engine modules:

* :mod:`repro.engine.scheduler` orders the plan into a deterministic work
  queue and shards it into whole prefix families for the pool;
* :mod:`repro.engine.workers` runs the queue through one family executor —
  in-process for ``jobs=1``, in every supervised pool worker otherwise —
  whose records are identical to running each spec on a fresh system under
  test;
* :mod:`repro.engine.checkpoint` streams completed records to an append-only
  file and, on resume, skips specs whose records already exist;
* :mod:`repro.engine.aggregate` folds results into rolling statistics
  surfaced through the progress callback.

With a :class:`~repro.obs.telemetry.Telemetry` bus attached the same result
loop also emits structured events (campaign start/end, one
``experiment_complete`` per result with its timing split and worker id,
checkpoint flushes) — the seam is identical to the progress callback, so
instrumentation rides on the parent process's existing per-result work and a
disabled bus costs one attribute check per result.

At the paper's campaign sizes (hundreds of one-minute tests per target
function / register class / injection rate, several campaigns per table) the
sequential loop is the bottleneck; the engine makes a campaign scale with the
machine while keeping results reproducible experiment-for-experiment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs is optional)
    from repro.obs.telemetry import Telemetry

from repro.core.campaign import CampaignResult
from repro.core.experiment import (
    ExperimentResult,
    SutFactory,
    default_sut_factory,
)
from repro.core.outcomes import OutcomeClassifier
from repro.core.plan import TestPlan
from repro.core.policy import RunPolicy
from repro.core.registry import resolve_sut_factory
from repro.engine.aggregate import EngineProgress, LiveAggregator
from repro.engine.checkpoint import Checkpoint
from repro.engine.quarantine import QuarantineLog, default_quarantine_path
from repro.engine.scheduler import build_work_queue
from repro.engine.workers import execute_pool, execute_serial, resolve_jobs
from repro.errors import CampaignError
from repro.rng import seeded_rng


class CampaignEngine:
    """Executes a test plan across workers, supervised under one
    :class:`~repro.core.policy.RunPolicy`, with checkpoint/resume."""

    def __init__(self, plan: TestPlan, *,
                 jobs: int = 1,
                 sut_factory: "SutFactory | str" = default_sut_factory,
                 classifier: Optional[OutcomeClassifier] = None,
                 checkpoint_path: Optional[str] = None,
                 resume: bool = False,
                 progress: Optional[EngineProgress] = None,
                 telemetry: "Telemetry | None" = None,
                 policy: RunPolicy = RunPolicy()) -> None:
        plan.validate()
        if resume and checkpoint_path is None:
            raise CampaignError("resume requires a checkpoint path")
        self.plan = plan
        self.jobs = resolve_jobs(jobs)
        # A registry key (e.g. "bao-like") becomes a factory that pickles by
        # value and re-resolves inside spawn-started worker processes.
        self.sut_factory = resolve_sut_factory(sut_factory)
        self.classifier = classifier or OutcomeClassifier()
        self.checkpoint = (
            Checkpoint(checkpoint_path) if checkpoint_path is not None else None
        )
        self.resume = resume
        #: Fault-tolerance policy: hung experiments are killed after
        #: ``timeout_s``, failing specs retry ``retries`` times with
        #: exponential backoff, and persistent offenders are quarantined with
        #: a synthesized infrastructure result so the campaign completes.
        self.policy = policy
        #: Sidecar log of quarantined specs (``<checkpoint>.quarantine``),
        #: kept exactly when a checkpoint is. Quarantined specs are never
        #: checkpointed as complete, so ``--resume`` re-offers them; the log
        #: is the durable list of what needs attention, pruned of re-offered
        #: entries on resume.
        self.quarantine: Optional[QuarantineLog] = (
            QuarantineLog(default_quarantine_path(checkpoint_path))
            if checkpoint_path is not None else None
        )
        #: Supervision event counts from the last :meth:`run`
        #: (``worker_crash``/``worker_respawn``/``experiment_retry``/
        #: ``experiment_timeout``/``spec_quarantined``) — front-ends surface
        #: these in their end-of-run summaries.
        self.infra_counts: dict = {}
        #: How many quarantine entries the last resume dropped for re-offer.
        self.reoffered = 0
        self.progress = progress
        #: Optional :class:`~repro.obs.telemetry.Telemetry` bus. ``None`` (or
        #: an inactive bus) keeps the result loop exactly as fast as before —
        #: every emit site is guarded by one truthiness check.
        self.telemetry = telemetry if (telemetry is not None
                                       and telemetry.active) else None

    def run(self) -> CampaignResult:
        """Execute the plan and return results in plan order.

        Completion order is whatever the pool produces; results are slotted
        back by plan position, so the returned ``CampaignResult`` is
        indistinguishable from a sequential run over the same seeds.

        Without numpy it raises :class:`~repro.errors.DependencyError`
        before touching the checkpoint: inside an experiment the failure
        would only quarantine every spec as ``infra_crash``.
        """
        seeded_rng(0)              # fail on a missing numpy before any spec
        total = len(self.plan)
        slots: List[Optional[ExperimentResult]] = [None] * total
        aggregator = LiveAggregator(total)
        telemetry = self.telemetry
        if telemetry:
            telemetry.emit(
                "campaign_start",
                plan=self.plan.name,
                total=total,
                jobs=self.jobs,
                resume=self.resume,
                checkpoint=(str(self.checkpoint.path)
                            if self.checkpoint is not None else None),
            )

        skip = set()
        if self.checkpoint is not None:
            if self.resume:
                self.checkpoint.load()
                self.checkpoint.prune_stale(self.plan)
                skip = self.checkpoint.completed_indices(self.plan)
            else:
                # A fresh run must not inherit stale records at the same path.
                self.checkpoint.clear()
        self.infra_counts = {}
        self.reoffered = 0
        if self.resume and self.quarantine is not None:
            # Quarantined specs were never checkpointed, so the queue below
            # re-offers them automatically; dropping their entries keeps the
            # quarantine log a list of *currently* poisonous specs.
            self.reoffered = self.quarantine.reoffer(self.plan)

        for index, spec in enumerate(self.plan):
            if index not in skip:
                continue
            restored = self.checkpoint.result_for(spec)  # type: ignore[union-attr]
            slots[index] = restored
            if restored is not None:
                snapshot = aggregator.restore(restored)
                if telemetry:
                    telemetry.emit("experiment_restored",
                                   spec=restored.spec_name,
                                   index=index,
                                   outcome=restored.outcome.value)
                if self.progress is not None:
                    self.progress(snapshot, restored)

        queue = build_work_queue(self.plan, skip_indices=skip)
        specs_by_index = {item.index: item.spec for item in queue}

        def on_event(kind: str, **payload) -> None:
            # Supervision events surface here, in the parent: counted for the
            # end-of-run summary, appended to the quarantine log, and put on
            # the telemetry bus for the watch dashboard.
            self.infra_counts[kind] = self.infra_counts.get(kind, 0) + 1
            if kind == "spec_quarantined" and self.quarantine is not None:
                self.quarantine.append(
                    spec=payload.get("spec", ""),
                    spec_id=payload.get("spec_id", ""),
                    seed=payload.get("seed", 0),
                    scenario=payload.get("scenario", ""),
                    attempts=payload.get("attempts", 0),
                    reason=payload.get("reason", ""),
                    error=payload.get("error", ""),
                )
            if telemetry:
                telemetry.emit(kind, **payload)

        if self.jobs == 1:
            stream = execute_serial(queue, self.sut_factory, self.classifier,
                                    policy=self.policy, on_event=on_event)
        else:
            stream = execute_pool(queue, self.jobs, self.sut_factory,
                                  self.classifier, policy=self.policy,
                                  on_event=on_event)

        for index, result in stream:
            slots[index] = result
            # Quarantined specs are deliberately NOT committed: their
            # synthesized infra results fill the campaign, but a resume
            # must re-offer the spec, not restore a non-answer.
            if (self.checkpoint is not None
                    and not result.outcome.is_infrastructure):
                self.checkpoint.commit(specs_by_index[index], result)
                if telemetry:
                    telemetry.emit("checkpoint_flush",
                                   path=str(self.checkpoint.path),
                                   records=len(self.checkpoint))
            snapshot = aggregator.update(result)
            if telemetry:
                telemetry.emit(
                    "experiment_complete",
                    spec=result.spec_name,
                    index=index,
                    outcome=result.outcome.value,
                    wall_s=result.wall_time,
                    prefix_wall_s=result.prefix_wall_time,
                    worker=result.worker_id,
                    prefix_cache_hit=result.prefix_cache_hit,
                    injections=result.injections,
                    completed=snapshot.completed,
                    queue_depth=total - snapshot.completed,
                    throughput_per_s=snapshot.throughput,
                )
            if self.progress is not None:
                self.progress(snapshot, result)

        if telemetry:
            final = aggregator.snapshot()
            telemetry.emit(
                "campaign_end",
                plan=self.plan.name,
                completed=final.completed,
                resumed=final.resumed,
                elapsed_s=final.elapsed,
                failures=final.failures,
                outcome_counts=final.outcome_counts,
                prefix_hits=final.prefix_hits,
                prefix_misses=final.prefix_misses,
            )

        missing = [index for index, slot in enumerate(slots) if slot is None]
        if missing:
            raise CampaignError(
                f"campaign {self.plan.name!r} finished with "
                f"{len(missing)} unexecuted experiments (first: {missing[:5]})"
            )
        return CampaignResult(plan_name=self.plan.name,
                              results=[slot for slot in slots if slot is not None])
