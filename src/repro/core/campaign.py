"""Campaign orchestration.

A campaign executes a :class:`~repro.core.plan.TestPlan` end to end: it runs
the optional golden (fault-free) run used by the paper to profile injection
points and establish the reference behaviour, executes every experiment
against a fresh system under test, and aggregates per-outcome statistics into
a :class:`CampaignResult` the benchmarks and the SEooC assessment layer
consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.experiment import (
    Experiment,
    ExperimentResult,
    ExperimentSpec,
    SutFactory,
    default_sut_factory,
)
from repro.core.outcomes import Outcome, OutcomeClassifier
from repro.core.plan import TestPlan, verdict_problem
from repro.core.policy import RunPolicy
from repro.core.recording import ExperimentRecord, RecordStore
from repro.core.registry import resolve_sut_factory
from repro.errors import CampaignError


@dataclass
class GoldenRunReport:
    """Reference (fault-free) behaviour of the system under test."""

    duration: float
    handler_calls: Dict[str, int]
    target_cell_lines: int
    root_cell_lines: int
    outcome: Outcome

    @property
    def healthy(self) -> bool:
        return self.outcome is Outcome.CORRECT


@dataclass
class CampaignResult:
    """Aggregated results of one campaign."""

    plan_name: str
    results: List[ExperimentResult] = field(default_factory=list)
    golden: Optional[GoldenRunReport] = None

    # -- aggregation ----------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.results)

    def outcome_counts(self) -> Dict[Outcome, int]:
        counts: Dict[Outcome, int] = {outcome: 0 for outcome in Outcome}
        for result in self.results:
            counts[result.outcome] += 1
        return counts

    def outcome_distribution(self) -> Dict[Outcome, float]:
        total = len(self.results)
        if total == 0:
            return {outcome: 0.0 for outcome in Outcome}
        counts = self.outcome_counts()
        return {outcome: counts[outcome] / total for outcome in Outcome}

    def failure_rate(self) -> float:
        if not self.results:
            return 0.0
        return sum(1 for result in self.results if result.failed) / len(self.results)

    def total_injections(self) -> int:
        return sum(result.injections for result in self.results)

    def quarantined(self) -> List[ExperimentResult]:
        """Results synthesized for quarantined specs (no SUT verdict).

        Non-empty only when the supervision layer gave up on a spec that
        crashed or hung through every retry; the paper's outcome statistics
        should usually be computed without them (they carry no simulation
        evidence).
        """
        return [result for result in self.results
                if result.outcome.is_infrastructure]

    def results_with_outcome(self, outcome: Outcome) -> List[ExperimentResult]:
        return [result for result in self.results if result.outcome is outcome]

    def prefix_cache_stats(self) -> Dict[str, int]:
        """Prefix fast-forward effectiveness of this campaign.

        ``hits`` forked from their family's pre-injection snapshot,
        ``misses`` executed (and snapshotted) their family's prefix,
        ``uncached`` ran without one (singleton families, resumed records,
        SUTs without snapshot support).
        Execution bookkeeping, not part of the persisted records.
        """
        hits = sum(1 for result in self.results
                   if result.prefix_cache_hit is True)
        misses = sum(1 for result in self.results
                     if result.prefix_cache_hit is False)
        return {
            "hits": hits,
            "misses": misses,
            "uncached": len(self.results) - hits - misses,
        }

    def to_records(self) -> List[ExperimentRecord]:
        return [ExperimentRecord.from_result(result) for result in self.results]

    def save(self, path: str) -> int:
        return RecordStore(path).write_all(self.to_records())


ProgressCallback = Callable[[int, int, ExperimentResult], None]


class Campaign:
    """Runs a test plan and aggregates its results."""

    def __init__(self, plan: TestPlan,
                 sut_factory: "SutFactory | str" = default_sut_factory,
                 classifier: Optional[OutcomeClassifier] = None) -> None:
        plan.validate()
        self.plan = plan
        # Accepts a registry key ("jailhouse", "bao-like", ...) as well as a
        # factory callable; keys resolve to picklable factories.
        self.sut_factory = resolve_sut_factory(sut_factory)
        self.classifier = classifier or OutcomeClassifier()

    # -- golden run --------------------------------------------------------------------------

    def golden_run(self, *, duration: float = 10.0, seed: int = 999_983) -> GoldenRunReport:
        """Run the system fault-free and report its reference behaviour.

        This mirrors the paper's profiling of "golden (fault-free) runs of the
        hypervisor in order to find preliminary fault injection points": the
        report includes the per-handler call counts observed without faults.
        A duration or seed that can never give a verdict raises
        :class:`~repro.errors.CampaignError` before anything runs.
        """
        problem = verdict_problem(duration, seed)
        if problem is not None:
            raise CampaignError(f"golden run {problem}")
        sut = self.sut_factory(seed)
        try:
            sut.setup()
            management = sut.perform_cell_lifecycle()
            if not management.start_succeeded:
                raise CampaignError("golden run failed to start the non-root cell")
            window_start = sut.now
            sut.run(duration)
            window_end = sut.now
            evidence = sut.evidence(window_start, window_end)
            classified = self.classifier.classify(evidence)
            handler_calls: Dict[str, int] = {}
            handlers = getattr(sut, "hypervisor", None)
            if handlers is not None:
                handler_calls = {
                    name: stats.calls
                    for name, stats in sut.hypervisor.handlers.stats.items()  # type: ignore[attr-defined]
                }
            target_report = evidence.availability.get(evidence.target_cell or "")
            root_report = evidence.availability.get(evidence.root_cell or "")
            return GoldenRunReport(
                duration=duration,
                handler_calls=handler_calls,
                target_cell_lines=target_report.lines if target_report else 0,
                root_cell_lines=root_report.lines if root_report else 0,
                outcome=classified.outcome,
            )
        finally:
            sut.teardown()

    # -- execution ------------------------------------------------------------------------------

    def run(self, *, golden: bool = False,
            progress: Optional[ProgressCallback] = None,
            jobs: int = 1,
            checkpoint_path: Optional[str] = None,
            resume: bool = False,
            telemetry=None,
            policy: RunPolicy = RunPolicy()) -> CampaignResult:
        """Execute every experiment in the plan.

        Execution is delegated to the :class:`~repro.engine.runner.
        CampaignEngine`; the default ``jobs=1`` runs in-process, while
        ``jobs=N`` (or ``jobs=0`` for one worker per CPU) fans the plan out
        across a process pool. ``checkpoint_path`` streams completed records
        to an append-only file; with ``resume=True`` specs whose records
        already exist there are restored instead of re-executed. However it
        runs, each prefix family builds one fresh system under test and runs
        its pre-injection prefix once, forking the other members from its
        snapshot — with records identical to running each spec on a fresh
        system under test.
        ``telemetry`` attaches a :class:`~repro.obs.telemetry.Telemetry` bus
        for live observability (structured events + the ``watch``
        dashboard). Execution is always
        supervised under ``policy`` (:class:`~repro.core.policy.RunPolicy`;
        by default one retry, then quarantine): a spec that raises, hangs
        past ``timeout_s`` or kills its worker ends as an ``infra_*`` result
        instead of aborting the campaign, and with a checkpoint it is logged
        to ``<checkpoint>.quarantine`` for ``resume`` to re-offer.
        """
        # Imported here: the engine returns this module's CampaignResult, so a
        # top-level import would be circular.
        from repro.engine.runner import CampaignEngine

        engine_progress = None
        if progress is not None:
            engine_progress = (
                lambda snapshot, result:
                    progress(snapshot.completed, snapshot.total, result)
            )
        engine = CampaignEngine(
            self.plan,
            jobs=jobs,
            sut_factory=self.sut_factory,
            classifier=self.classifier,
            checkpoint_path=checkpoint_path,
            resume=resume,
            progress=engine_progress,
            telemetry=telemetry,
            policy=policy,
        )
        campaign_result = engine.run()
        if golden:
            campaign_result.golden = self.golden_run()
        return campaign_result

    def run_single(self, spec: ExperimentSpec) -> ExperimentResult:
        """Execute one spec (used by tests and notebooks)."""
        return Experiment(
            spec, sut_factory=self.sut_factory, classifier=self.classifier
        ).run()
