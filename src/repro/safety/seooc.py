"""Safety Element out of Context (SEooC) assessment.

ISO 26262 allows integrating a software element that was developed out of
context — such as an open-source hypervisor — if its *assumptions of use* can
be validated in the target item. The paper's thesis is that fault injection is
the right tool to produce that validation evidence for Jailhouse's isolation
assumptions. This module encodes the assumptions the paper's experiments
address and checks them against campaign metrics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

from repro.core.outcomes import Outcome
from repro.core.recording import ExperimentRecord
from repro.errors import SafetyAssessmentError
from repro.safety.asil import AsilLevel
from repro.safety.metrics import IsolationMetrics, compute_isolation_metrics


class AssumptionStatus(enum.Enum):
    """Verdict for one assumption of use."""

    VALIDATED = "validated"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


@dataclass
class Assumption:
    """One assumption of use with a quantitative acceptance criterion."""

    identifier: str
    statement: str
    criterion: str
    evaluate: Callable[[IsolationMetrics, Sequence[ExperimentRecord]], AssumptionStatus]


@dataclass(frozen=True)
class AssumptionVerdict:
    """Evaluation result for one assumption."""

    identifier: str
    statement: str
    criterion: str
    status: AssumptionStatus
    detail: str


def _needs_minimum_tests(records: Sequence[ExperimentRecord],
                         minimum: int = 20) -> bool:
    return len(records) >= minimum


def _containment_assumption(threshold: float):
    def evaluate(metrics: IsolationMetrics,
                 records: Sequence[ExperimentRecord]) -> AssumptionStatus:
        if not _needs_minimum_tests(records) or metrics.effective_tests < 5:
            return AssumptionStatus.INCONCLUSIVE
        return (AssumptionStatus.VALIDATED
                if metrics.containment.fraction >= threshold
                else AssumptionStatus.VIOLATED)

    return evaluate


def _no_silent_failures(metrics: IsolationMetrics,
                        records: Sequence[ExperimentRecord]) -> AssumptionStatus:
    if not _needs_minimum_tests(records):
        return AssumptionStatus.INCONCLUSIVE
    silent = sum(
        1 for record in records
        if record.outcome_enum in (Outcome.SILENT_FAILURE, Outcome.INCONSISTENT_STATE)
    )
    return AssumptionStatus.VALIDATED if silent == 0 else AssumptionStatus.VIOLATED


def _rejection_is_safe(metrics: IsolationMetrics,
                       records: Sequence[ExperimentRecord]) -> AssumptionStatus:
    attempts = [record for record in records if record.create_attempted]
    if len(attempts) < 5:
        return AssumptionStatus.INCONCLUSIVE
    # A rejected create must never leave a cell allocated: in the records this
    # shows up as a rejected create combined with a running-but-silent cell.
    wrongly_allocated = sum(
        1 for record in attempts
        if not record.create_succeeded
        and record.outcome_enum is Outcome.INCONSISTENT_STATE
    )
    return (AssumptionStatus.VALIDATED if wrongly_allocated == 0
            else AssumptionStatus.VIOLATED)


def _root_cell_survives(metrics: IsolationMetrics,
                        records: Sequence[ExperimentRecord]) -> AssumptionStatus:
    if not _needs_minimum_tests(records):
        return AssumptionStatus.INCONCLUSIVE
    return (AssumptionStatus.VALIDATED
            if metrics.system_availability.fraction >= 0.95
            else AssumptionStatus.VIOLATED)


def default_assumptions(*, containment_threshold: float = 0.99) -> List[Assumption]:
    """The assumptions of use addressed by the paper's experiments."""
    return [
        Assumption(
            identifier="AoU-1",
            statement=(
                "A fault activated inside a non-root cell does not affect the "
                "execution of the other cells (freedom from interference)."
            ),
            criterion=(
                f"containment rate >= {containment_threshold * 100:.0f}% over the "
                "effective tests of the campaign"
            ),
            evaluate=_containment_assumption(containment_threshold),
        ),
        Assumption(
            identifier="AoU-2",
            statement=(
                "Every hypervisor-detected fault is signalled explicitly; no "
                "cell is silently lost or left in a state that diverges from "
                "what the management interface reports."
            ),
            criterion="zero silent-failure or inconsistent-state outcomes",
            evaluate=_no_silent_failures,
        ),
        Assumption(
            identifier="AoU-3",
            statement=(
                "A cell-management request carrying corrupted arguments is "
                "rejected without allocating or starting the cell."
            ),
            criterion="no rejected create ever results in an allocated cell",
            evaluate=_rejection_is_safe,
        ),
        Assumption(
            identifier="AoU-4",
            statement=(
                "The safety-relevant root cell keeps running while faults are "
                "injected into the non-root cell."
            ),
            criterion="whole-system availability >= 95% of tests",
            evaluate=_root_cell_survives,
        ),
    ]


@dataclass
class SeoocAssessment:
    """Assessment of the hypervisor as a SEooC against campaign evidence."""

    element_name: str = "Jailhouse partitioning hypervisor"
    claimed_level: AsilLevel = AsilLevel.B
    assumptions: List[Assumption] = field(default_factory=default_assumptions)

    def assess(self, records: Sequence[ExperimentRecord]) -> List[AssumptionVerdict]:
        """Evaluate every assumption of use against the campaign records."""
        if not records:
            raise SafetyAssessmentError("cannot assess a SEooC without campaign records")
        metrics = compute_isolation_metrics(records)
        verdicts: List[AssumptionVerdict] = []
        for assumption in self.assumptions:
            status = assumption.evaluate(metrics, records)
            detail = self._detail_for(status, metrics)
            verdicts.append(
                AssumptionVerdict(
                    identifier=assumption.identifier,
                    statement=assumption.statement,
                    criterion=assumption.criterion,
                    status=status,
                    detail=detail,
                )
            )
        return verdicts

    @staticmethod
    def _detail_for(status: AssumptionStatus, metrics: IsolationMetrics) -> str:
        return (
            f"containment={metrics.containment.fraction * 100:.1f}% "
            f"detection={metrics.detection.fraction * 100:.1f}% "
            f"system availability={metrics.system_availability.fraction * 100:.1f}% "
            f"({status.value})"
        )

    def certification_ready(self, verdicts: Sequence[AssumptionVerdict]) -> bool:
        """Whether every assumption of use was validated."""
        return bool(verdicts) and all(
            verdict.status is AssumptionStatus.VALIDATED for verdict in verdicts
        )
