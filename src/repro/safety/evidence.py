"""Certification-evidence report generation.

Combines the failure-mode table, the isolation metrics, and the SEooC
assumption verdicts into a single textual report — the artifact the paper
argues an integrator would need in order to "picture the right direction for
the hypervisor towards a potential certification process".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Optional

from repro.core.recording import ExperimentRecord
from repro.errors import SafetyAssessmentError
from repro.safety.failure_modes import FmeaEntry, fmea_table, format_fmea
from repro.safety.metrics import IsolationMetrics, compute_isolation_metrics
from repro.safety.seooc import AssumptionVerdict, SeoocAssessment


@dataclass
class EvidenceReport:
    """Structured certification evidence for one campaign (or several)."""

    element_name: str
    campaign_names: List[str]
    total_tests: int
    metrics: IsolationMetrics
    fmea: List[FmeaEntry]
    verdicts: List[AssumptionVerdict]
    certification_ready: bool
    remarks: List[str] = field(default_factory=list)

    def render(self) -> str:
        """Render the report as plain text."""
        lines = [
            f"SEooC assessment evidence — {self.element_name}",
            "=" * 60,
            f"campaigns: {', '.join(self.campaign_names) or '(unnamed)'}",
            f"fault-injection tests considered: {self.total_tests}",
            "",
            "Isolation metrics",
            "-----------------",
            self.metrics.describe(),
            "",
            "Failure-mode analysis",
            "---------------------",
            format_fmea(self.fmea),
            "",
            "Assumptions of use",
            "------------------",
        ]
        for verdict in self.verdicts:
            lines.append(f"[{verdict.status.value.upper():^12}] {verdict.identifier}: "
                         f"{verdict.statement}")
            lines.append(f"              criterion: {verdict.criterion}")
            lines.append(f"              evidence : {verdict.detail}")
        lines.append("")
        conclusion = (
            "All assumptions of use validated: the element can proceed to "
            "integration-level safety activities."
            if self.certification_ready else
            "At least one assumption of use is violated or inconclusive: the "
            "element is NOT ready to be integrated as a SEooC without "
            "corrective action."
        )
        lines.append("Conclusion")
        lines.append("----------")
        lines.append(conclusion)
        for remark in self.remarks:
            lines.append(f"note: {remark}")
        return "\n".join(lines)


def build_evidence_report(
    records_by_campaign: Mapping[str, Iterable[ExperimentRecord]],
    *,
    assessment: Optional[SeoocAssessment] = None,
    remarks: Optional[List[str]] = None,
) -> EvidenceReport:
    """Build an :class:`EvidenceReport` from one or more campaigns' records.

    Each campaign's records may be any iterable — including the lazy
    generators from :meth:`~repro.core.recording.RecordStore.iter_records` —
    and is consumed exactly once. The assessment itself needs several passes
    (metrics, FMEA, assumption verdicts), so the records are materialized
    into a single combined list here rather than once per caller.
    """
    if not records_by_campaign:
        raise SafetyAssessmentError("at least one campaign is required")
    all_records: List[ExperimentRecord] = []
    for records in records_by_campaign.values():
        all_records.extend(records)
    if not all_records:
        raise SafetyAssessmentError("the provided campaigns contain no records")
    assessment = assessment or SeoocAssessment()
    verdicts = assessment.assess(all_records)
    metrics = compute_isolation_metrics(all_records)
    return EvidenceReport(
        element_name=assessment.element_name,
        campaign_names=sorted(records_by_campaign),
        total_tests=len(all_records),
        metrics=metrics,
        fmea=fmea_table(all_records),
        verdicts=verdicts,
        certification_ready=assessment.certification_ready(verdicts),
        remarks=list(remarks or []),
    )
