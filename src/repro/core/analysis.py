"""Campaign analytics.

Turns raw experiment records into the quantities reported by the paper:
per-outcome distributions (Figure 3), conditional statistics on corrupted
management calls (the high-intensity findings), per-register-class and
per-target breakdowns (ablations), and simple convergence diagnostics.

Every function here makes exactly one pass over its ``records`` argument, so
all of them accept arbitrary iterables — including the lazy generators from
:meth:`~repro.core.recording.RecordStore.iter_records` — and the
``*_from_counts`` builders turn pre-accumulated counters into the same
summary objects, which is how the streaming layer
(:mod:`repro.analysis.streaming`) and the engine's live aggregator produce
numbers that cannot drift from the offline ones.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.analysis.stats import proportion_confidence_interval
from repro.core.outcomes import Outcome
from repro.core.recording import ExperimentRecord
from repro.errors import AnalysisError

# Bound once for the per-record tallies: on CPython 3.11 an enum class
# attribute lookup costs several times a module global.
_CORRECT = Outcome.CORRECT
_INCONSISTENT_STATE = Outcome.INCONSISTENT_STATE
_PANIC_PARK = Outcome.PANIC_PARK


@dataclass(frozen=True)
class OutcomeShare:
    """Share of one outcome within a set of experiments."""

    outcome: Outcome
    count: int
    fraction: float
    ci_low: float
    ci_high: float


@dataclass
class DistributionSummary:
    """Per-outcome distribution with confidence intervals."""

    total: int
    shares: Dict[Outcome, OutcomeShare] = field(default_factory=dict)

    def fraction(self, outcome: Outcome) -> float:
        share = self.shares.get(outcome)
        return share.fraction if share is not None else 0.0

    def count(self, outcome: Outcome) -> int:
        share = self.shares.get(outcome)
        return share.count if share is not None else 0

    def dominant(self) -> Outcome:
        if not self.shares:
            raise AnalysisError("cannot compute the dominant outcome of an empty set")
        return max(self.shares.values(), key=lambda share: share.count).outcome


def _to_outcomes(records: Iterable[ExperimentRecord]) -> List[Outcome]:
    return [record.outcome_enum for record in records]


def distribution_from_counts(counts: Mapping[str, int],
                             total: int) -> DistributionSummary:
    """Build a :class:`DistributionSummary` from per-outcome-value counts.

    This is the single construction path for outcome distributions:
    :func:`outcome_distribution` (one pass over records), the streaming
    accumulators, and the engine's live aggregator all reduce to counts and
    delegate here, so their numbers are identical by construction.
    """
    summary = DistributionSummary(total=total)
    if total == 0:
        return summary
    for outcome in Outcome:
        count = counts.get(outcome.value, 0)
        low, high = proportion_confidence_interval(count, total)
        summary.shares[outcome] = OutcomeShare(
            outcome=outcome,
            count=count,
            fraction=count / total,
            ci_low=low,
            ci_high=high,
        )
    return summary


def availability_from_counts(counts: Mapping[str, int],
                             total: int) -> Dict[str, float]:
    """Figure-3 availability shares from per-outcome-value counts."""
    if total == 0:
        return {"correct": 0.0, "panic_park": 0.0, "cpu_park": 0.0, "other": 0.0}
    correct = counts.get(Outcome.CORRECT.value, 0)
    panic = counts.get(Outcome.PANIC_PARK.value, 0)
    cpu = counts.get(Outcome.CPU_PARK.value, 0)
    other = total - correct - panic - cpu
    return {
        "correct": correct / total,
        "panic_park": panic / total,
        "cpu_park": cpu / total,
        "other": other / total,
    }


def _count_outcomes(records: Iterable[ExperimentRecord]) -> "Tuple[Dict[str, int], int]":
    counts: Dict[str, int] = defaultdict(int)
    total = 0
    for record in records:
        counts[record.outcome_enum.value] += 1
        total += 1
    return counts, total


def outcome_distribution(records: Iterable[ExperimentRecord]) -> DistributionSummary:
    """Compute the per-outcome distribution over a set of records."""
    counts, total = _count_outcomes(records)
    return distribution_from_counts(counts, total)


def availability_breakdown(records: Iterable[ExperimentRecord]) -> Dict[str, float]:
    """Figure-3 style availability shares: correct / panic park / cpu park / other."""
    counts, total = _count_outcomes(records)
    return availability_from_counts(counts, total)


def require_record_field(key: str) -> str:
    """Validate that ``key`` names an :class:`ExperimentRecord` field.

    Rejects non-fields unconditionally — including method names such as
    ``"to_json"``, which a plain ``hasattr`` check would accept and which
    would then group every record under one bound-method repr.
    """
    if key not in ExperimentRecord.__dataclass_fields__:
        valid = ", ".join(sorted(ExperimentRecord.__dataclass_fields__))
        raise AnalysisError(
            f"{key!r} is not an ExperimentRecord field; valid keys: {valid}")
    return key


def group_by(records: Iterable[ExperimentRecord],
             key: str) -> Dict[str, List[ExperimentRecord]]:
    """Group records by one of their string attributes (target, intensity, ...)."""
    require_record_field(key)
    grouped: Dict[str, List[ExperimentRecord]] = defaultdict(list)
    for record in records:
        grouped[str(getattr(record, key))].append(record)
    return dict(grouped)


def grouped_distributions(records: Iterable[ExperimentRecord],
                          key: str) -> Dict[str, DistributionSummary]:
    """Per-group outcome distributions (used by the ablation benches)."""
    return {
        group: outcome_distribution(group_records)
        for group, group_records in group_by(records, key).items()
    }


@dataclass(frozen=True)
class ManagementSummary:
    """Conditional statistics for the high-intensity management experiments."""

    total: int
    create_attempts: int
    create_rejections: int
    rejected_and_not_allocated: int
    inconsistent_states: int
    panics: int

    @property
    def rejection_rate(self) -> float:
        if self.create_attempts == 0:
            return 0.0
        return self.create_rejections / self.create_attempts


class OutcomeTally:
    """Rolling per-outcome counts — the shared counting core.

    Both the engine's live aggregator (fed ``ExperimentResult``\\ s as a
    campaign runs) and the offline streaming analyzers (fed
    :class:`ExperimentRecord`\\ s from disk) count through this class, so a
    campaign's live progress numbers and its after-the-fact analysis are the
    same numbers by construction.
    """

    def __init__(self) -> None:
        self.completed = 0
        self.failures = 0
        self.injections = 0
        self.outcome_counts: Dict[str, int] = {
            outcome.value: 0 for outcome in Outcome
        }

    def add(self, outcome: Outcome, *, injections: int = 0) -> None:
        self.completed += 1
        if outcome is not _CORRECT:     # Outcome.is_failure
            self.failures += 1
        self.injections += injections
        # ``_value_`` is a plain attribute; ``.value`` is a descriptor call.
        # Every member's count starts at zero.
        self.outcome_counts[outcome._value_] += 1

    def distribution(self) -> DistributionSummary:
        return distribution_from_counts(self.outcome_counts, self.completed)

    def availability(self) -> Dict[str, float]:
        return availability_from_counts(self.outcome_counts, self.completed)

    def mean_injections(self) -> float:
        return self.injections / self.completed if self.completed else 0.0


class ManagementTally:
    """Rolling counters behind :class:`ManagementSummary`.

    One instance is fed one record at a time (by :func:`management_summary`
    and by the streaming analyzers), so the management findings have a single
    counting implementation regardless of whether records arrive as a list,
    a generator, or one by one from a live campaign.
    """

    def __init__(self) -> None:
        self.total = 0
        self.create_attempts = 0
        self.create_rejections = 0
        self.inconsistent_states = 0
        self.panics = 0

    def add(self, record: ExperimentRecord, outcome: Outcome) -> None:
        """Count ``record``, whose ``outcome_enum`` the caller resolved."""
        self.total += 1
        if record.create_attempted:
            self.create_attempts += 1
            if not record.create_succeeded:
                self.create_rejections += 1
        if outcome is _INCONSISTENT_STATE:
            self.inconsistent_states += 1
        elif outcome is _PANIC_PARK:
            self.panics += 1

    def summary(self) -> ManagementSummary:
        # In this model a rejected create never allocates a cell, which is
        # the safety property behind the paper's "the cell will not be
        # allocated at all, which is a correct (and expected) behaviour".
        return ManagementSummary(
            total=self.total,
            create_attempts=self.create_attempts,
            create_rejections=self.create_rejections,
            rejected_and_not_allocated=self.create_rejections,
            inconsistent_states=self.inconsistent_states,
            panics=self.panics,
        )


def management_summary(records: Iterable[ExperimentRecord]) -> ManagementSummary:
    """Summarize cell-management behaviour under fault (E2/E3 analysis)."""
    tally = ManagementTally()
    for record in records:
        tally.add(record, record.outcome_enum)
    return tally.summary()


def register_class_totals(records: Iterable[ExperimentRecord]) -> Dict[str, int]:
    """Total corruptions per register class across a campaign."""
    totals: Dict[str, int] = defaultdict(int)
    for record in records:
        for register_class, count in record.register_class_counts.items():
            totals[register_class] += count
    return dict(totals)


def mean_injections_per_test(records: Iterable[ExperimentRecord]) -> float:
    total = 0
    injections = 0
    for record in records:
        total += 1
        injections += record.injections
    return injections / total if total else 0.0


def convergence_curve(records: Sequence[ExperimentRecord],
                      outcome: Outcome,
                      checkpoints: Sequence[int]) -> List[Tuple[int, float, float, float]]:
    """Fraction (with CI) of ``outcome`` after the first N experiments.

    Used by the campaign-convergence ablation (A5) to show how many tests are
    needed before the Figure-3 shares stabilize.
    """
    curve: List[Tuple[int, float, float, float]] = []
    outcomes = _to_outcomes(records)
    for checkpoint in checkpoints:
        n = min(checkpoint, len(outcomes))
        if n == 0:
            curve.append((0, 0.0, 0.0, 0.0))
            continue
        count = sum(1 for value in outcomes[:n] if value is outcome)
        low, high = proportion_confidence_interval(count, n)
        curve.append((n, count / n, low, high))
    return curve
