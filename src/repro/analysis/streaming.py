"""Single-pass streaming analysis of experiment records.

The paper's methodology collects every test into a log "which is further
analyzed to understand how the hypervisor reacted to injected faults"; at
production scale those logs are million-record JSON-Lines stores, so this
module analyzes them as *streams*.

**O(1)-memory contract:** every accumulator here consumes an
``Iterator[ExperimentRecord]`` one record at a time and keeps only
fixed-size rolling state — per-outcome counters, management counters,
per-register-class totals, one such block per *distinct group value* when
grouping, and one ``(n, fraction, ci)`` point per convergence checkpoint.
Peak memory is therefore proportional to the number of outcome classes,
groups, and checkpoints, and **independent of the number of records**
(``benchmarks/bench_analyze_stream.py`` gates this on a 200k-record store).
No function in this module may build a list of records.

The counting cores (:class:`~repro.core.analysis.OutcomeTally`,
:class:`~repro.core.analysis.ManagementTally`, re-exported here) are shared
with the engine's :class:`~repro.engine.aggregate.LiveAggregator`, and every
summary object is built through
:func:`~repro.core.analysis.distribution_from_counts` /
:func:`~repro.core.analysis.availability_from_counts` — the same
constructors the batch functions in :mod:`repro.core.analysis` use — so
live, offline-batch, and offline-streaming numbers can never drift.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Schema of the ``repro analyze --format json`` export.
ANALYZE_SCHEMA = "repro-analyze/v1"

#: Schema of the ``repro compare --format json`` export.
COMPARE_SCHEMA = "repro-compare/v1"

from repro.analysis.stats import proportion_confidence_interval
from repro.core.analysis import (
    DistributionSummary,
    ManagementSummary,
    ManagementTally,
    OutcomeTally,
    require_record_field,
)
from repro.core.outcomes import Outcome
from repro.core.recording import ExperimentRecord
from repro.errors import AnalysisError

#: Shares reported by the paper's Figure 3 (read off the chart) — the
#: reference the ``repro compare`` side-by-side prints next to measured
#: campaigns.
PAPER_FIGURE3_REFERENCE: Dict[str, float] = {
    "correct": 0.63,
    "panic_park": 0.30,
    "cpu_park": 0.07,
}


class StreamingAnalyzer:
    """Accumulates every per-campaign summary in one pass over a stream."""

    def __init__(self) -> None:
        self.tally = OutcomeTally()
        self.management = ManagementTally()
        self._register_class_totals: Dict[str, int] = defaultdict(int)

    def add(self, record: ExperimentRecord) -> None:
        outcome = record.outcome_enum
        self.tally.add(outcome, injections=record.injections)
        self.management.add(record, outcome)
        for register_class, count in record.register_class_counts.items():
            self._register_class_totals[register_class] += count

    def extend(self, records: Iterable[ExperimentRecord]) -> "StreamingAnalyzer":
        for record in records:
            self.add(record)
        return self

    @property
    def total(self) -> int:
        return self.tally.completed

    def distribution(self) -> DistributionSummary:
        return self.tally.distribution()

    def availability(self) -> Dict[str, float]:
        return self.tally.availability()

    def mean_injections(self) -> float:
        return self.tally.mean_injections()

    def management_summary(self) -> ManagementSummary:
        return self.management.summary()

    def register_class_totals(self) -> Dict[str, int]:
        return dict(self._register_class_totals)

    def to_dict(self) -> dict:
        """JSON-serializable summary (the ``--format json`` payload body)."""
        distribution = self.distribution()
        management = self.management_summary()
        return {
            "total": self.total,
            "outcomes": {
                outcome.value: {
                    "count": distribution.count(outcome),
                    "fraction": distribution.fraction(outcome),
                    "ci_low": (distribution.shares[outcome].ci_low
                               if outcome in distribution.shares else 0.0),
                    "ci_high": (distribution.shares[outcome].ci_high
                                if outcome in distribution.shares else 0.0),
                }
                for outcome in Outcome
            },
            "availability": self.availability(),
            "management": {
                "total": management.total,
                "create_attempts": management.create_attempts,
                "create_rejections": management.create_rejections,
                "rejection_rate": management.rejection_rate,
                "inconsistent_states": management.inconsistent_states,
                "panics": management.panics,
            },
            "register_class_totals": self.register_class_totals(),
            "mean_injections_per_test": self.mean_injections(),
        }


class GroupedStreamingAnalyzer:
    """One :class:`StreamingAnalyzer` per distinct value of a record field.

    ``key`` is validated against ``ExperimentRecord.__dataclass_fields__``
    up front (even before any record arrives), so a typo'd key fails fast
    instead of silently producing an empty grouping.
    """

    def __init__(self, key: str) -> None:
        self.key = require_record_field(key)
        self.groups: Dict[str, StreamingAnalyzer] = {}

    def add(self, record: ExperimentRecord) -> None:
        group = str(getattr(record, self.key))
        analyzer = self.groups.get(group)
        if analyzer is None:
            analyzer = self.groups[group] = StreamingAnalyzer()
        analyzer.add(record)

    def extend(self,
               records: Iterable[ExperimentRecord]) -> "GroupedStreamingAnalyzer":
        for record in records:
            self.add(record)
        return self

    def distributions(self) -> Dict[str, DistributionSummary]:
        return {group: analyzer.distribution()
                for group, analyzer in self.groups.items()}

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "groups": {group: analyzer.to_dict()
                       for group, analyzer in sorted(self.groups.items())},
        }


class StreamingConvergence:
    """Single-pass convergence curve: outcome share after the first N records.

    Produces exactly the points of
    :func:`repro.core.analysis.convergence_curve` — one ``(n, fraction,
    ci_low, ci_high)`` tuple per requested checkpoint, where checkpoints past
    the end of the stream clamp to the final count — while storing only one
    snapshot per checkpoint instead of the whole outcome list.
    """

    def __init__(self, outcome: Outcome, checkpoints: Sequence[int]) -> None:
        self.outcome = outcome
        self.checkpoints = list(checkpoints)
        self._pending = sorted({cp for cp in self.checkpoints if cp > 0})
        self._next_index = 0
        self._seen = 0
        self._hits = 0
        self._snapshots: Dict[int, Tuple[float, float, float]] = {}

    def add(self, record: ExperimentRecord) -> None:
        self._seen += 1
        if record.outcome_enum is self.outcome:
            self._hits += 1
        if (self._next_index < len(self._pending)
                and self._seen == self._pending[self._next_index]):
            self._snapshots[self._seen] = self._point(self._hits, self._seen)
            self._next_index += 1

    @staticmethod
    def _point(hits: int, n: int) -> Tuple[float, float, float]:
        low, high = proportion_confidence_interval(hits, n)
        return (hits / n, low, high)

    def curve(self) -> List[Tuple[int, float, float, float]]:
        points: List[Tuple[int, float, float, float]] = []
        for checkpoint in self.checkpoints:
            n = min(checkpoint, self._seen)
            if n <= 0:
                points.append((0, 0.0, 0.0, 0.0))
                continue
            snapshot = self._snapshots.get(n)
            if snapshot is None:
                # Checkpoint past the end of the stream: clamp to the final
                # count, whose statistics are the rolling totals.
                snapshot = self._point(self._hits, self._seen)
            points.append((n, *snapshot))
        return points


def default_checkpoints(limit: int = 10_000_000) -> List[int]:
    """The 1-2-5 ladder used by ``repro analyze --convergence``.

    The streaming accumulator needs its checkpoints before the record count
    is known, so the CLI registers the whole ladder up front; ladder rungs
    past the end of the store clamp to the final count and are de-duplicated
    at rendering time.
    """
    ladder: List[int] = []
    decade = 10
    while decade <= limit:
        for multiplier in (1, 2, 5):
            value = decade * multiplier
            if value <= limit:
                ladder.append(value)
        decade *= 10
    return ladder


@dataclass
class StreamAnalysis:
    """Everything ``repro analyze`` accumulated in its single pass."""

    analyzer: StreamingAnalyzer
    grouped: Optional[GroupedStreamingAnalyzer] = None
    convergence: Optional[StreamingConvergence] = None
    source: Optional[str] = None

    @property
    def total(self) -> int:
        return self.analyzer.total

    def convergence_points(self) -> List[Tuple[int, float, float, float]]:
        """The convergence curve with clamped duplicate tail points removed."""
        if self.convergence is None:
            return []
        points: List[Tuple[int, float, float, float]] = []
        for point in self.convergence.curve():
            if points and point[0] <= points[-1][0]:
                continue
            points.append(point)
        return points

    def to_dict(self) -> dict:
        payload = {
            "schema": ANALYZE_SCHEMA,
            **self.analyzer.to_dict(),
        }
        if self.source is not None:
            payload["source"] = self.source
        if self.grouped is not None:
            payload["group_by"] = self.grouped.to_dict()
        if self.convergence is not None:
            payload["convergence"] = {
                "outcome": self.convergence.outcome.value,
                "points": [
                    {"n": n, "fraction": fraction,
                     "ci_low": low, "ci_high": high}
                    for n, fraction, low, high in self.convergence_points()
                ],
            }
        return payload


def analyze_records(records: Iterable[ExperimentRecord], *,
                    group_key: Optional[str] = None,
                    convergence_outcome: Optional[Outcome] = None,
                    checkpoints: Optional[Sequence[int]] = None,
                    source: Optional[str] = None) -> StreamAnalysis:
    """Run every requested accumulator over ``records`` in one pass."""
    analyzer = StreamingAnalyzer()
    grouped = GroupedStreamingAnalyzer(group_key) if group_key else None
    convergence = None
    if convergence_outcome is not None:
        convergence = StreamingConvergence(
            convergence_outcome,
            checkpoints if checkpoints is not None else default_checkpoints(),
        )
    for record in records:
        analyzer.add(record)
        if grouped is not None:
            grouped.add(record)
        if convergence is not None:
            convergence.add(record)
    return StreamAnalysis(analyzer=analyzer, grouped=grouped,
                          convergence=convergence, source=source)


def outcome_deltas(baseline: DistributionSummary,
                   other: DistributionSummary) -> Dict[str, float]:
    """Per-outcome fraction deltas (``other`` minus ``baseline``)."""
    return {
        outcome.value: other.fraction(outcome) - baseline.fraction(outcome)
        for outcome in Outcome
    }


def compare_to_dict(analyses: "Mapping[str, StreamingAnalyzer]", *,
                    paper_reference: Optional[Mapping[str, float]] = None) -> dict:
    """JSON-serializable payload for ``repro compare --format json``.

    Deltas are computed against the first campaign in (insertion) order.
    """
    if not analyses:
        raise AnalysisError("at least one campaign is required to compare")
    names = list(analyses)
    baseline_name = names[0]
    baseline = analyses[baseline_name].distribution()
    payload: dict = {
        "schema": COMPARE_SCHEMA,
        "baseline": baseline_name,
        "campaigns": {name: analyzer.to_dict()
                      for name, analyzer in analyses.items()},
        "deltas": {
            name: outcome_deltas(baseline, analyses[name].distribution())
            for name in names[1:]
        },
    }
    if paper_reference is not None:
        payload["paper_figure3_reference"] = dict(paper_reference)
    return payload
