"""Human-readable campaign reports.

Renders the quantities the paper reports as plain-text tables and ASCII bar
charts: the Figure-3 availability breakdown, the high-intensity management
findings, and side-by-side comparisons for the ablation benches. All output is
deterministic text so benchmarks can simply print it.

Every ``records`` parameter accepts an arbitrary iterable and is consumed in
exactly one pass, so the lazy generators from
:meth:`~repro.core.recording.RecordStore.iter_records` render reports of
million-record stores without materializing them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Mapping, Optional

from repro.analysis.streaming import (
    StreamAnalysis,
    StreamingAnalyzer,
    outcome_deltas,
)
from repro.core.analysis import (
    DistributionSummary,
    OutcomeTally,
    outcome_distribution,
)
from repro.core.outcomes import Outcome
from repro.core.recording import ExperimentRecord

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.campaign import CampaignResult

BAR_WIDTH = 40


def _bar(fraction: float, width: int = BAR_WIDTH) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def format_distribution(summary: DistributionSummary, *, title: str = "") -> str:
    """Render an outcome distribution as an ASCII bar chart."""
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(f"experiments: {summary.total}")
    for outcome in Outcome:
        share = summary.shares.get(outcome)
        if share is None or (share.count == 0 and outcome is not Outcome.CORRECT):
            continue
        lines.append(
            f"{outcome.value:<20} {share.count:>5}  {share.fraction * 100:6.1f}%  "
            f"[{share.ci_low * 100:5.1f}, {share.ci_high * 100:5.1f}]  "
            f"|{_bar(share.fraction)}|"
        )
    return "\n".join(lines)


def format_figure3(records: Iterable[ExperimentRecord], *,
                   paper_reference: Optional[Mapping[str, float]] = None) -> str:
    """Render the Figure-3 availability chart (non-root cell, medium intensity).

    ``paper_reference`` maps category name to the fraction reported by the
    paper so the bench output shows reproduced-vs-paper side by side.
    """
    tally = OutcomeTally()
    for record in records:
        tally.add(record.outcome_enum, injections=record.injections)
    breakdown = tally.availability()
    reference = paper_reference or {}
    lines = [
        "Non-root cell availability in medium intensity tests (Figure 3)",
        "----------------------------------------------------------------",
        f"tests: {tally.completed}   mean injections/test: "
        f"{tally.mean_injections():.1f}",
        "",
        f"{'category':<14} {'measured':>9} {'paper':>9}   chart",
    ]
    for category in ("correct", "panic_park", "cpu_park", "other"):
        measured = breakdown.get(category, 0.0)
        paper_value = reference.get(category)
        paper_text = f"{paper_value * 100:8.1f}%" if paper_value is not None else "      n/a"
        lines.append(
            f"{category:<14} {measured * 100:8.1f}% {paper_text}   |{_bar(measured)}|"
        )
    return "\n".join(lines)


def format_management_report(records: Iterable[ExperimentRecord], *,
                             title: str) -> str:
    """Render the high-intensity findings (invalid arguments / inconsistent state)."""
    analyzer = StreamingAnalyzer().extend(records)
    summary = analyzer.management_summary()
    distribution = analyzer.distribution()
    lines = [
        title,
        "-" * len(title),
        f"tests: {summary.total}",
        f"cell-create attempts: {summary.create_attempts}",
        f"  rejected (cell not allocated): {summary.create_rejections} "
        f"({summary.rejection_rate * 100:.1f}% of attempts)",
        f"  rejected creates that still allocated a cell: "
        f"{summary.create_rejections - summary.rejected_and_not_allocated}",
        f"inconsistent states (running but silent): {summary.inconsistent_states}",
        f"whole-system panics: {summary.panics}",
        "",
        format_distribution(distribution, title="outcome distribution"),
    ]
    return "\n".join(lines)


def format_comparison(groups: Mapping[str, DistributionSummary], *,
                      title: str, sort_keys: bool = True) -> str:
    """Render a per-group outcome comparison (ablation benches)."""
    lines = [title, "=" * len(title)]
    header = (
        f"{'group':<32} {'N':>5} {'correct':>9} {'panic':>9} {'cpu park':>9} "
        f"{'invalid':>9} {'inconsist':>10} {'silent':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    keys = sorted(groups) if sort_keys else list(groups)
    for key in keys:
        summary = groups[key]
        lines.append(
            f"{key:<32} {summary.total:>5} "
            f"{summary.fraction(Outcome.CORRECT) * 100:>8.1f}% "
            f"{summary.fraction(Outcome.PANIC_PARK) * 100:>8.1f}% "
            f"{summary.fraction(Outcome.CPU_PARK) * 100:>8.1f}% "
            f"{summary.fraction(Outcome.INVALID_ARGUMENTS) * 100:>8.1f}% "
            f"{summary.fraction(Outcome.INCONSISTENT_STATE) * 100:>9.1f}% "
            f"{summary.fraction(Outcome.SILENT_FAILURE) * 100:>7.1f}%"
        )
    return "\n".join(lines)


def _format_convergence(analysis: StreamAnalysis) -> str:
    outcome = analysis.convergence.outcome
    title = f"convergence of '{outcome.value}'"
    lines = [title, "-" * len(title),
             f"{'n':>8} {'fraction':>9}   95% CI"]
    for n, fraction, low, high in analysis.convergence_points():
        lines.append(
            f"{n:>8} {fraction * 100:>8.1f}%  [{low * 100:5.1f}, {high * 100:5.1f}]"
        )
    return "\n".join(lines)


def format_analysis(analysis: StreamAnalysis, *, title: str = "") -> str:
    """Render a :class:`StreamAnalysis` as the ``repro analyze`` text report.

    With no grouping and no convergence curve this is exactly
    :func:`format_distribution` of the overall distribution — byte-identical
    to what ``repro report`` renders for the same records.
    """
    parts = [format_distribution(analysis.analyzer.distribution(), title=title)]
    if analysis.grouped is not None:
        parts.append("")
        parts.append(format_comparison(
            analysis.grouped.distributions(),
            title=f"grouped by {analysis.grouped.key}",
        ))
    if analysis.convergence is not None:
        parts.append("")
        parts.append(_format_convergence(analysis))
    return "\n".join(parts)


def format_campaign_comparison(
        analyses: "Mapping[str, StreamingAnalyzer]", *,
        paper_reference: Optional[Mapping[str, float]] = None,
        title: str = "campaign comparison") -> str:
    """Render the ``repro compare`` side-by-side of several campaigns.

    Campaigns appear in insertion order; per-outcome deltas are relative to
    the first one, and ``paper_reference`` (the Figure-3 shares) is printed
    underneath for context.
    """
    names = list(analyses)
    groups = {name: analyses[name].distribution() for name in names}
    lines = [format_comparison(groups, title=title, sort_keys=False)]
    if len(names) > 1:
        lines.append("")
        delta_title = (f"per-outcome delta vs {names[0]} "
                       f"(percentage points)")
        lines.append(delta_title)
        lines.append("-" * len(delta_title))
        lines.append(
            f"{'campaign':<32} {'correct':>9} {'panic':>9} {'cpu park':>9} "
            f"{'invalid':>9} {'inconsist':>10} {'silent':>8}"
        )
        baseline = groups[names[0]]
        for name in names[1:]:
            deltas = outcome_deltas(baseline, groups[name])
            lines.append(
                f"{name:<32} "
                f"{deltas[Outcome.CORRECT.value] * 100:>+9.1f} "
                f"{deltas[Outcome.PANIC_PARK.value] * 100:>+9.1f} "
                f"{deltas[Outcome.CPU_PARK.value] * 100:>+9.1f} "
                f"{deltas[Outcome.INVALID_ARGUMENTS.value] * 100:>+9.1f} "
                f"{deltas[Outcome.INCONSISTENT_STATE.value] * 100:>+10.1f} "
                f"{deltas[Outcome.SILENT_FAILURE.value] * 100:>+8.1f}"
            )
    if paper_reference:
        lines.append("")
        reference = ", ".join(
            f"{category} {fraction * 100:.1f}%"
            for category, fraction in paper_reference.items()
        )
        lines.append(
            f"paper Figure-3 reference (Cinque et al., DSN 2022): {reference}")
    return "\n".join(lines)


def _markdown_outcome_table(analyzer: StreamingAnalyzer) -> List[str]:
    distribution = analyzer.distribution()
    lines = ["| outcome | count | share | 95% CI |",
             "| --- | ---: | ---: | --- |"]
    for outcome in Outcome:
        share = distribution.shares.get(outcome)
        if share is None or (share.count == 0 and outcome is not Outcome.CORRECT):
            continue
        lines.append(
            f"| {outcome.value} | {share.count} | {share.fraction * 100:.1f}% "
            f"| [{share.ci_low * 100:.1f}%, {share.ci_high * 100:.1f}%] |"
        )
    return lines


def format_analysis_markdown(analysis: StreamAnalysis) -> str:
    """Render a :class:`StreamAnalysis` as a Markdown document."""
    analyzer = analysis.analyzer
    management = analyzer.management_summary()
    source = f" — `{analysis.source}`" if analysis.source else ""
    lines = [
        f"# Campaign analysis{source}",
        "",
        f"{analyzer.total} experiments, "
        f"mean {analyzer.mean_injections():.1f} injections/test.",
        "",
        "## Outcomes",
        "",
    ]
    lines.extend(_markdown_outcome_table(analyzer))
    lines.extend([
        "",
        "## Availability",
        "",
        "| category | share |",
        "| --- | ---: |",
    ])
    for category, fraction in analyzer.availability().items():
        lines.append(f"| {category} | {fraction * 100:.1f}% |")
    lines.extend([
        "",
        "## Cell management",
        "",
        f"- create attempts: {management.create_attempts}",
        f"- rejected (cell not allocated): {management.create_rejections} "
        f"({management.rejection_rate * 100:.1f}% of attempts)",
        f"- inconsistent states: {management.inconsistent_states}",
        f"- whole-system panics: {management.panics}",
    ])
    register_classes = analyzer.register_class_totals()
    if register_classes:
        lines.extend(["", "## Register-class corruptions", "",
                      "| class | corruptions |", "| --- | ---: |"])
        for register_class, count in sorted(register_classes.items()):
            lines.append(f"| {register_class} | {count} |")
    if analysis.grouped is not None:
        lines.extend(["", f"## Grouped by `{analysis.grouped.key}`", "",
                      "| group | N | correct | panic | cpu park | other |",
                      "| --- | ---: | ---: | ---: | ---: | ---: |"])
        for group in sorted(analysis.grouped.groups):
            group_analyzer = analysis.grouped.groups[group]
            availability = group_analyzer.availability()
            lines.append(
                f"| {group} | {group_analyzer.total} "
                f"| {availability['correct'] * 100:.1f}% "
                f"| {availability['panic_park'] * 100:.1f}% "
                f"| {availability['cpu_park'] * 100:.1f}% "
                f"| {availability['other'] * 100:.1f}% |"
            )
    if analysis.convergence is not None:
        lines.extend(["",
                      f"## Convergence of `{analysis.convergence.outcome.value}`",
                      "", "| n | fraction | 95% CI |", "| ---: | ---: | --- |"])
        for n, fraction, low, high in analysis.convergence_points():
            lines.append(
                f"| {n} | {fraction * 100:.1f}% "
                f"| [{low * 100:.1f}%, {high * 100:.1f}%] |"
            )
    return "\n".join(lines)


def format_campaign_summary(result: CampaignResult) -> str:
    """One-page summary of a campaign (used by the examples)."""
    records = result.to_records()
    distribution = outcome_distribution(records)
    lines = [
        f"Campaign: {result.plan_name}",
        f"experiments: {len(result)}   total injections: {result.total_injections()}",
        f"failure rate: {result.failure_rate() * 100:.1f}%",
    ]
    if result.golden is not None:
        golden = result.golden
        lines.append(
            f"golden run: outcome={golden.outcome.value} "
            f"handler calls={golden.handler_calls}"
        )
    lines.append("")
    lines.append(format_distribution(distribution, title="outcomes"))
    return "\n".join(lines)
