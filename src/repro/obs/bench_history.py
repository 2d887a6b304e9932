"""Perf trajectory across PRs: the committed ``BENCH_*.json`` history.

Every perf PR commits its full-scale benchmark report (``BENCH_hotpath.json``
and friends) at the repo root, and CI gates each new run against a baseline —
but a gate only sees one step. This module reads the *whole* trajectory:
every committed version of every ``BENCH_*.json`` (via ``git log``/``git
show``) plus the current worktree copy, flattens the numeric metrics into
dotted keys, and renders a per-metric table so a slow drift across five PRs
is as visible as a 2x cliff in one.

Benchmark reports written since the ``machine`` block landed carry the host
fingerprint (:func:`benchmarks._common.machine_info`); entries recorded on
different hosts are flagged in the output, because absolute numbers are only
comparable within one machine (the calibrated CI gates already normalise
this out — the trajectory view must at least say so). Old committed reports
without the block are tolerated and show as ``unknown`` hosts.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.figures import ascii_series_table, ascii_sparkline
from repro.errors import ObservabilityError

#: Schema of the ``--format json`` payload.
BENCH_HISTORY_SCHEMA = "repro-bench-history/v1"

#: Top-level keys that never become trajectory metrics: identities,
#: references frozen at write time, and gate configuration.
_NON_METRIC_KEYS = frozenset({
    "schema", "scale", "created_unix", "machine", "gates",
    "pre_pr_reference", "paper_reference",
})


def flatten_metrics(data: dict, *, prefix: str = "",
                    _top: bool = True) -> Dict[str, float]:
    """Numeric leaves of a benchmark report as dotted keys.

    ``{"metrics": {"experiment": {"wall_s": 0.02}}}`` becomes
    ``{"metrics.experiment.wall_s": 0.02}``. Non-numeric leaves and
    the non-metric top-level keys (schema, machine, gates, frozen
    references) are skipped; booleans are not numbers.
    """
    flat: Dict[str, float] = {}
    for key, value in data.items():
        if _top and key in _NON_METRIC_KEYS:
            continue
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten_metrics(value, prefix=f"{dotted}.",
                                        _top=False))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[dotted] = float(value)
    return flat


@dataclass
class BenchEntry:
    """One version of one benchmark report."""

    bench: str                       #: file name, e.g. ``BENCH_hotpath.json``
    commit: str                      #: short sha, or ``worktree``
    commit_time: Optional[int]       #: unix time of the commit, if known
    subject: str                     #: first line of the commit message
    scale: Optional[str]             #: the report's ``scale`` field
    machine: Optional[dict]          #: the report's ``machine`` block
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def machine_key(self) -> str:
        """Stable fingerprint used to flag cross-host comparisons."""
        if not self.machine:
            return "unknown"
        return "/".join(str(self.machine.get(key, "?"))
                        for key in ("platform", "machine", "cpu_count",
                                    "python"))


@dataclass
class BenchHistory:
    """The trajectory of every ``BENCH_*.json``, oldest entry first."""

    root: Path
    entries_by_bench: Dict[str, List[BenchEntry]] = field(default_factory=dict)

    @property
    def benches(self) -> List[str]:
        return sorted(self.entries_by_bench)

    def cross_host(self, bench: str) -> bool:
        """Whether this bench's trajectory spans more than one machine.

        Entries without a ``machine`` block (reports committed before the
        block existed) count as one shared ``unknown`` host — absence is
        tolerated, never treated as a distinct machine per entry.
        """
        keys = {entry.machine_key for entry in self.entries_by_bench[bench]}
        return len(keys) > 1

    def to_dict(self) -> dict:
        return {
            "schema": BENCH_HISTORY_SCHEMA,
            "root": str(self.root),
            "benches": {
                bench: {
                    "cross_host": self.cross_host(bench),
                    "entries": [
                        {
                            "commit": entry.commit,
                            "commit_time": entry.commit_time,
                            "subject": entry.subject,
                            "scale": entry.scale,
                            "machine": entry.machine,
                            "metrics": entry.metrics,
                        }
                        for entry in entries
                    ],
                }
                for bench, entries in sorted(self.entries_by_bench.items())
            },
        }


def _git(root: Path, *args: str) -> Optional[str]:
    """Run one git command; ``None`` when git or the repo is unavailable."""
    try:
        completed = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout


def _parse_report(raw: str, *, context: str) -> Optional[dict]:
    try:
        data = json.loads(raw)
    except json.JSONDecodeError:
        return None                  # a torn historical blob is not an error
    return data if isinstance(data, dict) else None


def _entry_from_report(bench: str, data: dict, *, commit: str,
                       commit_time: Optional[int], subject: str) -> BenchEntry:
    return BenchEntry(
        bench=bench,
        commit=commit,
        commit_time=commit_time,
        subject=subject,
        scale=data.get("scale"),
        machine=data.get("machine"),
        metrics=flatten_metrics(data),
    )


def collect_bench_history(root: "str | Path" = ".", *,
                          pattern: str = "BENCH_*.json",
                          include_git: bool = True) -> BenchHistory:
    """Gather every version of every benchmark report under ``root``.

    Worktree copies are always read; with ``include_git`` each file's
    committed history is added via ``git log``/``git show`` (oldest first).
    The worktree copy is appended only when it differs from the newest
    committed version, so a clean checkout shows one entry per commit.
    Outside a git repository (or with git missing) the worktree copies
    alone are returned rather than failing — the trajectory degrades to a
    single point, it does not disappear.
    """
    root = Path(root)
    if not root.exists():
        raise ObservabilityError(f"bench-history root does not exist: {root}")
    names = {path.name for path in root.glob(pattern) if path.is_file()}
    if include_git:
        listed = _git(root, "log", "--format=", "--name-only",
                      "--", pattern)
        if listed:
            for line in listed.splitlines():
                line = line.strip()
                # Only repo-root reports participate; committed files under
                # subdirectories (e.g. baselines) are different artifacts.
                if line and "/" not in line:
                    names.add(line)
    history = BenchHistory(root=root)
    for bench in sorted(names):
        entries: List[BenchEntry] = []
        if include_git:
            log = _git(root, "log", "--follow", "--format=%h %ct %s",
                       "--", bench)
            for line in reversed((log or "").splitlines()):
                parts = line.strip().split(" ", 2)
                if len(parts) < 2:
                    continue
                sha, commit_time = parts[0], int(parts[1])
                subject = parts[2] if len(parts) > 2 else ""
                raw = _git(root, "show", f"{sha}:{bench}")
                if raw is None:
                    continue        # commit deleted the file; not a version
                data = _parse_report(raw, context=f"{sha}:{bench}")
                if data is None:
                    continue
                entries.append(_entry_from_report(
                    bench, data, commit=sha, commit_time=commit_time,
                    subject=subject))
        worktree_path = root / bench
        if worktree_path.exists():
            data = _parse_report(
                worktree_path.read_text(encoding="utf-8"),
                context=str(worktree_path))
            if data is None:
                raise ObservabilityError(
                    f"unreadable benchmark report: {worktree_path}")
            entry = _entry_from_report(bench, data, commit="worktree",
                                       commit_time=None,
                                       subject="(uncommitted)")
            if not entries or entries[-1].metrics != entry.metrics:
                entries.append(entry)
        if entries:
            history.entries_by_bench[bench] = entries
    if not history.entries_by_bench:
        raise ObservabilityError(
            f"no benchmark reports matching {pattern!r} under {root} "
            f"(worktree or git history)")
    return history


def _metric_rows(entries: Sequence[BenchEntry],
                 metric_filter: Optional[str]) -> List[str]:
    metrics: List[str] = []
    for entry in entries:
        for name in entry.metrics:
            if name not in metrics:
                metrics.append(name)
    if metric_filter:
        metrics = [name for name in metrics if metric_filter in name]
    return metrics


def format_history_text(history: BenchHistory, *,
                        metric_filter: Optional[str] = None) -> str:
    """Per-bench tables: one row per metric, one column per commit."""
    blocks: List[str] = []
    for bench in history.benches:
        entries = history.entries_by_bench[bench]
        metrics = _metric_rows(entries, metric_filter)
        if not metrics:
            continue
        title = f"{bench} ({len(entries)} version(s))"
        if history.cross_host(bench):
            title += "  [!] entries span multiple machines"
        rows = []
        for name in metrics:
            values = [entry.metrics.get(name) for entry in entries]
            present = [value for value in values if value is not None]
            cells = [f"{value:,.4g}" if value is not None else "-"
                     for value in values]
            spark = (ascii_sparkline(present, width=16)
                     if len(present) > 1 else "")
            rows.append((name, *cells, spark))
        headers = ["metric"] + [entry.commit for entry in entries] + ["trend"]
        blocks.append("\n".join([
            title, "=" * len(title),
            ascii_series_table(rows, headers),
        ]))
    if not blocks:
        raise ObservabilityError(
            f"no metrics match filter {metric_filter!r}")
    return "\n\n".join(blocks)


def format_history_markdown(history: BenchHistory, *,
                            metric_filter: Optional[str] = None) -> str:
    lines: List[str] = ["# Benchmark trajectory", ""]
    emitted = False
    for bench in history.benches:
        entries = history.entries_by_bench[bench]
        metrics = _metric_rows(entries, metric_filter)
        if not metrics:
            continue
        emitted = True
        lines.append(f"## {bench}")
        if history.cross_host(bench):
            lines.append(
                "> **Note:** entries span multiple machines — absolute "
                "numbers are not directly comparable.")
        lines.append("")
        header = ["metric"] + [entry.commit for entry in entries]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for name in metrics:
            cells = [
                f"{entry.metrics[name]:,.4g}" if name in entry.metrics
                else "–"
                for entry in entries
            ]
            lines.append("| `" + name + "` | " + " | ".join(cells) + " |")
        lines.append("")
    if not emitted:
        raise ObservabilityError(
            f"no metrics match filter {metric_filter!r}")
    return "\n".join(lines).rstrip() + "\n"
