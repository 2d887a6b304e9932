"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (or one of the
ablations listed in DESIGN.md): it runs the corresponding campaign against the
simulated testbed, prints the same rows/series the paper reports (reproduced
vs. paper values where the paper gives numbers), writes the report to
``benchmarks/results/``, and asserts the qualitative *shape* of the result.

Campaign sizes scale with the ``REPRO_BENCH_SCALE`` environment variable
(default 1.0); absolute wall-clock timings reported by pytest-benchmark measure
the campaign execution itself and are secondary to the printed reports.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Sequence, Tuple

from repro.core.campaign import Campaign, CampaignResult
from repro.core.experiment import Experiment, SutFactory, default_sut_factory
from repro.core.plan import TestPlan
from repro.core.recording import ExperimentRecord

#: Shares reported by the paper's Figure 3 (read off the chart).
PAPER_FIGURE3_REFERENCE: Dict[str, float] = {
    "correct": 0.63,
    "panic_park": 0.30,
    "cpu_park": 0.07,
}

RESULTS_DIR = Path(__file__).parent / "results"


def machine_info() -> Dict[str, object]:
    """Host fingerprint stamped into every ``BENCH_*.json`` report.

    ``repro-fi bench-history`` compares committed reports across PRs;
    absolute timings are only meaningful within one machine, so each report
    records where it ran and the trajectory view flags entries whose
    fingerprints differ. Old reports without the block are tolerated there.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def bench_scale() -> float:
    """Campaign-size multiplier taken from ``REPRO_BENCH_SCALE``."""
    try:
        return max(0.05, float(os.environ.get("REPRO_BENCH_SCALE", "1.0")))
    except ValueError:
        return 1.0


def scaled(count: int, *, minimum: int = 4) -> int:
    """Scale a campaign size by the bench multiplier."""
    return max(minimum, int(round(count * bench_scale())))


def run_campaign(plan: TestPlan,
                 sut_factory: SutFactory = default_sut_factory) -> CampaignResult:
    """Execute a plan and return its aggregated result."""
    return Campaign(plan, sut_factory=sut_factory).run()


def save_and_print(name: str, report: str) -> None:
    """Print a report and persist it under ``benchmarks/results/``."""
    print()
    print(report)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(report + "\n", encoding="utf-8")


def records_of(result: CampaignResult) -> Sequence[ExperimentRecord]:
    return result.to_records()


def time_against_cold_reference(
        plan: TestPlan, repeats: int,
        sut_factory: SutFactory = default_sut_factory,
) -> Tuple[float, float, CampaignResult]:
    """Best-of-``repeats`` wall time of the cold reference and of the engine.

    The per-spec cold reference runs every spec through its own
    ``Experiment.run()`` in plan order, outside the engine: a fresh system
    under test per spec. The engine runs the same plan at ``jobs=1``,
    building one SUT per prefix family and forking the family's other
    members from its snapshot. Returns ``(reference_wall_s, engine_wall_s,
    engine_result)`` and raises when any engine record differs from the
    reference.
    """
    reference_wall = engine_wall = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        reference = [Experiment(spec, sut_factory=sut_factory).run()
                     for spec in plan]
        reference_wall = min(reference_wall, time.perf_counter() - start)
    for _ in range(repeats):
        start = time.perf_counter()
        engine = Campaign(plan, sut_factory=sut_factory).run()
        engine_wall = min(engine_wall, time.perf_counter() - start)
    expected = CampaignResult(plan_name=plan.name, results=reference)
    if ([record.to_json() for record in engine.to_records()]
            != [record.to_json() for record in expected.to_records()]):
        raise AssertionError(
            f"engine records of {plan.name!r} diverged from the per-spec "
            f"cold reference: execution strategy must never change a record")
    return reference_wall, engine_wall, engine
