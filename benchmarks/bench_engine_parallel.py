"""Engine benchmark — sequential vs. parallel campaign execution.

The paper's campaigns are embarrassingly parallel (hundreds of independent
one-minute tests per target function and intensity level), so the
:class:`~repro.engine.CampaignEngine` should scale wall-clock time down with
the number of workers while producing results identical experiment-for-
experiment to the sequential loop. This benchmark runs a medium campaign
(Figure-3 setup, 200 tests at scale 1.0) both ways, checks outcome-for-outcome
parity, and reports the speedup.

On single-core machines (and small CI runners) parallel execution cannot beat
sequential; the speedup assertion therefore only applies when the host has at
least two CPUs. Parity is asserted unconditionally.
"""

from __future__ import annotations

import os
import time

from _common import run_campaign, save_and_print, scaled

from repro.core.plan import paper_figure3_plan
from repro.engine import CampaignEngine

#: Keep the simulated duration short: per-test wall time is what we parallelize.
TEST_DURATION = 2.0
PARALLEL_JOBS = 4


def _build_plan():
    return paper_figure3_plan(num_tests=scaled(200, minimum=40),
                              duration=TEST_DURATION, base_seed=0)


def _timed(label, fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def test_engine_parallel_speedup_and_parity(benchmark):
    plan = _build_plan()

    sequential, seq_time = _timed("sequential", lambda: run_campaign(plan))

    def _parallel():
        # One pool task per prefix family, as every campaign runs.
        return CampaignEngine(plan, jobs=PARALLEL_JOBS).run()

    parallel = benchmark.pedantic(_parallel, rounds=1, iterations=1)
    par_time = benchmark.stats.stats.total

    speedup = seq_time / par_time if par_time > 0 else float("inf")
    cpus = os.cpu_count() or 1
    lines = [
        "engine: sequential vs. parallel execution",
        "=" * 45,
        f"plan               : {plan.name} ({len(plan)} experiments, "
        f"{TEST_DURATION:.0f}s simulated each)",
        f"host CPUs          : {cpus}",
        f"sequential         : {seq_time:8.2f} s "
        f"({len(plan) / seq_time:6.1f} tests/s)",
        f"parallel (jobs={PARALLEL_JOBS})  : {par_time:8.2f} s "
        f"({len(plan) / par_time:6.1f} tests/s)",
        f"speedup            : {speedup:8.2f}x",
    ]
    save_and_print("engine_parallel", "\n".join(lines))

    # Parity: same seeds => identical outcomes, in plan order.
    assert len(parallel.results) == len(sequential.results)
    for seq, par in zip(sequential.results, parallel.results):
        assert par.spec_name == seq.spec_name
        assert par.outcome is seq.outcome
        assert par.injections == seq.injections
    assert parallel.outcome_counts() == sequential.outcome_counts()

    # Speedup: only meaningful with real parallelism available.
    if cpus >= 2:
        assert speedup > 1.2, (
            f"expected parallel execution to beat sequential on {cpus} CPUs, "
            f"got {speedup:.2f}x"
        )


def test_engine_resume_skips_completed_work(tmp_path):
    """A killed-then-resumed campaign must not re-pay completed experiments."""
    plan = paper_figure3_plan(num_tests=scaled(40, minimum=12),
                              duration=TEST_DURATION, base_seed=0)
    checkpoint = tmp_path / "resume.jsonl"

    from repro.core.plan import TestPlan
    upto = len(plan) // 2
    partial = TestPlan(name=plan.name, specs=list(plan.specs)[:upto])
    CampaignEngine(partial, checkpoint_path=str(checkpoint)).run()

    _, resumed_time = _timed(
        "resume",
        lambda: CampaignEngine(plan, checkpoint_path=str(checkpoint),
                               resume=True).run(),
    )
    _, full_time = _timed("full", lambda: run_campaign(plan))

    report = "\n".join([
        "engine: checkpoint/resume",
        "=" * 45,
        f"plan                 : {plan.name} ({len(plan)} experiments)",
        f"checkpointed         : {upto} experiments before the 'kill'",
        f"resume (remaining {len(plan) - upto:2d}): {resumed_time:6.2f} s",
        f"full re-run          : {full_time:6.2f} s",
    ])
    save_and_print("engine_resume", report)

    # Resuming half the plan must cost clearly less than re-running all of it.
    assert resumed_time < full_time * 0.8
