"""Tests for parallel execution parity and live aggregation."""

import pytest

from repro.core.campaign import Campaign
from repro.core.experiment import default_sut_factory
from repro.core.plan import paper_figure3_plan
from repro.engine import CampaignEngine, LiveAggregator
from repro.errors import CampaignError


@pytest.fixture(scope="module")
def plan():
    return paper_figure3_plan(num_tests=8, duration=2.0)


@pytest.fixture(scope="module")
def sequential(plan):
    return Campaign(plan).run()


class TestParity:
    def test_jobs_4_matches_sequential_outcome_for_outcome(self, plan, sequential):
        parallel = CampaignEngine(plan, jobs=4).run()
        assert len(parallel.results) == len(sequential.results)
        for seq, par in zip(sequential.results, parallel.results):
            assert par.spec_name == seq.spec_name
            assert par.outcome is seq.outcome
            assert par.injections == seq.injections
            assert par.seed == seq.seed
        assert parallel.outcome_counts() == sequential.outcome_counts()

    def test_jobs_1_engine_matches_sequential(self, plan, sequential):
        serial = CampaignEngine(plan, jobs=1).run()
        assert [r.outcome for r in serial.results] == \
            [r.outcome for r in sequential.results]

    def test_campaign_run_delegates_with_jobs(self, plan, sequential):
        delegated = Campaign(plan).run(jobs=2)
        assert [r.outcome for r in delegated.results] == \
            [r.outcome for r in sequential.results]


class TestProgressAndAggregation:
    def test_progress_receives_monotonic_snapshots(self, plan):
        snapshots = []
        CampaignEngine(
            plan, jobs=2,
            progress=lambda snapshot, result: snapshots.append(snapshot),
        ).run()
        assert len(snapshots) == len(plan)
        assert [s.completed for s in snapshots] == list(range(1, len(plan) + 1))
        assert all(s.total == len(plan) for s in snapshots)
        final = snapshots[-1]
        assert sum(final.outcome_counts.values()) == len(plan)
        assert 0.0 <= final.failure_rate <= 1.0
        assert final.executed == len(plan)

    def test_progress_fires_exactly_once_per_experiment_with_jobs(self, plan):
        # The observability layer (telemetry, watch hub) rides this seam, so
        # a duplicate or dropped callback would corrupt every live metric:
        # each completed experiment must fire exactly one callback, in the
        # parent process, regardless of worker count.
        for jobs in (2, 4):
            calls = []
            CampaignEngine(
                plan, jobs=jobs,
                progress=lambda snapshot, result: calls.append(
                    result.spec_name),
            ).run()
            assert len(calls) == len(plan)
            assert len(set(calls)) == len(plan)   # no spec reported twice

    def test_legacy_progress_callback_still_works(self, plan):
        seen = []
        Campaign(plan).run(
            progress=lambda done, total, result: seen.append((done, total))
        )
        assert seen == [(i + 1, len(plan)) for i in range(len(plan))]

    def test_aggregator_separates_restored_from_executed(self, plan):
        results = Campaign(plan).run().results
        aggregator = LiveAggregator(total=len(results))
        aggregator.restore(results[0])
        for result in results[1:]:
            aggregator.update(result)
        snapshot = aggregator.snapshot()
        assert snapshot.completed == len(results)
        assert snapshot.resumed == 1
        assert snapshot.executed == len(results) - 1
        assert "failure rate" in snapshot.format_line()


class TestEngineValidation:
    def test_resume_without_checkpoint_path_is_rejected(self, plan):
        with pytest.raises(CampaignError):
            CampaignEngine(plan, resume=True)

    def test_negative_jobs_is_rejected(self, plan):
        with pytest.raises(CampaignError):
            CampaignEngine(plan, jobs=-2)

    def test_jobs_zero_means_one_per_cpu(self, plan):
        engine = CampaignEngine(plan, jobs=0)
        assert engine.jobs >= 1
