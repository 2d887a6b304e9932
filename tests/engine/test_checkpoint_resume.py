"""Tests for checkpointing and killed-then-resumed campaigns."""

import pytest

from repro.core.campaign import Campaign
from repro.core.plan import TestPlan, paper_figure3_plan
from repro.core.recording import RecordStore
from repro.engine import CampaignEngine, Checkpoint


@pytest.fixture(scope="module")
def plan():
    return paper_figure3_plan(num_tests=6, duration=2.0)


@pytest.fixture(scope="module")
def sequential(plan):
    return Campaign(plan).run()


def interrupted_run(plan, path, upto):
    """Simulate a campaign killed after ``upto`` experiments: run a truncated
    plan (same names/seeds) with checkpointing, leaving a partial record file."""
    partial = TestPlan(name=plan.name, specs=list(plan.specs)[:upto])
    CampaignEngine(partial, checkpoint_path=str(path)).run()


class TestCheckpointWriting:
    def test_checkpoint_streams_records_into_missing_directory(self, plan, tmp_path):
        path = tmp_path / "deep" / "nested" / "run.jsonl"
        CampaignEngine(plan, jobs=2, checkpoint_path=str(path)).run()
        records = RecordStore(path).load()
        assert len(records) == len(plan)
        assert all(record.spec_id for record in records)

    def test_fresh_run_truncates_stale_checkpoint(self, plan, tmp_path):
        path = tmp_path / "run.jsonl"
        interrupted_run(plan, path, upto=3)
        assert len(RecordStore(path).load()) == 3
        # Same path, resume=False: stale records must not leak into the run.
        CampaignEngine(plan, checkpoint_path=str(path)).run()
        assert len(RecordStore(path).load()) == len(plan)


class TestResume:
    def test_resume_skips_checkpointed_specs(self, plan, sequential, tmp_path):
        path = tmp_path / "run.jsonl"
        interrupted_run(plan, path, upto=4)

        resumed = CampaignEngine(
            plan, jobs=1, checkpoint_path=str(path), resume=True,
        ).run()
        # Only the two missing specs ran (restored results carry no worker
        # id); results still cover the whole plan in order and match the
        # never-interrupted sequential run.
        executed_seeds = [result.seed for result in resumed.results
                          if result.worker_id is not None]
        assert executed_seeds == [spec.seed for spec in list(plan.specs)[4:]]
        assert len(resumed.results) == len(plan)
        assert [r.outcome for r in resumed.results] == \
            [r.outcome for r in sequential.results]
        assert len(RecordStore(path).load()) == len(plan)

    def test_fully_checkpointed_run_executes_nothing(self, plan, tmp_path):
        path = tmp_path / "run.jsonl"
        CampaignEngine(plan, checkpoint_path=str(path)).run()

        def poisoned_factory(seed):
            raise AssertionError(f"spec with seed {seed} was re-executed")

        resumed = CampaignEngine(
            plan, checkpoint_path=str(path), resume=True,
            sut_factory=poisoned_factory,
        ).run()
        assert len(resumed.results) == len(plan)

    def test_resume_matches_records_saved_without_spec_id(self, plan, tmp_path):
        # Records written by CampaignResult.save lack the spec_id stamp; the
        # checkpoint falls back to the (name, seed, scenario) triple.
        path = tmp_path / "legacy.jsonl"
        Campaign(plan).run().save(str(path))

        def poisoned_factory(seed):
            raise AssertionError("legacy records were not honoured on resume")

        resumed = CampaignEngine(
            plan, checkpoint_path=str(path), resume=True,
            sut_factory=poisoned_factory,
        ).run()
        assert len(resumed.results) == len(plan)

    def test_changed_spec_identity_is_re_executed(self, plan, tmp_path):
        path = tmp_path / "run.jsonl"
        CampaignEngine(plan, checkpoint_path=str(path)).run()
        checkpoint = Checkpoint(path)
        checkpoint.load()
        spec = list(plan.specs)[0]
        assert checkpoint.is_complete(spec)
        from dataclasses import replace
        # Same name, different seed: a different experiment, not resumable.
        assert not checkpoint.is_complete(replace(spec, seed=spec.seed + 500))
        # Same (name, seed, scenario) triple but a changed setup: the stamped
        # identity no longer matches, so the loose triple must not rescue it.
        assert not checkpoint.is_complete(replace(spec, duration=spec.duration + 1))


class TestCheckpointUnit:
    def test_commit_stamps_spec_identity(self, plan, sequential, tmp_path):
        checkpoint = Checkpoint(tmp_path / "unit.jsonl")
        spec = list(plan.specs)[0]
        record = checkpoint.commit(spec, sequential.results[0])
        assert record.spec_id == spec.identity()
        assert checkpoint.is_complete(spec)
        restored = checkpoint.result_for(spec)
        assert restored is not None
        assert restored.outcome is sequential.results[0].outcome

    def test_load_returns_record_count(self, plan, tmp_path):
        path = tmp_path / "run.jsonl"
        interrupted_run(plan, path, upto=2)
        checkpoint = Checkpoint(path)
        assert checkpoint.load() == 2
        assert len(checkpoint) == 2

    def test_torn_trailing_line_is_discarded_and_resumed(self, plan,
                                                         sequential, tmp_path):
        # A SIGKILL mid-append leaves a partial JSON line at the end of the
        # checkpoint; resume must drop it and re-run that spec, not crash.
        path = tmp_path / "run.jsonl"
        interrupted_run(plan, path, upto=3)
        content = path.read_text(encoding="utf-8")
        path.write_text(content[:-40], encoding="utf-8")

        resumed = CampaignEngine(
            plan, checkpoint_path=str(path), resume=True,
        ).run()
        assert len(resumed.results) == len(plan)
        assert [r.outcome for r in resumed.results] == \
            [r.outcome for r in sequential.results]
        # The rewritten checkpoint is whole again: every line parses.
        assert len(RecordStore(path).load()) == len(plan)

    def test_malformed_line_in_the_middle_still_raises(self, plan, tmp_path):
        from repro.errors import AnalysisError
        path = tmp_path / "run.jsonl"
        interrupted_run(plan, path, upto=3)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] = lines[0][:-10]   # corrupt a non-final record
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(AnalysisError):
            Checkpoint(path).load()

    def test_identity_covers_timing_parameters(self, plan):
        from dataclasses import replace
        spec = list(plan.specs)[0]
        assert spec.identity() != replace(spec, observe_time=99.0).identity()
        assert spec.identity() != replace(spec, settle_time=5.0).identity()
        assert spec.identity() != replace(spec, warmup_time=9.0).identity()

    def test_identity_covers_component_parameters(self, plan):
        # describe() strings are lossy (two MultiRegisterBitFlip counts share
        # one name); identity must hash component state, not display names.
        from dataclasses import replace
        from repro.core.faultmodels import MultiRegisterBitFlip
        from repro.core.triggers import ProbabilisticTrigger
        spec = list(plan.specs)[0]
        two = replace(spec, fault_model=MultiRegisterBitFlip(count=2))
        eight = replace(spec, fault_model=MultiRegisterBitFlip(count=8))
        assert two.identity() != eight.identity()
        low = replace(spec, trigger=ProbabilisticTrigger(0.0001))
        high = replace(spec, trigger=ProbabilisticTrigger(0.0004))
        assert low.identity() != high.identity()

    def test_identity_is_stable_for_custom_components(self, plan):
        # User-subclassed triggers may hold plain objects; identity must hash
        # their public state, never a repr with a memory address in it.
        from dataclasses import replace
        from repro.core.triggers import EveryNCalls

        class _Helper:
            def __init__(self, x):
                self.x = x

        class _CustomTrigger(EveryNCalls):
            def __init__(self, x):
                super().__init__(10)
                self.helper = _Helper(x)

        spec = list(plan.specs)[0]
        one = replace(spec, trigger=_CustomTrigger(1))
        same = replace(spec, trigger=_CustomTrigger(1))
        other = replace(spec, trigger=_CustomTrigger(2))
        assert one.identity() == same.identity()
        assert one.identity() != other.identity()

    def test_restored_results_do_not_leak_spec_id(self, plan, sequential,
                                                  tmp_path):
        path = tmp_path / "run.jsonl"
        interrupted_run(plan, path, upto=3)
        resumed = CampaignEngine(
            plan, checkpoint_path=str(path), resume=True,
        ).run()
        # Restored and freshly executed results are indistinguishable: the
        # checkpoint-internal spec_id stamp must not surface in extras, and
        # re-saving the resumed campaign matches a never-interrupted save.
        assert all("spec_id" not in r.extras for r in resumed.results)
        assert resumed.to_records() == sequential.to_records()

    def test_resume_prunes_records_of_changed_specs(self, plan, tmp_path):
        from dataclasses import replace
        path = tmp_path / "run.jsonl"
        CampaignEngine(plan, checkpoint_path=str(path)).run()
        # Change every spec's definition (duration) and resume at the same
        # checkpoint: all specs re-run, and the stale records must be purged
        # rather than left to double-count in downstream reports.
        changed = TestPlan(
            name=plan.name,
            specs=[replace(spec, duration=spec.duration + 1.0)
                   for spec in plan.specs],
        )
        CampaignEngine(changed, checkpoint_path=str(path), resume=True).run()
        records = RecordStore(path).load()
        assert len(records) == len(plan)
        assert all(record.duration == pytest.approx(3.0) for record in records)

    def test_resume_prunes_orphans_of_renamed_specs(self, plan, tmp_path):
        from dataclasses import replace
        path = tmp_path / "run.jsonl"
        CampaignEngine(plan, checkpoint_path=str(path)).run()
        specs = list(plan.specs)
        renamed = TestPlan(
            name=plan.name,
            specs=[replace(specs[0], name=specs[0].name + "-renamed")]
            + specs[1:],
        )
        CampaignEngine(renamed, checkpoint_path=str(path), resume=True).run()
        records = RecordStore(path).load()
        # The old spec's orphan record is gone; exactly one record per spec.
        assert len(records) == len(plan)
        assert sorted(r.spec_name for r in records) == \
            sorted(s.name for s in renamed.specs)

    def test_legacy_records_with_changed_setup_are_not_restored(self, plan,
                                                                tmp_path):
        from dataclasses import replace
        # Unstamped records (plain CampaignResult.save) match on the triple
        # plus the setup fields they persist; a changed duration must force
        # re-execution instead of silently restoring stale results.
        path = tmp_path / "legacy.jsonl"
        Campaign(plan).run().save(str(path))
        changed = TestPlan(
            name=plan.name,
            specs=[replace(spec, duration=spec.duration + 1.0)
                   for spec in plan.specs],
        )
        resumed = CampaignEngine(
            changed, checkpoint_path=str(path), resume=True,
        ).run()
        assert all(r.duration == pytest.approx(3.0) for r in resumed.results)
        records = RecordStore(path).load()
        assert len(records) == len(plan)
        assert all(record.duration == pytest.approx(3.0) for record in records)


class TestAtomicFlush:
    def _spec_and_result(self, plan, sequential, index=0):
        return plan.specs[index], sequential.results[index]

    def test_commit_flushes_immediately_by_default(self, plan, sequential,
                                                   tmp_path):
        checkpoint = Checkpoint(tmp_path / "run.jsonl")
        spec, result = self._spec_and_result(plan, sequential)
        checkpoint.commit(spec, result)
        assert checkpoint.flushes == 1
        assert not checkpoint.dirty
        assert len(RecordStore(checkpoint.path).load()) == 1

    def test_flush_interval_batches_commits(self, plan, sequential, tmp_path):
        checkpoint = Checkpoint(tmp_path / "run.jsonl",
                                flush_interval_s=3600.0)
        for index in range(3):
            spec, result = self._spec_and_result(plan, sequential, index)
            checkpoint.commit(spec, result)
        # Nothing hit the disk yet; the records are buffered and dirty.
        assert checkpoint.dirty
        assert checkpoint.flushes == 0
        assert not checkpoint.path.exists()
        assert checkpoint.flush() is True
        assert checkpoint.flushes == 1
        assert not checkpoint.dirty
        assert len(RecordStore(checkpoint.path).load()) == 3

    def test_flush_is_idempotent_when_clean(self, plan, sequential, tmp_path):
        checkpoint = Checkpoint(tmp_path / "run.jsonl")
        spec, result = self._spec_and_result(plan, sequential)
        checkpoint.commit(spec, result)
        assert checkpoint.flush() is False       # nothing new to write
        assert checkpoint.flushes == 1

    def test_flush_replaces_the_file_atomically(self, plan, sequential,
                                                tmp_path):
        path = tmp_path / "run.jsonl"
        checkpoint = Checkpoint(path, flush_interval_s=3600.0)
        for index in range(2):
            spec, result = self._spec_and_result(plan, sequential, index)
            checkpoint.commit(spec, result)
        checkpoint.flush()
        # The write path goes tmp + fsync + rename: no temp file survives
        # and the target is a complete, parseable record file.
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != path.name]
        assert leftovers == []
        assert len(RecordStore(path).load()) == 2

    def test_negative_flush_interval_is_rejected(self, tmp_path):
        from repro.errors import CampaignError
        with pytest.raises(CampaignError):
            Checkpoint(tmp_path / "run.jsonl", flush_interval_s=-1.0)

    def test_engine_flushes_batched_checkpoint_on_exit(self, plan, tmp_path):
        path = tmp_path / "run.jsonl"
        engine = CampaignEngine(plan, checkpoint_path=str(path),
                                flush_interval_s=3600.0)
        engine.run()
        # Every record was buffered during the run; the engine's final flush
        # must land all of them even though the interval never elapsed.
        assert len(RecordStore(path).load()) == len(plan)
