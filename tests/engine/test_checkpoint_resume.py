"""Tests for checkpointing and killed-then-resumed campaigns."""

import json

import pytest

from repro.core.campaign import Campaign
from repro.core.plan import TestPlan, paper_figure3_plan
from repro.core.recording import ExperimentRecord, RecordStore
from repro.engine import CampaignEngine, Checkpoint


@pytest.fixture(scope="module")
def plan():
    return paper_figure3_plan(num_tests=6, duration=2.0)


@pytest.fixture(scope="module")
def sequential(plan):
    return Campaign(plan).run()


@pytest.fixture(scope="module")
def uninterrupted(plan, tmp_path_factory):
    """The bytes of the plan's checkpoint after one uninterrupted run."""
    path = tmp_path_factory.mktemp("uninterrupted") / "run.jsonl"
    CampaignEngine(plan, checkpoint_path=str(path)).run()
    return path.read_bytes()


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

    @pytest.mark.parametrize("cut, reruns_from", [
        (1, 3),      # the last record is whole but lacks its newline
        (200, 2),    # half of the last record: a torn line
    ], ids=["missing-newline", "torn-line"])
    def test_killed_append_resumes_to_the_uninterrupted_file(
            self, plan, sequential, uninterrupted, tmp_path, cut,
            reruns_from):
        # A SIGKILL mid-append leaves the last line without its newline or
        # cut short. Resume keeps a whole record and drops a torn one, re-runs
        # only what is missing, and never merges a new line into the old.
        path = tmp_path / "run.jsonl"
        interrupted_run(plan, path, upto=3)
        path.write_bytes(path.read_bytes()[:-cut])

        resumed = CampaignEngine(
            plan, checkpoint_path=str(path), resume=True,
        ).run()
        executed_seeds = [result.seed for result in resumed.results
                          if result.worker_id is not None]
        assert executed_seeds == [spec.seed
                                  for spec in list(plan.specs)[reruns_from:]]
        assert [r.outcome for r in resumed.results] == \
            [r.outcome for r in sequential.results]
        assert path.read_bytes() == uninterrupted

    def test_malformed_line_in_the_middle_still_raises(self, plan, tmp_path):
        from repro.errors import AnalysisError
        path = tmp_path / "run.jsonl"
        interrupted_run(plan, path, upto=3)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] = lines[0][:-10]   # corrupt a non-final record
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(AnalysisError):
            Checkpoint(path).load()

    def test_line_that_is_not_utf8_is_malformed(self, plan, tmp_path):
        from repro.errors import AnalysisError
        path = tmp_path / "run.jsonl"
        interrupted_run(plan, path, upto=2)
        whole = path.read_bytes()
        # Last: a torn tail, dropped and rewritten away.
        path.write_bytes(whole + b"\xff\xfe x\n")
        assert Checkpoint(path).load() == 2
        assert path.read_bytes() == whole
        # Earlier: corruption, named by file and line.
        path.write_bytes(b"\xff\xfe x\n" + whole)
        with pytest.raises(AnalysisError) as caught:
            Checkpoint(path).load()
        assert str(caught.value) == (
            f"{path}:1: record line is not valid UTF-8")

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


#: A checkpoint line with one field of the wrong type or content, and the
#: start of the error it gets. Each ended ``run --resume`` or a later
#: reader in a traceback before field types were checked.
BAD_FIELDS = [
    ("outcome", "bogus", "record field 'outcome' must name an Outcome "),
    ("register_class_counts", [], "record field 'register_class_counts' "
                                  "must be an object, got an array"),
    ("injections", "x",
     "record field 'injections' must be an integer, got a string"),
    ("extras", None, "record field 'extras' must be an object, got null"),
    ("spec_name", [], "record field 'spec_name' must be a string, got an array"),
]


def retyped(line: bytes, field: str, value) -> bytes:
    """``line`` with ``field`` set to ``value``."""
    payload = json.loads(line)
    payload[field] = value
    return json.dumps(payload, sort_keys=True).encode() + b"\n"


class TestResumeCli:
    """``run --resume`` on a checkpoint holding a malformed line."""

    ARGV = ["run", "fig3", "--tests", "2", "--duration", "1"]

    def checkpoint(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "ck.jsonl"
        assert main([*self.ARGV, "--resume", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_torn_tail_reruns_its_spec(self, tmp_path, capsys):
        from repro.cli import main
        path = self.checkpoint(tmp_path, capsys)
        whole = path.read_bytes()
        first = whole.splitlines(keepends=True)[0]
        path.write_bytes(first + b"\xff\xfe x\n")
        assert main([*self.ARGV, "--resume", str(path)]) == 0
        assert path.read_bytes() == whole

    def test_earlier_line_is_one_error_naming_it(self, tmp_path, capsys):
        from repro.cli import main
        path = self.checkpoint(tmp_path, capsys)
        corrupt = b"\xff\xfe x\n" + path.read_bytes()
        path.write_bytes(corrupt)
        assert main([*self.ARGV, "--resume", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:1: record line is not valid UTF-8\n")
        assert path.read_bytes() == corrupt

    @pytest.mark.parametrize("field, value, message", BAD_FIELDS)
    def test_retyped_tail_reruns_its_spec(self, tmp_path, capsys, field,
                                          value, message):
        from repro.cli import main
        path = self.checkpoint(tmp_path, capsys)
        whole = path.read_bytes()
        first, last = whole.splitlines(keepends=True)
        path.write_bytes(first + retyped(last, field, value))
        assert main([*self.ARGV, "--resume", str(path)]) == 0
        assert path.read_bytes() == whole

    @pytest.mark.parametrize("field, value, message", BAD_FIELDS)
    def test_retyped_earlier_line_is_one_error_naming_it(
            self, tmp_path, capsys, field, value, message):
        from repro.cli import main
        path = self.checkpoint(tmp_path, capsys)
        first, last = path.read_bytes().splitlines(keepends=True)
        corrupt = retyped(first, field, value) + last
        path.write_bytes(corrupt)
        assert main([*self.ARGV, "--resume", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:1: {message}")
        assert err.count("\n") == 1
        assert path.read_bytes() == corrupt


class TestAppendOnlyCommits:
    def _spec_and_result(self, plan, sequential, index=0):
        return plan.specs[index], sequential.results[index]

    def test_commit_flushes_immediately(self, plan, sequential, tmp_path):
        checkpoint = Checkpoint(tmp_path / "run.jsonl")
        spec, result = self._spec_and_result(plan, sequential)
        checkpoint.commit(spec, result)
        assert checkpoint.flushes == 1
        assert len(RecordStore(checkpoint.path).load()) == 1

    def test_commits_append_and_never_rewrite(self, plan, tmp_path,
                                              monkeypatch):
        # A commit adds one line at the end of the file; only clear(),
        # prune_stale(), replace_records() and the torn-tail repair rewrite
        # it. A fresh run clears once, then appends the whole file.
        path = tmp_path / "run.jsonl"
        rewrites, appended = [], []
        replace_all, append = RecordStore.replace_all, RecordStore.append

        def spy_replace_all(store, records):
            records = list(records)
            rewrites.append(len(records))
            return replace_all(store, records)

        def spy_append(store, record):
            before = store.path.stat().st_size
            append(store, record)
            appended.append(store.path.stat().st_size - before)

        monkeypatch.setattr(RecordStore, "replace_all", spy_replace_all)
        monkeypatch.setattr(RecordStore, "append", spy_append)
        CampaignEngine(plan, checkpoint_path=str(path)).run()
        assert rewrites == [0]
        assert len(appended) == len(plan)
        assert sum(appended) == path.stat().st_size

    def test_each_commit_serializes_one_record(self, plan, sequential,
                                               tmp_path, monkeypatch):
        # Each commit appends its own line: N commits serialize N records.
        to_json = ExperimentRecord.to_json
        calls = []
        monkeypatch.setattr(ExperimentRecord, "to_json",
                            lambda record: calls.append(record) or
                            to_json(record))
        checkpoint = Checkpoint(tmp_path / "run.jsonl")
        committed = [checkpoint.commit(spec, result) for spec, result
                     in zip(plan.specs, sequential.results)]
        assert len(calls) == len(plan)
        assert checkpoint.flushes == len(plan)
        assert checkpoint.path.read_text(encoding="utf-8") == "".join(
            to_json(record) + "\n" for record in committed)

    def test_rewrites_and_appends_stay_in_step(self, plan, sequential,
                                               tmp_path):
        path = tmp_path / "run.jsonl"
        checkpoint = Checkpoint(path)
        committed = [checkpoint.commit(spec, result) for spec, result
                     in zip(plan.specs, sequential.results)]

        def on_disk():
            return path.read_text(encoding="utf-8")

        def lines(records):
            return "".join(record.to_json() + "\n" for record in records)

        checkpoint.replace_records(committed[::-1])
        assert on_disk() == lines(committed[::-1])
        kept = TestPlan(name=plan.name, specs=list(plan.specs)[:2])
        assert checkpoint.prune_stale(kept) == len(plan) - 2
        assert on_disk() == lines(committed[1::-1])
        extra = checkpoint.commit(plan.specs[2], sequential.results[2])
        assert on_disk() == lines([*committed[1::-1], extra])
        reloaded = Checkpoint(path)
        assert reloaded.load() == 3
        reloaded.clear()
        assert on_disk() == ""
        again = reloaded.commit(plan.specs[0], sequential.results[0])
        assert on_disk() == lines([again])
