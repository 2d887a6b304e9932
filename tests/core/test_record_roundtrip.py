"""Round-trip, rejection, and persistence tests for experiment records.

Satellite coverage for the engine PR: JSON round-trips must be lossless,
malformed input must fail loudly (the checkpoint layer trusts these
guarantees), and saving records must work even when the output directory does
not exist yet.
"""

import json
import os
import pickle
import stat

import pytest

from repro.core.campaign import Campaign
from repro.core.experiment import ExperimentResult, ExperimentSpec
from repro.core.outcomes import ManagementEvidence, Outcome
from repro.core.plan import TestPlan, paper_figure3_plan
from repro.core.recording import ExperimentRecord, RecordStore
from repro.core.targets import InjectionTarget
from repro.core.triggers import EveryNCalls
from repro.core.faultmodels import SingleBitFlip
from repro.errors import AnalysisError, CampaignError, PlanError


@pytest.fixture(scope="module")
def campaign_result():
    return Campaign(paper_figure3_plan(num_tests=3, duration=2.0)).run()


@pytest.fixture(scope="module")
def records(campaign_result):
    return campaign_result.to_records()


class TestJsonRoundTrip:
    def test_round_trip_equality(self, records):
        for record in records:
            assert ExperimentRecord.from_json(record.to_json()) == record

    def test_round_trip_through_store(self, records, tmp_path):
        store = RecordStore(tmp_path / "rt.jsonl")
        store.write_all(records)
        assert store.load() == list(records)

    def test_malformed_line_is_rejected(self):
        with pytest.raises(AnalysisError, match="malformed"):
            ExperimentRecord.from_json("{not json")

    def test_non_object_line_is_rejected(self):
        with pytest.raises(AnalysisError, match="JSON object"):
            ExperimentRecord.from_json("[1, 2, 3]")

    def test_unknown_fields_are_rejected(self, records):
        payload = json.loads(records[0].to_json())
        payload["bogus_field"] = 1
        with pytest.raises(AnalysisError, match="unknown fields"):
            ExperimentRecord.from_json(json.dumps(payload))

    def test_missing_required_fields_are_rejected(self):
        with pytest.raises(AnalysisError, match="missing fields"):
            ExperimentRecord.from_json('{"spec_name": "only-a-name"}')

    def test_every_missing_required_field_is_named(self, records):
        payload = json.loads(records[0].to_json())
        for name in ("intensity", "rationale"):
            del payload[name]
        with pytest.raises(AnalysisError,
                           match=r"missing fields: \['intensity', 'rationale'\]"):
            ExperimentRecord.from_json(json.dumps(payload))

    def test_default_dicts_are_fresh_per_record(self, records):
        payload = json.loads(records[0].to_json())
        del payload["extras"], payload["register_class_counts"]
        first = ExperimentRecord.from_json(json.dumps(payload))
        second = ExperimentRecord.from_json(json.dumps(payload))
        assert first.extras == second.extras == {}
        assert first.extras is not second.extras
        assert first.register_class_counts is not second.register_class_counts
        first.extras["spec_id"] = "x"
        assert second.extras == {}

    def test_every_field_is_set_in_field_order(self, records):
        record = ExperimentRecord.from_json(records[0].to_json())
        assert list(vars(record)) == list(ExperimentRecord.__dataclass_fields__)
        # The decoder fills records without ``__init__``, so it would skip
        # a ``__post_init__``: adding one means decoding through it.
        assert not hasattr(ExperimentRecord, "__post_init__")

    @pytest.mark.parametrize("field, value, message", [
        ("injections", True, "'injections' must be an integer, got a boolean"),
        ("seed", 1.5, "'seed' must be an integer, got a number"),
        ("duration", False, "'duration' must be a number, got a boolean"),
        ("duration", "2", "'duration' must be a number, got a string"),
        ("create_attempted", 1,
         "'create_attempted' must be a boolean, got an integer"),
        ("rationale", None, "'rationale' must be a string, got null"),
        ("extras", [], "'extras' must be an object, got an array"),
        ("outcome", "CORRECT", "'outcome' must name an Outcome"),
        ("register_class_counts", {"gpr": True},
         "'register_class_counts' must map each name to an integer, got a "
         "boolean for 'gpr'"),
    ])
    def test_each_field_value_is_type_checked(self, records, field, value,
                                              message):
        payload = json.loads(records[0].to_json())
        payload[field] = value
        with pytest.raises(AnalysisError, match=f"^record field {message}"):
            ExperimentRecord.from_json(json.dumps(payload))

    def test_duration_takes_an_integer(self, records):
        payload = json.loads(records[0].to_json())
        payload["duration"] = 2
        assert ExperimentRecord.from_json(json.dumps(payload)).duration == 2

    def test_unknown_and_missing_fields_are_named_before_types(self, records):
        payload = json.loads(records[0].to_json())
        payload["injections"] = "x"
        del payload["seed"]
        with pytest.raises(AnalysisError, match="missing fields: \\['seed'\\]"):
            ExperimentRecord.from_json(json.dumps(payload))
        payload["bogus_field"] = 1
        with pytest.raises(AnalysisError, match="unknown fields"):
            ExperimentRecord.from_json(json.dumps(payload))

    def test_outcome_enum_of_an_unknown_value_raises_value_error(self, records):
        from dataclasses import replace
        for outcome in ("bogus", ["not", "hashable"]):
            with pytest.raises(ValueError, match="is not a valid Outcome"):
                replace(records[0], outcome=outcome).outcome_enum

    def test_to_result_rebuilds_the_result_view(self, campaign_result, records):
        for original, record in zip(campaign_result.results, records):
            rebuilt = record.to_result()
            assert rebuilt.spec_name == original.spec_name
            assert rebuilt.outcome is original.outcome
            assert rebuilt.injections == original.injections
            assert rebuilt.seed == original.seed
            assert rebuilt.register_class_counts == original.register_class_counts
            # And the rebuilt result serializes back to the same record.
            assert ExperimentRecord.from_result(rebuilt) == record


#: The summary flags of ``ManagementEvidence`` a record persists.
MANAGEMENT_FLAGS = ("create_attempted", "create_succeeded", "start_attempted",
                    "start_succeeded")

#: Result fields no record persists: execution bookkeeping, and the
#: management evidence whose summary flags are persisted one by one.
NOT_PERSISTED = {"management", "wall_time", "prefix_cache_hit",
                 "prefix_wall_time", "worker_id"}


class TestResultConversions:
    def test_record_and_result_fields_map_onto_each_other(self):
        """A field added to one dataclass but not the other fails here."""
        record_fields = set(ExperimentRecord.__dataclass_fields__)
        result_fields = set(ExperimentResult.__dataclass_fields__)
        shared = record_fields & result_fields
        assert record_fields - shared == {*MANAGEMENT_FLAGS, "schema_version"}
        assert result_fields - shared == NOT_PERSISTED

    @pytest.mark.parametrize("management", [
        None,
        ManagementEvidence(create_attempted=True, create_succeeded=True,
                           start_attempted=True, start_succeeded=False,
                           create_attempts=3),
    ], ids=["no-management", "management"])
    def test_from_result_stamps_and_to_result_strips_the_spec_id(
            self, management):
        result = ExperimentResult(
            spec_name="s", outcome=Outcome.CPU_PARK, rationale="why",
            injections=4, duration=2.5, seed=7, scenario="lifecycle_under_fault",
            target="arch_handle_trap", fault_model="single bit flip",
            intensity="high", register_class_counts={"gpr": 3, "pc": 1},
            management=management, target_cell_lines=11, root_cell_lines=12,
            extras={"lifecycle_attempts": 2}, wall_time=1.5)
        record = ExperimentRecord.from_result(result, spec_id="abc123")
        assert record.spec_id == "abc123"
        assert record.extras == {"lifecycle_attempts": 2, "spec_id": "abc123"}
        assert result.extras == {"lifecycle_attempts": 2}

        rebuilt = record.to_result()
        for name in (set(ExperimentResult.__dataclass_fields__)
                     - NOT_PERSISTED):
            assert getattr(rebuilt, name) == getattr(result, name), name
        assert rebuilt.outcome is Outcome.CPU_PARK
        for name in MANAGEMENT_FLAGS:
            assert (getattr(rebuilt.management, name)
                    == getattr(result.management or ManagementEvidence(),
                               name)), name
        # The rebuilt result holds its own dicts, not the record's.
        assert rebuilt.extras is not record.extras
        assert rebuilt.register_class_counts is not record.register_class_counts


    def test_the_result_is_one_class_that_pickles_unchanged(self):
        # It lives with the outcome vocabulary, so that record readers need
        # not import the experiment runner; the old path still reaches it.
        import repro
        import repro.core
        import repro.core.outcomes

        assert (ExperimentResult is repro.core.outcomes.ExperimentResult
                is repro.core.ExperimentResult is repro.ExperimentResult)
        result = ExperimentResult(
            spec_name="s", outcome=Outcome.PANIC_PARK, rationale="why",
            injections=2, duration=3.0, seed=5, scenario="steady_state",
            target="arch_handle_trap", fault_model="single bit flip",
            intensity="medium", register_class_counts={"lr": 2},
            management=ManagementEvidence(create_attempted=True,
                                          create_succeeded=True),
            extras={"spec_id": "abc"}, wall_time=0.25,
            prefix_wall_time=0.125, worker_id=4)
        restored = pickle.loads(pickle.dumps(result))
        assert type(restored) is ExperimentResult
        assert restored == result
        assert restored.outcome is Outcome.PANIC_PARK


class TestSaveCreatesDirectories:
    def test_campaign_save_into_missing_directory(self, campaign_result, tmp_path):
        target = tmp_path / "out" / "campaigns" / "run.jsonl"
        count = campaign_result.save(str(target))
        assert count == 3
        assert len(RecordStore(target).load()) == 3

    def test_append_into_missing_directory(self, records, tmp_path):
        store = RecordStore(tmp_path / "missing" / "append.jsonl")
        store.append(records[0])
        assert store.load() == [records[0]]


class TestDurableAppend:
    @pytest.mark.parametrize("before, lines_before", [
        ("", 0),
        ("{first}\n", 1),
        ("{first}", 1),      # a writer killed before the line's newline
    ], ids=["empty", "whole-line", "missing-newline"])
    def test_append_adds_exactly_one_line(self, records, tmp_path, before,
                                          lines_before):
        path = tmp_path / "append.jsonl"
        path.write_text(before.format(first=records[0].to_json()),
                        encoding="utf-8")
        store = RecordStore(path)
        store.append(records[1])
        expected = [records[0]] * lines_before + [records[1]]
        assert store.load() == expected
        assert path.read_text(encoding="utf-8") == "".join(
            record.to_json() + "\n" for record in expected)

    def test_append_fsyncs_the_line_and_a_new_file_s_directory(
            self, records, tmp_path, monkeypatch):
        synced = []
        fsync = os.fsync

        def spy(fd):
            info = os.fstat(fd)
            synced.append("dir" if stat.S_ISDIR(info.st_mode)
                          else info.st_size)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        store = RecordStore(tmp_path / "new" / "append.jsonl")
        store.append(records[0])
        store.append(records[1])
        first, second = (len(record.to_json().encode("utf-8")) + 1
                         for record in records[:2])
        # The file holds each whole line when it is fsynced; only the
        # append that created the file fsyncs the directory.
        assert synced == [first, "dir", first + second]


class TestSpecIdentityAndPlanValidation:
    def _spec(self, **overrides):
        base = dict(
            name="spec", target=InjectionTarget.trap_handler(),
            trigger=EveryNCalls(100), fault_model=SingleBitFlip(), seed=7,
        )
        base.update(overrides)
        return ExperimentSpec(**base)

    def test_identity_is_stable_across_instances(self):
        assert self._spec().identity() == self._spec().identity()

    def test_identity_depends_on_seed_and_setup(self):
        base = self._spec()
        assert base.identity() != self._spec(seed=8).identity()
        assert base.identity() != self._spec(duration=5.0).identity()
        assert base.identity() != self._spec(
            trigger=EveryNCalls(50)).identity()

    def test_duplicate_spec_names_raise_plan_error(self):
        plan = TestPlan(name="dup")
        plan.add(self._spec())
        plan.add(self._spec(seed=8))
        with pytest.raises(PlanError, match="duplicate experiment names"):
            plan.validate()

    def test_plan_error_is_a_campaign_error(self):
        assert issubclass(PlanError, CampaignError)
        with pytest.raises(CampaignError):
            TestPlan(name="empty").validate()
