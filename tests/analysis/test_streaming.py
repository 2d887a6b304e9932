"""Tests for the streaming-analysis subsystem and the record-layer fixes.

Covers the four PR-5 bugfixes (silent seooc path skips are tested in
``tests/core/test_cli_frontend.py``, the other three here), streaming-vs-load
parity on every catalog campaign, byte-identical ``analyze --format text``
vs. ``report`` output, the JSON export round-trip, and ``compare`` with two
and three campaigns.
"""

import inspect
import json
from pathlib import Path

import pytest

from repro.analysis.streaming import (
    GroupedStreamingAnalyzer,
    OutcomeTally,
    StreamingAnalyzer,
    StreamingConvergence,
    analyze_records,
    compare_to_dict,
    default_checkpoints,
    outcome_deltas,
)
from repro.cli import main
from repro.core.analysis import (
    availability_breakdown,
    convergence_curve,
    group_by,
    management_summary,
    mean_injections_per_test,
    outcome_distribution,
    register_class_totals,
)
from repro.core.config import catalog_config, catalog_keys
from repro.core.outcomes import Outcome
from repro.core.recording import (
    RECORD_SCHEMA_VERSION,
    ExperimentRecord,
    RecordStore,
)
from repro.engine import CampaignEngine, LiveAggregator
from repro.engine.checkpoint import Checkpoint
from repro.errors import AnalysisError, RecordSchemaError


def make_record(outcome="correct", *, seed=0, target="trap",
                intensity="medium", scenario="steady-state",
                fault_model="single-bit-flip", injections=3,
                register_class_counts=None, create_attempted=False,
                create_succeeded=False):
    return ExperimentRecord(
        spec_name=f"test-{seed}",
        outcome=outcome,
        rationale="synthetic",
        injections=injections,
        duration=10.0,
        seed=seed,
        scenario=scenario,
        target=target,
        fault_model=fault_model,
        intensity=intensity,
        register_class_counts=register_class_counts or {},
        create_attempted=create_attempted,
        create_succeeded=create_succeeded,
    )


MIXED_RECORDS = [
    make_record("correct", seed=0, target="trap",
                register_class_counts={"gp": 2}),
    make_record("panic_park", seed=1, target="trap", injections=5,
                register_class_counts={"gp": 1, "special": 1}),
    make_record("cpu_park", seed=2, target="hvc"),
    make_record("correct", seed=3, target="hvc", injections=0),
    make_record("invalid_arguments", seed=4, target="hvc",
                create_attempted=True, create_succeeded=False),
    make_record("inconsistent_state", seed=5, target="irqchip",
                create_attempted=True, create_succeeded=True),
    make_record("silent_failure", seed=6, target="irqchip"),
]


def write_store(path, records):
    store = RecordStore(path)
    store.write_all(records)
    return store


class TestRecordStoreStreaming:
    def test_iter_is_a_generator_not_a_loaded_list(self, tmp_path):
        store = write_store(tmp_path / "r.jsonl", MIXED_RECORDS)
        assert inspect.isgenerator(iter(store))
        assert inspect.isgenerator(store.iter_records())

    def test_iteration_is_lazy(self, tmp_path):
        """A malformed line late in the file must not break earlier records."""
        path = tmp_path / "r.jsonl"
        write_store(path, MIXED_RECORDS[:2])
        with path.open("a", encoding="utf-8") as handle:
            handle.write("this is not json\n")
        iterator = RecordStore(path).iter_records()
        assert next(iterator).seed == 0
        assert next(iterator).seed == 1
        with pytest.raises(AnalysisError) as excinfo:
            next(iterator)
        # Strict mode names the file and the 1-based line number.
        assert str(path) in str(excinfo.value)
        assert ":3:" in str(excinfo.value)

    def test_skip_policy_drops_malformed_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_store(path, MIXED_RECORDS[:1])
        with path.open("a", encoding="utf-8") as handle:
            handle.write("{broken\n")
            handle.write(MIXED_RECORDS[1].to_json() + "\n")
        seeds = [record.seed
                 for record in RecordStore(path).iter_records(errors="skip")]
        assert seeds == [0, 1]

    def test_unknown_policy_is_rejected_eagerly(self, tmp_path):
        store = write_store(tmp_path / "r.jsonl", MIXED_RECORDS)
        with pytest.raises(AnalysisError, match="strict"):
            store.iter_records(errors="lenient")

    def test_load_equals_iteration(self, tmp_path):
        store = write_store(tmp_path / "r.jsonl", MIXED_RECORDS)
        assert store.load() == list(store.iter_records()) == list(store)

    def test_count_ignores_blank_lines_and_missing_files(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = write_store(path, MIXED_RECORDS)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("\n\n")
        assert store.count() == len(MIXED_RECORDS)
        assert RecordStore(tmp_path / "absent.jsonl").count() == 0
        assert list(RecordStore(tmp_path / "absent.jsonl")) == []


class TestSchemaVersion:
    def test_newer_schema_version_is_rejected(self):
        payload = json.loads(MIXED_RECORDS[0].to_json())
        payload["schema_version"] = RECORD_SCHEMA_VERSION + 1
        with pytest.raises(AnalysisError, match="schema_version"):
            ExperimentRecord.from_json(json.dumps(payload))

    def test_current_older_and_absent_versions_are_accepted(self):
        payload = json.loads(MIXED_RECORDS[0].to_json())
        for version in (RECORD_SCHEMA_VERSION, 0):
            payload["schema_version"] = version
            assert ExperimentRecord.from_json(json.dumps(payload)).seed == 0
        payload.pop("schema_version")
        assert ExperimentRecord.from_json(json.dumps(payload)).seed == 0

    def test_non_integer_schema_version_is_rejected(self):
        payload = json.loads(MIXED_RECORDS[0].to_json())
        for bogus in ("2", 1.5, True):
            payload["schema_version"] = bogus
            with pytest.raises(AnalysisError, match="integer"):
                ExperimentRecord.from_json(json.dumps(payload))

    def test_newer_schema_fails_the_stream_with_the_line_number(self, tmp_path):
        path = tmp_path / "v2.jsonl"
        payload = json.loads(MIXED_RECORDS[0].to_json())
        payload["schema_version"] = RECORD_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(RecordSchemaError, match=":1:"):
            list(RecordStore(path).iter_records())

    def test_newer_schema_is_not_skippable(self, tmp_path):
        """--skip-malformed salvages corruption; a version mismatch means
        the whole store needs newer tooling and must still raise."""
        path = tmp_path / "v2.jsonl"
        payload = json.loads(MIXED_RECORDS[0].to_json())
        payload["schema_version"] = RECORD_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(RecordSchemaError):
            list(RecordStore(path).iter_records(errors="skip"))

    def test_checkpoint_does_not_discard_a_newer_schema_tail(self, tmp_path):
        """Checkpoint.load() drops a torn final line (crash mid-append),
        but a well-formed newer-schema record is data, not a torn write:
        resume must refuse instead of silently rewriting it away."""
        path = tmp_path / "ck.jsonl"
        newer = json.loads(MIXED_RECORDS[1].to_json())
        newer["schema_version"] = RECORD_SCHEMA_VERSION + 1
        path.write_text(MIXED_RECORDS[0].to_json() + "\n"
                        + json.dumps(newer) + "\n")
        before = path.read_text()
        with pytest.raises(RecordSchemaError):
            Checkpoint(path).load()
        assert path.read_text() == before, "checkpoint file must be untouched"

    def test_checkpoint_still_recovers_from_a_torn_tail(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text(MIXED_RECORDS[0].to_json() + "\n"
                        + MIXED_RECORDS[1].to_json()[:25] + "\n")
        checkpoint = Checkpoint(path)
        assert checkpoint.load() == 1
        assert path.read_text() == MIXED_RECORDS[0].to_json() + "\n"


class TestGroupByValidation:
    def test_empty_input_still_rejects_bogus_keys(self):
        with pytest.raises(AnalysisError, match="bogus"):
            group_by([], "bogus")

    def test_method_names_are_not_fields(self):
        with pytest.raises(AnalysisError, match="to_json"):
            group_by(MIXED_RECORDS, "to_json")

    def test_valid_keys_group_iterators(self):
        groups = group_by(iter(MIXED_RECORDS), "target")
        assert set(groups) == {"trap", "hvc", "irqchip"}
        assert sum(len(records) for records in groups.values()) == len(MIXED_RECORDS)

    def test_grouped_streaming_analyzer_rejects_bogus_keys_up_front(self):
        with pytest.raises(AnalysisError, match="nope"):
            GroupedStreamingAnalyzer("nope")


class TestStreamingParityOnSynthetic:
    def test_distribution_availability_management_registers(self):
        analyzer = StreamingAnalyzer().extend(iter(MIXED_RECORDS))
        assert analyzer.total == len(MIXED_RECORDS)
        assert analyzer.distribution() == outcome_distribution(MIXED_RECORDS)
        assert analyzer.availability() == availability_breakdown(MIXED_RECORDS)
        assert analyzer.management_summary() == management_summary(MIXED_RECORDS)
        assert analyzer.register_class_totals() == register_class_totals(MIXED_RECORDS)
        assert analyzer.mean_injections() == pytest.approx(
            mean_injections_per_test(MIXED_RECORDS))

    def test_grouped_streaming_matches_batch_grouping(self):
        grouped = GroupedStreamingAnalyzer("target").extend(iter(MIXED_RECORDS))
        batch = group_by(MIXED_RECORDS, "target")
        assert grouped.distributions() == {
            key: outcome_distribution(records) for key, records in batch.items()
        }

    @pytest.mark.parametrize("checkpoints", [
        [2, 5, 100],
        [100, 2, 5],          # unsorted
        [3, 3, 7],            # duplicates
        [1000],               # entirely past the end
    ])
    def test_streaming_convergence_matches_batch_curve(self, checkpoints):
        convergence = StreamingConvergence(Outcome.CORRECT, checkpoints)
        for record in MIXED_RECORDS:
            convergence.add(record)
        assert convergence.curve() == convergence_curve(
            MIXED_RECORDS, Outcome.CORRECT, checkpoints)

    def test_default_checkpoints_are_a_1_2_5_ladder(self):
        assert default_checkpoints(1000) == [10, 20, 50, 100, 200, 500, 1000]

    def test_live_aggregator_counts_through_the_same_tally(self):
        results = [record.to_result() for record in MIXED_RECORDS]
        aggregator = LiveAggregator(total=len(results))
        for result in results:
            aggregator.update(result)
        analyzer = StreamingAnalyzer().extend(MIXED_RECORDS)
        assert aggregator.outcome_counts == analyzer.tally.outcome_counts
        assert aggregator.completed == analyzer.total
        assert aggregator.failures == analyzer.tally.failures
        assert aggregator.injections == analyzer.tally.injections

    def test_outcome_tally_empty_summaries(self):
        tally = OutcomeTally()
        assert tally.distribution().total == 0
        assert tally.availability() == {
            "correct": 0.0, "panic_park": 0.0, "cpu_park": 0.0, "other": 0.0}
        assert tally.mean_injections() == 0.0


class TestStreamingParityOnCatalogCampaigns:
    @pytest.mark.parametrize("key", catalog_keys())
    def test_streaming_summaries_match_full_load(self, key, tmp_path):
        config = catalog_config(key, num_tests=2, duration=3.0)
        plan = config.compile()
        engine = CampaignEngine(plan, sut_factory=config.sut_factory(),
                                classifier=config.build_classifier())
        result = engine.run()
        path = tmp_path / f"{key}.jsonl"
        result.save(str(path))
        store = RecordStore(path)

        loaded = store.load()
        assert loaded, f"catalog campaign {key} produced no records"
        analysis = analyze_records(store.iter_records(), group_key="target")
        assert analysis.total == len(loaded)
        assert analysis.analyzer.distribution() == outcome_distribution(loaded)
        assert analysis.analyzer.availability() == availability_breakdown(loaded)
        assert analysis.analyzer.management_summary() == management_summary(loaded)
        assert (analysis.analyzer.register_class_totals()
                == register_class_totals(loaded))
        assert analysis.grouped.distributions() == {
            group: outcome_distribution(records)
            for group, records in group_by(loaded, "target").items()
        }


class TestAnalyzeCli:
    @pytest.fixture
    def store_path(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        write_store(path, MIXED_RECORDS)
        return path

    def run_cli(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_text_output_is_byte_identical_to_report(self, capsys, store_path):
        code, report_out, _ = self.run_cli(capsys, "report", str(store_path))
        assert code == 0
        code, analyze_out, _ = self.run_cli(capsys, "analyze", str(store_path))
        assert code == 0
        assert analyze_out == report_out

    def test_json_round_trip(self, capsys, store_path):
        code, out, _ = self.run_cli(capsys, "analyze", str(store_path),
                                    "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "repro-analyze/v1"
        assert payload["total"] == len(MIXED_RECORDS)
        assert payload["source"] == str(store_path)
        counts = {value: entry["count"]
                  for value, entry in payload["outcomes"].items()}
        assert counts == {
            "correct": 2, "panic_park": 1, "cpu_park": 1,
            "invalid_arguments": 1, "inconsistent_state": 1,
            "silent_failure": 1,
            # Infrastructure verdicts (quarantined specs) are part of the
            # schema even when the campaign had none.
            "infra_timeout": 0, "infra_crash": 0,
        }
        assert sum(counts.values()) == payload["total"]
        assert payload["register_class_totals"] == {"gp": 3, "special": 1}
        assert payload["management"]["create_attempts"] == 2
        assert payload["management"]["create_rejections"] == 1
        # Re-serializing the parsed payload must reproduce the export.
        assert json.dumps(payload, indent=2, sort_keys=True) == out.rstrip("\n")

    def test_json_includes_groups_and_convergence(self, capsys, store_path):
        code, out, _ = self.run_cli(
            capsys, "analyze", str(store_path), "--format", "json",
            "--group-by", "target", "--convergence", "correct")
        assert code == 0
        payload = json.loads(out)
        assert payload["group_by"]["key"] == "target"
        assert set(payload["group_by"]["groups"]) == {"trap", "hvc", "irqchip"}
        assert payload["convergence"]["outcome"] == "correct"
        ns = [point["n"] for point in payload["convergence"]["points"]]
        assert ns == sorted(set(ns)), "clamped duplicate points must be dropped"
        assert ns[-1] == len(MIXED_RECORDS)

    @pytest.mark.parametrize("key", ["target", "intensity", "fault_model",
                                     "scenario", "seed"])
    def test_group_by_accepts_every_documented_key(self, capsys, store_path, key):
        code, out, _ = self.run_cli(capsys, "analyze", str(store_path),
                                    "--group-by", key)
        assert code == 0
        assert f"grouped by {key}" in out

    def test_group_by_rejects_non_fields(self, store_path):
        with pytest.raises(SystemExit):
            main(["analyze", str(store_path), "--group-by", "to_json"])

    def test_markdown_export(self, capsys, store_path):
        code, out, _ = self.run_cli(capsys, "analyze", str(store_path),
                                    "--format", "markdown",
                                    "--group-by", "target")
        assert code == 0
        assert "| outcome | count | share | 95% CI |" in out
        assert "## Grouped by `target`" in out

    def test_missing_file_is_an_error_naming_the_path(self, capsys, tmp_path):
        missing = tmp_path / "nope.jsonl"
        code, _, err = self.run_cli(capsys, "analyze", str(missing))
        assert code == 1
        assert str(missing) in err

    def test_line_missing_a_required_field_is_a_typed_error(self, capsys,
                                                             tmp_path):
        # Regression: a line lacking any required field other than the four
        # once checked by name (here ``intensity``) reached the constructor
        # and ended the CLI in a TypeError traceback.
        path = tmp_path / "campaign.jsonl"
        write_store(path, MIXED_RECORDS[:2])
        payload = json.loads(MIXED_RECORDS[2].to_json())
        del payload["intensity"]
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload) + "\n")
        code, _, err = self.run_cli(capsys, "analyze", str(path))
        assert code == 1
        assert f"{path}:3:" in err
        assert "missing fields: ['intensity']" in err
        assert "Traceback" not in err
        code, out, _ = self.run_cli(capsys, "analyze", str(path),
                                    "--skip-malformed")
        assert code == 0
        assert "experiments: 2" in out

    def test_malformed_line_fails_strict_and_passes_skip(self, capsys, tmp_path):
        path = tmp_path / "broken.jsonl"
        write_store(path, MIXED_RECORDS[:2])
        with path.open("a", encoding="utf-8") as handle:
            handle.write("not json\n")
        code, _, err = self.run_cli(capsys, "analyze", str(path))
        assert code == 1
        assert f"{path}:3:" in err
        code, out, err = self.run_cli(capsys, "analyze", str(path),
                                      "--skip-malformed")
        assert code == 0
        assert "experiments: 2" in out
        # The drop is never silent: the count goes to stderr ...
        assert "skipped 1 malformed record line" in err
        # ... and into the JSON export.
        code, out, _ = self.run_cli(capsys, "analyze", str(path),
                                    "--skip-malformed", "--format", "json")
        assert code == 0
        assert json.loads(out)["skipped_lines"] == 1

    def test_line_that_is_not_utf8_fails_strict_and_passes_skip(
            self, capsys, tmp_path):
        path = tmp_path / "bytes.jsonl"
        write_store(path, MIXED_RECORDS[:2])
        with path.open("ab") as handle:
            handle.write(b"\xff\xfe x\n")
        code, _, err = self.run_cli(capsys, "analyze", str(path))
        assert code == 1
        assert err == f"error: {path}:3: record line is not valid UTF-8\n"
        code, out, err = self.run_cli(capsys, "analyze", str(path),
                                      "--skip-malformed", "--format", "json")
        assert code == 0
        assert json.loads(out)["skipped_lines"] == 1
        assert json.loads(out)["total"] == 2
        assert "skipped 1 malformed record line" in err

    @pytest.mark.parametrize("field, value, message", [
        ("outcome", "bogus", "record field 'outcome' must name an Outcome "),
        ("register_class_counts", [], "record field 'register_class_counts' "
                                      "must be an object, got an array"),
        ("injections", "x",
         "record field 'injections' must be an integer, got a string"),
        ("extras", None, "record field 'extras' must be an object, got null"),
        ("spec_name", [],
         "record field 'spec_name' must be a string, got an array"),
    ])
    def test_field_of_the_wrong_type_fails_strict_and_passes_skip(
            self, capsys, tmp_path, field, value, message):
        # Regression: each of these values reached the fold or the record
        # views and ended the CLI in a ValueError, AttributeError or
        # TypeError traceback.
        path = tmp_path / "typed.jsonl"
        write_store(path, MIXED_RECORDS[:2])
        payload = json.loads(MIXED_RECORDS[2].to_json())
        payload[field] = value
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload) + "\n")
        code, out, err = self.run_cli(capsys, "analyze", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}:3: {message}")
        assert err.count("\n") == 1
        code, out, err = self.run_cli(capsys, "analyze", str(path),
                                      "--skip-malformed", "--format", "json")
        assert code == 0
        assert json.loads(out)["skipped_lines"] == 1
        assert json.loads(out)["total"] == 2
        assert "skipped 1 malformed record line" in err


class TestCompareCli:
    def run_cli(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.fixture
    def three_campaigns(self, tmp_path):
        paths = []
        for index, outcomes in enumerate([
            ["correct", "correct", "panic_park"],
            ["correct", "cpu_park", "panic_park"],
            ["panic_park", "panic_park", "panic_park"],
        ]):
            path = tmp_path / f"campaign_{index}.jsonl"
            write_store(path, [make_record(outcome, seed=seed)
                               for seed, outcome in enumerate(outcomes)])
            paths.append(path)
        return paths

    def test_compare_two_campaigns(self, capsys, three_campaigns):
        first, second, _ = three_campaigns
        code, out, _ = self.run_cli(capsys, "compare", str(first), str(second))
        assert code == 0
        assert "campaign_0" in out and "campaign_1" in out
        assert "per-outcome delta vs campaign_0" in out
        assert "paper Figure-3 reference" in out

    def test_compare_three_campaigns(self, capsys, three_campaigns):
        code, out, _ = self.run_cli(
            capsys, "compare", *[str(path) for path in three_campaigns])
        assert code == 0
        for name in ("campaign_0", "campaign_1", "campaign_2"):
            assert name in out
        # campaign_2 is all panic_park: -66.7pp correct, +66.7pp panic.
        assert "-66.7" in out and "+66.7" in out

    def test_compare_json(self, capsys, three_campaigns):
        code, out, _ = self.run_cli(
            capsys, "compare", "--format", "json",
            *[str(path) for path in three_campaigns])
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "repro-compare/v1"
        assert payload["baseline"] == "campaign_0"
        assert set(payload["campaigns"]) == {"campaign_0", "campaign_1",
                                             "campaign_2"}
        assert set(payload["deltas"]) == {"campaign_1", "campaign_2"}
        assert payload["deltas"]["campaign_2"]["panic_park"] == pytest.approx(2 / 3)
        assert payload["paper_figure3_reference"]["correct"] == pytest.approx(0.63)

    def test_compare_requires_two_files(self, capsys, three_campaigns):
        code, _, err = self.run_cli(capsys, "compare", str(three_campaigns[0]))
        assert code == 2
        assert "two" in err

    def test_compare_rejects_the_same_file_given_twice(
            self, capsys, three_campaigns):
        code, _, err = self.run_cli(capsys, "compare",
                                    str(three_campaigns[0]),
                                    str(three_campaigns[1]),
                                    str(three_campaigns[0]))
        assert code == 1
        assert "more than once" in err

    def test_compare_missing_file_names_it(self, capsys, three_campaigns, tmp_path):
        missing = tmp_path / "gone.jsonl"
        code, _, err = self.run_cli(capsys, "compare",
                                    str(three_campaigns[0]), str(missing))
        assert code == 1
        assert str(missing) in err

    def test_compare_deltas_helper(self):
        a = StreamingAnalyzer().extend(
            [make_record("correct"), make_record("panic_park")])
        b = StreamingAnalyzer().extend(
            [make_record("panic_park"), make_record("panic_park")])
        deltas = outcome_deltas(a.distribution(), b.distribution())
        assert deltas["correct"] == pytest.approx(-0.5)
        assert deltas["panic_park"] == pytest.approx(0.5)

    def test_compare_to_dict_requires_campaigns(self):
        with pytest.raises(AnalysisError):
            compare_to_dict({})
