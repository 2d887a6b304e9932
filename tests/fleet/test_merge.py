"""Cross-host record merge: identity dedup, hard conflicts, the CLI.

The fleet's at-least-once delivery is only safe because duplicates collapse
by spec identity *and* payload disagreements are hard errors: deterministic
re-execution means a true duplicate is byte-identical, so anything else is
mixed code versions or configs and must never merge silently.
"""

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.campaign import Campaign
from repro.core.plan import paper_figure3_plan
from repro.core.recording import ExperimentRecord, RecordStore
from repro.errors import MergeConflictError
from repro.fleet.merge import merge_stores, record_key


@pytest.fixture(scope="module")
def records():
    plan = paper_figure3_plan(num_tests=6, duration=1.0)
    result = Campaign(plan).run()
    return [ExperimentRecord.from_result(item) for item in result.results]


def write_store(path, records):
    RecordStore(path).replace_all(records)
    return path


class TestKeys:
    def test_stamped_records_key_on_the_identity(self, records):
        stamped = replace(records[0],
                          extras={**records[0].extras, "spec_id": "abc123"})
        assert record_key(stamped) == "id:abc123"

    def test_unstamped_records_fall_back_to_the_triple(self, records):
        record = records[0]
        assert record_key(record) == (
            f"triple:{record.spec_name}|{record.seed}|{record.scenario}")

    def test_to_json_ignores_formatting_not_payload(self, records):
        record = records[0]
        line = record.to_json()
        reordered = dict(reversed(list(record.to_dict().items())))
        reformatted = json.dumps(reordered, indent=2)
        assert ExperimentRecord.from_json(reformatted).to_json() == line
        assert replace(record).to_json() == line
        assert replace(record, duration=record.duration + 1.0).to_json() != line


class TestMerge:
    def test_single_store_merge_is_the_identity(self, tmp_path, records):
        source = write_store(tmp_path / "a.jsonl", records)
        output = tmp_path / "out.jsonl"
        stats = merge_stores([source], output)
        assert output.read_bytes() == source.read_bytes()
        assert (stats.read, stats.written, stats.duplicates) == (6, 6, 0)

    def test_overlap_dedups_in_first_appearance_order(self, tmp_path,
                                                      records):
        a = write_store(tmp_path / "a.jsonl", records[:4])
        b = write_store(tmp_path / "b.jsonl", records[2:])
        output = tmp_path / "out.jsonl"
        stats = merge_stores([a, b], output)
        merged = list(RecordStore(output).iter_records())
        assert [r.spec_name for r in merged] == [r.spec_name for r in records]
        assert stats.duplicates == 2
        assert stats.per_input == [(str(a), 4), (str(b), 4)]

    def test_payload_conflict_is_a_hard_error(self, tmp_path, records):
        tampered = records[:3]
        tampered[1] = replace(tampered[1],
                              duration=tampered[1].duration + 1.0)
        a = write_store(tmp_path / "a.jsonl", records[:3])
        b = write_store(tmp_path / "b.jsonl", tampered)
        output = tmp_path / "out.jsonl"
        with pytest.raises(MergeConflictError, match="disagree"):
            merge_stores([a, b], output)
        # The atomic write never landed and its temp file was cleaned up.
        assert not output.exists()
        assert not output.with_name(output.name + ".tmp").exists()


class TestCli:
    def test_merge_command_end_to_end(self, tmp_path, records, capsys):
        a = write_store(tmp_path / "a.jsonl", records[:4])
        b = write_store(tmp_path / "b.jsonl", records[2:])
        output = tmp_path / "out.jsonl"
        assert main(["merge", str(a), str(b), "-o", str(output)]) == 0
        out = capsys.readouterr().out
        assert "6 unique" in out and "2 duplicate(s)" in out
        assert len(list(RecordStore(output).iter_records())) == 6

    def test_missing_input_fails_before_writing(self, tmp_path, records,
                                                capsys):
        a = write_store(tmp_path / "a.jsonl", records[:2])
        output = tmp_path / "out.jsonl"
        code = main(["merge", str(a), str(tmp_path / "nope.jsonl"),
                     "-o", str(output)])
        assert code == 1
        assert "does not exist" in capsys.readouterr().err
        assert not output.exists()

    def test_conflict_exits_nonzero(self, tmp_path, records, capsys):
        a = write_store(tmp_path / "a.jsonl", records[:2])
        b = write_store(
            tmp_path / "b.jsonl",
            [replace(records[0], duration=records[0].duration + 1.0)])
        code = main(["merge", str(a), str(b),
                     "-o", str(tmp_path / "out.jsonl")])
        assert code == 1
        assert "disagree" in capsys.readouterr().err
