"""Telemetry bus: emission, validation, and the inactive contract."""

import json

import pytest

from repro.core.plan import paper_figure3_plan
from repro.engine import CampaignEngine
from repro.errors import ObservabilityError
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA,
    Telemetry,
    TelemetryEvent,
    validate_event_dict,
    validate_events_file,
)


class TestBus:
    def test_inactive_bus_emits_nothing(self):
        bus = Telemetry()
        assert not bus.active
        assert bus.emit("anything", x=1) is None

    def test_subscriber_activates_the_bus_and_sees_events(self):
        seen = []
        bus = Telemetry()
        bus.subscribe(seen.append)
        assert bus.active
        event = bus.emit("custom", value=7)
        assert seen == [event]
        assert event.kind == "custom"
        assert event.payload == {"value": 7}

    def test_sink_writes_valid_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with Telemetry(path) as bus:
            bus.emit("campaign_start", plan="t", total=2, jobs=1)
            bus.emit("experiment_complete", spec="s", index=0,
                     outcome="correct", wall_s=0.1, completed=1,
                     queue_depth=1)
        assert validate_events_file(path) == 2
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [line["seq"] for line in lines] == [0, 1]
        assert all(line["schema"] == TELEMETRY_SCHEMA for line in lines)

    def test_close_without_subscribers_deactivates(self, tmp_path):
        bus = Telemetry(tmp_path / "events.jsonl")
        bus.emit("campaign_start", plan="t", total=1, jobs=1)
        bus.close()
        assert not bus.active
        assert bus.emit("ignored") is None


class TestValidation:
    def good(self, **overrides):
        event = {"schema": TELEMETRY_SCHEMA, "seq": 0, "ts": 1.0,
                 "kind": "custom", "payload": {}}
        event.update(overrides)
        return event

    def test_unknown_kinds_pass(self):
        validate_event_dict(self.good(kind="plugin_says_hi"))

    def test_wrong_schema_is_rejected(self):
        with pytest.raises(ObservabilityError, match="schema"):
            validate_event_dict(self.good(schema="nope/v9"))

    def test_known_kind_requires_its_payload_fields(self):
        with pytest.raises(ObservabilityError, match="jobs"):
            validate_event_dict(self.good(
                kind="campaign_start", payload={"plan": "p", "total": 1}))

    @pytest.mark.parametrize("missing", ["seq", "ts", "kind"])
    def test_missing_top_level_field_is_rejected(self, missing):
        event = self.good()
        del event[missing]
        with pytest.raises(ObservabilityError, match=missing):
            validate_event_dict(event)

    def test_seq_must_increase_within_a_run(self, tmp_path):
        path = tmp_path / "events.jsonl"
        lines = [
            TelemetryEvent(seq=0, ts=1.0, kind="a").to_json(),
            TelemetryEvent(seq=2, ts=2.0, kind="b").to_json(),
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ObservabilityError, match="sequence"):
            validate_events_file(path)

    def test_seq_reset_to_zero_marks_a_new_run(self, tmp_path):
        path = tmp_path / "events.jsonl"
        lines = [
            TelemetryEvent(seq=0, ts=1.0, kind="a").to_json(),
            TelemetryEvent(seq=1, ts=2.0, kind="b").to_json(),
            TelemetryEvent(seq=0, ts=3.0, kind="a").to_json(),
        ]
        path.write_text("\n".join(lines) + "\n")
        assert validate_events_file(path) == 3

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("")
        with pytest.raises(ObservabilityError, match="no events"):
            validate_events_file(path)


class TestFleetKinds:
    """The coordinator's fleet events validate like the engine's own."""

    PAYLOADS = {
        "host_joined": {"host": "w1", "host_id": "h0001"},
        "lease_granted": {"host": "w1", "shard": "ab12", "campaign": "c001",
                          "specs": 2},
        "lease_expired": {"host": "w1", "shard": "ab12", "campaign": "c001",
                          "failures": 1},
        "host_lost": {"host": "w1", "host_id": "h0001"},
        "shard_stolen": {"shard": "ab12", "from_host": "w1", "to_host": "w2"},
        "result_merged": {"campaign": "c001", "shard": "ab12", "host": "h1",
                          "merged": 2, "duplicates": 0,
                          "campaign_merged": 2, "campaign_total": 6},
    }

    def test_every_fleet_kind_validates_with_its_payload(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with Telemetry(path) as bus:
            for kind, payload in self.PAYLOADS.items():
                bus.emit(kind, **payload)
        assert validate_events_file(path) == len(self.PAYLOADS)

    @pytest.mark.parametrize("kind,field", [
        ("host_joined", "host_id"),
        ("lease_granted", "specs"),
        ("lease_expired", "failures"),
        ("host_lost", "host"),
        ("shard_stolen", "to_host"),
        ("result_merged", "duplicates"),
    ])
    def test_missing_required_fields_are_rejected(self, kind, field):
        payload = dict(self.PAYLOADS[kind])
        del payload[field]
        event = {"schema": TELEMETRY_SCHEMA, "seq": 0, "ts": 1.0,
                 "kind": kind, "payload": payload}
        with pytest.raises(ObservabilityError, match=field):
            validate_event_dict(event)


class TestEngineEmission:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("telemetry") / "events.jsonl"
        plan = paper_figure3_plan(num_tests=3, duration=2.0)
        with Telemetry(path) as telemetry:
            result = CampaignEngine(plan, telemetry=telemetry).run()
        events = [json.loads(line)
                  for line in path.read_text().splitlines()]
        return plan, result, path, events

    def test_file_validates_and_brackets_the_campaign(self, run):
        plan, result, path, events = run
        assert validate_events_file(path) == len(events)
        assert events[0]["kind"] == "campaign_start"
        assert events[-1]["kind"] == "campaign_end"
        assert events[0]["payload"]["total"] == len(plan)
        assert events[-1]["payload"]["completed"] == len(result.results)

    def test_one_complete_event_per_experiment_with_timing_split(self, run):
        plan, result, _, events = run
        completes = [event for event in events
                     if event["kind"] == "experiment_complete"]
        assert len(completes) == len(plan)
        for event in completes:
            payload = event["payload"]
            assert payload["wall_s"] > 0
            assert 0 <= payload["prefix_wall_s"] <= payload["wall_s"]
            assert payload["worker"] is not None
        # Queue depth drains to zero over the campaign.
        assert completes[-1]["payload"]["queue_depth"] == 0

    def test_parallel_campaign_emits_identical_event_count(self, run):
        plan, *_ = run
        seen = []
        telemetry = Telemetry()
        telemetry.subscribe(seen.append)
        CampaignEngine(plan, jobs=2, telemetry=telemetry).run()
        completes = [e for e in seen if e.kind == "experiment_complete"]
        assert len(completes) == len(plan)
        workers = {e.payload["worker"] for e in completes}
        assert len(workers) >= 1   # pids of the pool workers
