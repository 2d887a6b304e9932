"""Dashboard rendering: the HTML page and its terminal twin."""

from repro.core.outcomes import Outcome
from repro.obs.dashboard import (
    OUTCOME_COLORS,
    OUTCOME_ORDER,
    render_dashboard_html,
    render_text_dashboard,
)
from repro.obs.rollup import TelemetryHub
from repro.obs.telemetry import Telemetry


class TestHtml:
    def test_page_is_self_contained(self):
        html = render_dashboard_html(title="unit test")
        assert "unit test" in html
        assert "<html" in html
        # Single-file contract: no external scripts, styles, or fonts.
        assert "http://" not in html and "https://" not in html
        assert "src=" not in html

    def test_page_embeds_the_validated_palette(self):
        html = render_dashboard_html()
        for outcome, (light, dark) in OUTCOME_COLORS.items():
            assert light in html
            assert dark in html

    def test_every_outcome_has_a_color_and_an_order_slot(self):
        names = {outcome.value for outcome in Outcome}
        assert set(OUTCOME_COLORS) == names
        assert set(OUTCOME_ORDER) == names


class TestText:
    def test_renders_live_metrics(self):
        hub = TelemetryHub()
        hub.set_campaign("unit", total=4)
        text = render_text_dashboard(hub.metrics())
        assert "unit" in text
        assert "outcome distribution" in text

    def test_empty_hub_renders_without_errors(self):
        assert render_text_dashboard(TelemetryHub().metrics())


def fleet_hub():
    """A hub fed the coordinator's fleet events through the real bus."""
    hub = TelemetryHub()
    bus = Telemetry()
    bus.subscribe(hub.on_event)
    bus.emit("host_joined", host="w1", host_id="h0001")
    bus.emit("host_joined", host="w2", host_id="h0002")
    bus.emit("lease_granted", host="w1", shard="ab12", campaign="c001-x",
             specs=2)
    bus.emit("lease_expired", host="w1", shard="ab12", campaign="c001-x",
             failures=1)
    bus.emit("host_lost", host="w1", host_id="h0001")
    bus.emit("shard_stolen", shard="ab12", from_host="w1", to_host="w2")
    bus.emit("result_merged", campaign="c001-x", shard="ab12", host="h0002",
             merged=2, duplicates=1, campaign_merged=4, campaign_total=6)
    return hub


class TestFleetRollup:
    def test_fleet_events_fold_into_the_counters(self):
        fleet = fleet_hub().metrics()["fleet"]
        assert fleet["hosts_joined"] == 2
        assert fleet["hosts_lost"] == 1
        assert fleet["leases_granted"] == 1
        assert fleet["leases_expired"] == 1
        assert fleet["shards_stolen"] == 1
        assert fleet["records_merged"] == 2
        assert fleet["duplicates"] == 1
        assert fleet["active"] is True
        assert fleet["campaigns"] == [
            {"campaign": "c001-x", "merged": 4, "total": 6}]

    def test_idle_hub_reports_the_fleet_inactive(self):
        fleet = TelemetryHub().metrics()["fleet"]
        assert fleet["active"] is False
        assert fleet["campaigns"] == []

    def test_non_fleet_events_leave_the_rollup_untouched(self):
        hub = TelemetryHub()
        bus = Telemetry()
        bus.subscribe(hub.on_event)
        bus.emit("checkpoint_flush", path="ckpt.jsonl", records=4)
        fleet = hub.metrics()["fleet"]
        assert fleet["active"] is False
        assert fleet["records_merged"] == 0


class TestFleetRendering:
    def test_html_page_carries_the_fleet_card(self):
        html = render_dashboard_html()
        assert 'id="fleet"' in html
        assert "fleet coordinator inactive" in html

    def test_text_dashboard_shows_fleet_lines_when_active(self):
        text = render_text_dashboard(fleet_hub().metrics())
        assert "fleet:" in text
        assert "hosts 2 joined / 1 lost" in text
        assert "1 stolen" in text
        assert "records 2 merged" in text
        assert "c001-x" in text

    def test_text_dashboard_omits_fleet_when_inactive(self):
        hub = TelemetryHub()
        hub.set_campaign("solo", total=4)
        assert "fleet:" not in render_text_dashboard(hub.metrics())
