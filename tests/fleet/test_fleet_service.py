"""Coordinator + worker agents in-process: the fleet's end-to-end contract.

One coordinator on an ephemeral port, worker agents as threads, and the
properties the fleet promises: the merged record store is byte-identical to
a single-host run of the same campaign; submission is idempotent (dupes
collapse, conflicts refuse); a worker whose coordinator restarted is told to
rejoin rather than erroring; ``resume`` re-offers exactly the unfinished
work; the coordinator's telemetry events validate against the engine's
own schema; and a spec that crashes its SUT becomes an ``infra_crash``
record, never a dead worker.
"""

import json
import threading

import pytest

from repro.core.config import CampaignConfig, PartRef, catalog_config
from repro.core.policy import RunPolicy
from repro.core.recording import RecordStore
from repro.core.registry import SUTS
from repro.core.sut import JailhouseSUT, SutConfig
from repro.engine.runner import CampaignEngine
from repro.errors import FleetError
from repro.fleet.coordinator import FleetCoordinator, FleetServer
from repro.fleet.protocol import FleetClient
from repro.fleet.worker import FleetWorkerAgent
from repro.obs.telemetry import Telemetry, validate_events_file

TESTS = 6
DURATION = 1.0


def config():
    return catalog_config("fig3", num_tests=TESTS, duration=DURATION)


@pytest.fixture(scope="module")
def serial_checkpoint(tmp_path_factory):
    """The single-host ground truth: same campaign, engine checkpoint."""
    path = tmp_path_factory.mktemp("serial") / "records.jsonl"
    cfg = config()
    CampaignEngine(cfg.compile(), jobs=1, sut_factory=cfg.sut_factory(),
                   classifier=cfg.build_classifier(),
                   checkpoint_path=str(path), resume=True).run()
    return path


def run_workers(url, *names, **options):
    options.setdefault("poll_s", 0.05)
    agents = [FleetWorkerAgent(url, host=name, **options) for name in names]
    threads = [threading.Thread(target=agent.run, daemon=True)
               for agent in agents]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "worker agent did not finish"
    return agents


class TestEndToEnd:
    def test_two_workers_produce_the_serial_byte_stream(
            self, tmp_path, serial_checkpoint):
        events = tmp_path / "events.jsonl"
        with Telemetry(events) as telemetry:
            coordinator = FleetCoordinator(tmp_path / "state", shard_size=2,
                                           telemetry=telemetry)
            with FleetServer(coordinator) as server:
                client = FleetClient(server.url)
                campaign_id = client.submit_campaign(
                    config=config().to_dict())["campaign_id"]
                agents = run_workers(server.url, "w1", "w2")
                status = client.status()
                records = client.records(campaign_id)
            assert coordinator.all_done()

        merged_path = tmp_path / "state" / f"{campaign_id}.records.jsonl"
        assert merged_path.read_bytes() == serial_checkpoint.read_bytes()

        # The HTTP records view is the same plan-order stream.
        serial = list(RecordStore(serial_checkpoint).iter_records())
        assert [r["spec_name"] for r in records] == [
            r.spec_name for r in serial]

        assert status["state"] == "done"
        (campaign,) = status["campaigns"]
        assert campaign["merged"] == campaign["total"] == TESTS
        assert campaign["shards"] == {"pending": 0, "leased": 0, "done": 3}
        assert sum(agent.stats["merged"] for agent in agents) == TESTS
        # Both workers actually participated (shard_size=2 over 6 specs).
        assert all(agent.stats["shards"] >= 1 for agent in agents)

        # The coordinator's telemetry validates against the engine schema
        # and covers the fleet lifecycle.
        assert validate_events_file(events) > 0
        kinds = {json.loads(line)["kind"]
                 for line in events.read_text().splitlines()}
        assert {"host_joined", "lease_granted", "result_merged"} <= kinds


class TestIdempotentSubmit:
    def submit_message(self, coordinator, serial_checkpoint):
        campaign_id = coordinator.submit(config())
        host_id = coordinator.handle_join(
            {"host": "unit", "pid": 1})["host_id"]
        lease = coordinator.handle_lease({"host_id": host_id})["lease"]
        by_identity = {
            record.spec_id: json.loads(record.to_json())
            for record in RecordStore(serial_checkpoint).iter_records()
        }
        return {
            "host_id": host_id,
            "lease_id": lease["lease_id"],
            "shard_id": lease["shard_id"],
            "campaign_id": campaign_id,
            "records": [by_identity[identity]
                        for identity in lease["spec_ids"]],
        }

    def test_resubmission_collapses_to_duplicates(self, tmp_path,
                                                  serial_checkpoint):
        coordinator = FleetCoordinator(tmp_path / "state", shard_size=2)
        message = self.submit_message(coordinator, serial_checkpoint)
        first = coordinator.handle_submit(message)
        assert (first["merged"], first["duplicates"]) == (2, 0)
        again = coordinator.handle_submit(message)
        assert (again["merged"], again["duplicates"]) == (0, 2)
        entry = coordinator.campaigns[message["campaign_id"]]
        assert len(entry.merged) == 2

    def test_conflicting_payload_is_refused_and_ours_kept(
            self, tmp_path, serial_checkpoint):
        coordinator = FleetCoordinator(tmp_path / "state", shard_size=2)
        message = self.submit_message(coordinator, serial_checkpoint)
        coordinator.handle_submit(message)
        tampered = dict(message)
        tampered["records"] = [dict(record) for record in message["records"]]
        tampered["records"][0]["duration"] += 1.0
        with pytest.raises(FleetError, match="conflict"):
            coordinator.handle_submit(tampered)
        entry = coordinator.campaigns[message["campaign_id"]]
        kept = entry.checkpoint.record_by_identity(
            message["records"][0]["extras"]["spec_id"])
        assert kept.duration == message["records"][0]["duration"]

    def test_unstamped_records_are_rejected(self, tmp_path,
                                            serial_checkpoint):
        coordinator = FleetCoordinator(tmp_path / "state", shard_size=2)
        message = self.submit_message(coordinator, serial_checkpoint)
        stripped = [dict(record) for record in message["records"]]
        for record in stripped:
            record["extras"] = {}
        message["records"] = stripped
        from repro.errors import FleetProtocolError
        with pytest.raises(FleetProtocolError, match="spec identity"):
            coordinator.handle_submit(message)


class TestLeasePolicy:
    def test_the_policy_travels_in_the_config_not_an_engine_dict(
            self, tmp_path):
        coordinator = FleetCoordinator(tmp_path / "state", shard_size=2)
        cfg = config()
        cfg.policy = RunPolicy(timeout_s=30.0, retries=3)
        coordinator.submit(cfg)
        host_id = coordinator.handle_join({"host": "unit", "pid": 1})["host_id"]
        lease = coordinator.handle_lease({"host_id": host_id})["lease"]
        assert "engine" not in lease
        assert CampaignConfig.from_dict(lease["config"]).policy == cfg.policy


class PoisonSut(JailhouseSUT):
    """The paper's deployment, raising at setup for one marked seed."""

    poison_seed = None

    def setup(self):
        if self.config.seed == self.poison_seed:
            raise RuntimeError(f"poison spec (seed {self.config.seed})")
        super().setup()


@pytest.fixture
def poison_sut():
    """A test-only SUT registry key (registered once per process)."""
    if "test-poison" not in SUTS:
        SUTS.add("test-poison",
                 lambda seed=0: PoisonSut(SutConfig(seed=seed)))
    return "test-poison"


class TestPoisonSpec:
    def test_raising_spec_is_submitted_as_infra_crash(self, poison_sut,
                                                      monkeypatch):
        # A default agent runs the lease's config policy (RunPolicy(): one
        # retry, then quarantine), so a spec whose SUT raises comes back as
        # one infra_crash record instead of an exception that kills the
        # worker and leaves the lease to expire onto the next host.
        cfg = config()
        cfg.sut = PartRef(poison_sut)
        plan = cfg.compile()
        monkeypatch.setattr(PoisonSut, "poison_seed", plan.specs[2].seed)
        lease = {"lease_id": "l000001", "shard_id": "s0", "campaign_id": "c1",
                 "config": cfg.to_dict(),
                 "spec_ids": [spec.identity() for spec in plan]}
        records = FleetWorkerAgent("http://127.0.0.1:1")._execute(lease)
        assert [record["spec_name"] for record in records] == \
               [spec.name for spec in plan]
        outcomes = [record["outcome"] for record in records]
        assert outcomes[2] == "infra_crash"
        assert "infra_crash" not in outcomes[:2] + outcomes[3:]
        assert records[2]["extras"]["spec_id"] == plan.specs[2].identity()


class TestRejoin:
    def test_unknown_host_is_told_to_rejoin_not_errored(self, tmp_path):
        coordinator = FleetCoordinator(tmp_path / "state", shard_size=2)
        coordinator.submit(config())
        response = coordinator.handle_lease({"host_id": "h9999"})
        assert response["lease"] is None
        assert response["state"] == "rejoin"
        beat = coordinator.handle_heartbeat(
            {"host_id": "h9999", "leases": {"l000001": {"completed": 1}}})
        assert beat["rejoin"] is True and beat["revoked"] == ["l000001"]


class TestResume:
    def test_resume_without_state_is_a_hard_error(self, tmp_path):
        coordinator = FleetCoordinator(tmp_path / "state")
        with pytest.raises(FleetError, match="cannot resume"):
            coordinator.resume()

    def test_resume_reoffers_only_unfinished_work(self, tmp_path,
                                                  serial_checkpoint):
        state_dir = tmp_path / "state"
        first = FleetCoordinator(state_dir, shard_size=2)
        with FleetServer(first) as server:
            campaign_id = first.submit(config())
            run_workers(server.url, "partial", max_shards=1,
                        until_done=False)
        done_before = len(first.campaigns[campaign_id].merged)
        assert done_before == 2

        second = FleetCoordinator(state_dir, shard_size=2)
        assert second.resume() == 1
        entry = second.campaigns[campaign_id]
        assert len(entry.merged) == done_before
        # Only the unfinished specs were re-sharded.
        remaining = sum(len(item.shard)
                        for item in second.table.shards())
        assert remaining == TESTS - done_before

        with FleetServer(second) as server:
            run_workers(server.url, "finisher")
        assert second.all_done()
        merged_path = state_dir / f"{campaign_id}.records.jsonl"
        assert merged_path.read_bytes() == serial_checkpoint.read_bytes()
