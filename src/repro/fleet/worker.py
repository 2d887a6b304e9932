"""The fleet worker agent behind ``repro-fi fleet-worker``.

A worker agent joins a coordinator, pulls shard leases, runs each shard
through the exact same :class:`~repro.engine.runner.CampaignEngine` a
single-host campaign uses (``--jobs`` and the supervision flags compose
unchanged — the fleet adds a layer *above* the engine, not a different
engine), and submits the resulting records back. Because leases carry the
campaign's declarative config dict and the compiled plan is deterministic,
every worker derives the exact same spec identities from the same wire
bytes — that is what makes idempotent, identity-keyed result merging
possible. The same config carries the campaign's
:class:`~repro.core.policy.RunPolicy`, so a spec that crashes or hangs is
retried and then submitted as an ``infra_*`` record, exactly as in a
single-host run; it never takes the worker down.

Failure behavior, by design:

* **Coordinator unreachable** (restart, network blip): operations back off
  and retry for ``offline_grace_s``; only a grace-window overrun is fatal.
  A coordinator that comes back with empty state answers ``rejoin`` and the
  agent simply registers again — in-flight shard results are still
  submitted (the coordinator accepts records regardless of registration;
  dedup makes that safe).
* **Lease revoked** (expired while this agent was slow, or stolen): the
  agent finishes the shard anyway and submits; the coordinator's
  identity-keyed merge collapses the duplicate work to one record set.
  Abandoning mid-engine would forfeit real progress for no correctness
  gain.
* **Worker death** (crash, SIGKILL): nothing to do here — the lease TTL
  lapses on the coordinator and the shard is requeued for someone else.

A background thread heartbeats every ``heartbeat_interval_s`` the
coordinator asked for, carrying per-lease progress so the coordinator's
steal rule can tell *slow-but-working* holders from stuck ones.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import CampaignConfig
from repro.core.plan import TestPlan
from repro.core.policy import RunPolicy
from repro.core.recording import ExperimentRecord
from repro.engine.runner import CampaignEngine
from repro.errors import (
    FleetError,
    FleetProtocolError,
    FleetUnavailableError,
)
from repro.fleet.protocol import FleetClient

#: Initial retry delay when the coordinator is unreachable; doubles per
#: attempt up to the cap.
_RETRY_BASE_S = 0.5
_RETRY_CAP_S = 5.0


def default_host_name() -> str:
    """This agent's host label: hostname, pid-qualified for local fleets."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _as_configured(policy: RunPolicy) -> RunPolicy:
    return policy


class FleetWorkerAgent:
    """One worker: join, lease, execute, submit — until done or told to stop.

    Each shard runs under the policy of the campaign config its lease
    carries, passed through ``policy``: a function from that policy to the
    one to run. The default keeps it; ``repro-fi fleet-worker`` applies its
    ``--timeout``/``--retries``/``--max-worker-restarts`` flags there,
    exactly like CLI flags override a config in a single-host run.
    """

    def __init__(self, base_url: str, *,
                 host: Optional[str] = None,
                 jobs: int = 1,
                 policy: Callable[[RunPolicy], RunPolicy] = _as_configured,
                 sut: Optional[str] = None,
                 poll_s: float = 1.0,
                 offline_grace_s: float = 60.0,
                 until_done: bool = True,
                 max_shards: Optional[int] = None,
                 client: Optional[FleetClient] = None,
                 log: Optional[Callable[[str], None]] = None) -> None:
        self.client = client if client is not None else FleetClient(base_url)
        self.host = host or default_host_name()
        self.jobs = jobs
        self.policy = policy
        self.sut = sut
        self.poll_s = poll_s
        self.offline_grace_s = offline_grace_s
        self.until_done = until_done
        self.max_shards = max_shards
        self.log = log
        self.host_id: Optional[str] = None
        self.heartbeat_interval_s = 1.0
        #: Shards executed and records merged/deduplicated, for the summary.
        self.stats: Dict[str, int] = {
            "shards": 0, "records": 0, "merged": 0, "duplicates": 0,
        }
        #: campaign_id → (config, identity → spec) cache; configs repeat
        #: across leases of the same campaign, compiling is not free.
        self._campaigns: Dict[str, Tuple[CampaignConfig, dict]] = {}
        #: lease_id → completed count, read by the heartbeat thread.
        self._progress: Dict[str, int] = {}
        self._progress_lock = threading.Lock()
        self._stop = threading.Event()

    def _say(self, message: str) -> None:
        if self.log is not None:
            self.log(f"[{self.host}] {message}")

    # -- resilient calls ----------------------------------------------------------------

    def _with_retry(self, what: str, call: Callable[[], dict]) -> dict:
        """Run one coordinator call, retrying through unreachability.

        Only :class:`FleetUnavailableError` retries — and only within the
        offline grace window. Every other :class:`FleetError` (protocol
        mismatch, rejected submission) means retrying would not help.
        """
        deadline = time.monotonic() + self.offline_grace_s
        delay = _RETRY_BASE_S
        while True:
            try:
                return call()
            except FleetUnavailableError as exc:
                if self._stop.is_set() or time.monotonic() >= deadline:
                    raise FleetError(
                        f"{what}: coordinator unreachable for more than "
                        f"{self.offline_grace_s:g} s ({exc})") from None
                self._say(f"{what}: {exc}; retrying in {delay:g} s")
                time.sleep(delay)
                delay = min(_RETRY_CAP_S, delay * 2)

    # -- lifecycle ----------------------------------------------------------------------

    def _join(self) -> None:
        response = self._with_retry(
            "join", lambda: self.client.join(host=self.host, pid=os.getpid()))
        self.host_id = response["host_id"]
        self.heartbeat_interval_s = float(response["heartbeat_interval_s"])
        if response.get("quarantined"):
            self._say("joined, but this host name is quarantined; the "
                      "coordinator will grant it no leases")
        self._say(f"joined as {self.host_id} "
                  f"(lease TTL {response['lease_ttl_s']:g} s, heartbeat "
                  f"every {self.heartbeat_interval_s:g} s)")

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval_s):
            host_id = self.host_id
            if host_id is None:
                continue
            with self._progress_lock:
                leases = {lease_id: {"completed": completed}
                          for lease_id, completed in self._progress.items()}
            try:
                response = self.client.heartbeat(host_id=host_id,
                                                 leases=leases)
            except FleetError:
                # Liveness is best-effort; the lease/submit paths own
                # retries and rejoin. A missed heartbeat costs TTL slack.
                continue
            for lease_id in response.get("revoked", []):
                if lease_id in leases:
                    self._say(f"lease {lease_id} revoked by coordinator "
                              f"(expired or stolen); finishing and "
                              f"submitting anyway — dedup makes it safe")

    # -- shard execution ----------------------------------------------------------------

    def _campaign(self, campaign_id: str,
                  config_dict: dict) -> Tuple[CampaignConfig, dict]:
        cached = self._campaigns.get(campaign_id)
        if cached is not None:
            return cached
        config = CampaignConfig.from_dict(config_dict)
        plan = config.compile()
        by_identity = {spec.identity(): spec for spec in plan}
        self._campaigns[campaign_id] = (config, by_identity)
        return self._campaigns[campaign_id]

    def _execute(self, lease: dict) -> List[dict]:
        """Run one leased shard through the engine; returns record dicts."""
        campaign_id = lease["campaign_id"]
        config, by_identity = self._campaign(campaign_id, lease["config"])
        specs = []
        for identity in lease["spec_ids"]:
            spec = by_identity.get(identity)
            if spec is None:
                raise FleetProtocolError(
                    f"lease {lease['lease_id']}: spec identity {identity} "
                    f"is not in the compiled plan for campaign "
                    f"{campaign_id!r} — coordinator and worker disagree "
                    f"about the campaign (mixed code versions?)")
            specs.append(spec)
        sub_plan = TestPlan(
            name=f"{config.name}@{lease['shard_id']}", specs=specs)
        identity_by_name = {spec.name: identity
                            for spec, identity in zip(specs,
                                                      lease["spec_ids"])}
        lease_id = lease["lease_id"]
        with self._progress_lock:
            self._progress[lease_id] = 0

        def progress(snapshot, result) -> None:
            with self._progress_lock:
                if lease_id in self._progress:
                    self._progress[lease_id] += 1

        try:
            engine = CampaignEngine(
                sub_plan,
                jobs=self.jobs,
                sut_factory=config.sut_factory(override=self.sut),
                classifier=config.build_classifier(),
                policy=self.policy(config.policy),
                progress=progress,
            )
            result = engine.run()
        finally:
            with self._progress_lock:
                self._progress.pop(lease_id, None)
        records: List[dict] = []
        for experiment in result.results:
            identity = identity_by_name.get(experiment.spec_name)
            if identity is None:          # pragma: no cover - defensive
                continue
            record = ExperimentRecord.from_result(experiment)
            record = replace(
                record, extras={**record.extras, "spec_id": identity})
            records.append(json.loads(record.to_json()))
        return records

    def _submit(self, lease: dict, records: List[dict]) -> None:
        response = self._with_retry(
            f"submit shard {lease['shard_id']}",
            lambda: self.client.submit_records(
                host_id=self.host_id or "",
                lease_id=lease["lease_id"],
                shard_id=lease["shard_id"],
                campaign_id=lease["campaign_id"],
                records=records,
            ))
        self.stats["shards"] += 1
        self.stats["records"] += len(records)
        self.stats["merged"] += int(response.get("merged", 0))
        self.stats["duplicates"] += int(response.get("duplicates", 0))
        self._say(f"shard {lease['shard_id']}: submitted {len(records)} "
                  f"record(s), {response.get('merged', 0)} merged, "
                  f"{response.get('duplicates', 0)} duplicate(s)")

    # -- main loop ----------------------------------------------------------------------

    def stop(self) -> None:
        """Ask the agent to wind down after its current operation."""
        self._stop.set()

    def run(self) -> Dict[str, int]:
        """Work until the fleet is done (or :meth:`stop`); returns stats."""
        self._join()
        heartbeat = threading.Thread(target=self._heartbeat_loop,
                                     name="repro-fleet-heartbeat",
                                     daemon=True)
        heartbeat.start()
        try:
            while not self._stop.is_set():
                response = self._with_retry(
                    "lease",
                    lambda: self.client.lease(host_id=self.host_id or ""))
                lease = response.get("lease")
                if lease is None:
                    state = response.get("state")
                    if state == "rejoin":
                        self._say("coordinator does not know this host "
                                  "(restarted?); rejoining")
                        self._join()
                        continue
                    if state == "done":
                        if self.until_done:
                            self._say("fleet reports all campaigns done")
                            break
                        if self._stop.wait(self.poll_s):
                            break
                        continue
                    # "wait": work exists but none is offerable right now.
                    if self._stop.wait(self.poll_s):
                        break
                    continue
                self._say(f"leased shard {lease['shard_id']} "
                          f"({len(lease['spec_ids'])} spec(s)) of "
                          f"{lease['campaign_id']}")
                records = self._execute(lease)
                self._submit(lease, records)
                if (self.max_shards is not None
                        and self.stats["shards"] >= self.max_shards):
                    self._say(f"reached --max-shards={self.max_shards}")
                    break
        finally:
            self._stop.set()
            heartbeat.join(timeout=self.heartbeat_interval_s + 2.0)
        return dict(self.stats)
