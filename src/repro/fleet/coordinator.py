"""The campaign fleet coordinator behind ``repro-fi serve``.

One long-running coordinator accepts :class:`~repro.core.config.
CampaignConfig` submissions, shards each compiled plan into lease units
keyed on :meth:`~repro.core.experiment.ExperimentSpec.identity`
(:func:`~repro.engine.scheduler.plan_shards` — whole prefix families, so
each worker's engine still forks whole families), and leases the
shards to worker agents over the ``repro-fleet/v1`` protocol. Results merge
back idempotently, deduplicated by spec identity.

Durability is structural, not best-effort:

* **Results** journal through the engine's :class:`~repro.engine.checkpoint.
  Checkpoint` — every merge is appended and fsynced before it is
  acknowledged, so a SIGKILLed coordinator leaves a loadable record store
  per campaign (at worst with a torn last line, which resume drops).
* **Campaigns** journal to ``state.json`` (temp file + fsync + rename) as
  their declarative config dicts — the wire format doubles as the journal
  format.
* **Leases are deliberately ephemeral.** On ``repro serve --resume`` the
  coordinator reloads the campaigns, subtracts each checkpoint's identity
  stamps from its plan, and re-shards *only the unfinished specs*; workers
  whose coordinator vanished keep their partial work and re-submit it (the
  merge dedups), then re-join. Nothing about who-held-what needs to survive
  a restart for the records to.

The coordinator is thread-safe (one lock; the HTTP server is a
``ThreadingHTTPServer``) and emits fleet telemetry events — ``host_joined``,
``lease_granted``, ``lease_expired``, ``host_lost``, ``shard_stolen``,
``result_merged`` — through the same bus the engine uses, so the watch
dashboard grows a fleet card for free.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs is optional)
    from repro.obs.telemetry import Telemetry

from repro.core.config import CampaignConfig
from repro.core.recording import ExperimentRecord, append_line
from repro.engine.checkpoint import Checkpoint
from repro.engine.scheduler import plan_shards
from repro.errors import AnalysisError, FleetError, FleetProtocolError
from repro.fleet.lease import (
    DEFAULT_BACKOFF_S,
    DEFAULT_HOST_FAILURE_LIMIT,
    LeaseTable,
)
from repro.fleet.protocol import (
    DEFAULT_HEARTBEAT_INTERVAL_S,
    DEFAULT_LEASE_TTL_S,
    envelope,
    require_fields,
    validate_message,
)

#: Schema of the coordinator's ``state.json`` journal.
STATE_SCHEMA = "repro-fleet-state/v1"

#: Schema of the quarantined-hosts sidecar (one JSON object per line) —
#: the fleet sibling of the engine's ``repro-quarantine/v1`` spec sidecar.
HOST_QUARANTINE_SCHEMA = "repro-fleet-quarantine/v1"

#: Default specs per shard (lease unit). Small enough that losing a host
#: mid-shard forfeits little work; large enough that prefix families stay
#: whole and per-lease overhead amortizes.
DEFAULT_SHARD_SIZE = 8


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as JSON via temp file + fsync + rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


class CampaignEntry:
    """One submitted campaign: config, compiled plan, merged results."""

    def __init__(self, campaign_id: str, config: CampaignConfig,
                 state_dir: Path) -> None:
        self.campaign_id = campaign_id
        self.config = config
        self.plan = config.compile()
        #: identity → plan position, for plan-order finalization.
        self.position: Dict[str, int] = {
            spec.identity(): index for index, spec in enumerate(self.plan)
        }
        self.checkpoint = Checkpoint(state_dir / f"{campaign_id}.records.jsonl")
        self.merged: set = set()
        self.finalized = False

    @property
    def total(self) -> int:
        return len(self.plan)

    @property
    def done(self) -> bool:
        return len(self.merged) >= self.total

    def load_checkpoint(self) -> int:
        count = self.checkpoint.load()
        self.merged = {
            identity for identity in self.checkpoint.completed_identities()
            if identity in self.position
        }
        return count

    def ordered_records(self) -> List[ExperimentRecord]:
        """The merged records so far, in plan order."""
        records = [
            (self.position[identity], self.checkpoint.record_by_identity(identity))
            for identity in self.merged
        ]
        return [record for _, record in sorted(records, key=lambda pair: pair[0])
                if record is not None]

    def to_state(self) -> dict:
        return {
            "campaign_id": self.campaign_id,
            "name": self.config.name,
            "config": self.config.to_dict(),
        }


class FleetCoordinator:
    """Shards campaigns, leases them out, merges results. Thread-safe."""

    def __init__(self, state_dir: "str | Path", *,
                 lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
                 heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
                 steal_after_s: Optional[float] = None,
                 shard_size: int = DEFAULT_SHARD_SIZE,
                 host_failure_limit: int = DEFAULT_HOST_FAILURE_LIMIT,
                 backoff_s: float = DEFAULT_BACKOFF_S,
                 telemetry: "Telemetry | None" = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        # ``not x > 0`` refuses NaN too, which would make a lease never expire.
        if not lease_ttl_s > 0:
            raise FleetError(f"lease TTL must be positive, got {lease_ttl_s}")
        if not heartbeat_interval_s > 0:
            raise FleetError(
                f"heartbeat interval must be positive, got "
                f"{heartbeat_interval_s}")
        if shard_size <= 0:
            raise FleetError(f"shard size must be positive, got {shard_size}")
        self.state_dir = Path(state_dir)
        self.lease_ttl_s = lease_ttl_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.shard_size = shard_size
        self.clock = clock
        self._lock = threading.Lock()
        self.table = LeaseTable(
            lease_ttl_s=lease_ttl_s,
            steal_after_s=steal_after_s,
            backoff_s=backoff_s,
            host_failure_limit=host_failure_limit,
        )
        self.campaigns: Dict[str, CampaignEntry] = {}
        self._campaign_order: List[str] = []
        self.telemetry = telemetry if (telemetry is not None
                                       and telemetry.active) else None
        # The bus is single-threaded by contract (the engine emits only from
        # its parent loop); the coordinator emits from HTTP handler threads
        # and the sweeper, so fleet emission serializes through this lock.
        self._emit_lock = threading.Lock()
        #: Hosts already reported lost (one host_lost event per loss).
        self._lost_hosts: set = set()
        #: Optional hook called with each freshly merged record (the serve
        #: front-end feeds the watch hub's aggregate view through it).
        self.on_record: Optional[Callable[[ExperimentRecord], None]] = None

    def _emit(self, kind: str, **payload) -> None:
        if self.telemetry is None:
            return
        with self._emit_lock:
            self.telemetry.emit(kind, **payload)

    # -- persistence --------------------------------------------------------------------

    @property
    def state_path(self) -> Path:
        return self.state_dir / "state.json"

    @property
    def host_quarantine_path(self) -> Path:
        return self.state_dir / "hosts.quarantine"

    def _save_state(self) -> None:
        payload = {
            "schema": STATE_SCHEMA,
            "campaigns": [
                self.campaigns[campaign_id].to_state()
                for campaign_id in self._campaign_order
            ],
        }
        _atomic_write_json(self.state_path, payload)

    def resume(self) -> int:
        """Reload journaled campaigns; returns how many were recovered.

        Each campaign's checkpoint is reloaded and its plan re-sharded over
        the specs whose identities are *not* already stamped there — so a
        resumed coordinator re-offers exactly the unfinished work, and a
        record merged before the crash is never executed again.
        """
        path = self.state_path
        if not path.exists():
            raise FleetError(
                f"cannot resume: no fleet state at {path} "
                f"(start without --resume to create a fresh state dir)")
        try:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise FleetError(f"cannot read fleet state {path}: {exc}") from exc
        if payload.get("schema") != STATE_SCHEMA:
            raise FleetError(
                f"{path}: schema is {payload.get('schema')!r}, expected "
                f"{STATE_SCHEMA!r}")
        # Resume runs before the HTTP threads start, but the campaign table
        # is guarded state: take the lock anyway so the discipline holds
        # statically, not just by start-up ordering.
        with self._lock:
            for entry in payload.get("campaigns", []):
                config = CampaignConfig.from_dict(entry["config"])
                self._add_campaign_locked(entry["campaign_id"], config,
                                          resume=True)
        return len(self._campaign_order)

    # -- submission ---------------------------------------------------------------------

    def submit(self, config: "CampaignConfig | dict") -> str:
        """Accept one campaign; returns its id. Journals synchronously."""
        if isinstance(config, dict):
            config = CampaignConfig.from_dict(config)
        with self._lock:
            campaign_id = f"c{len(self._campaign_order) + 1:03d}-{config.name}"
            if campaign_id in self.campaigns:
                raise FleetError(
                    f"campaign id collision for {campaign_id!r}")
            self._add_campaign_locked(campaign_id, config, resume=False)
            self._save_state()
        return campaign_id

    def _add_campaign_locked(self, campaign_id: str, config: CampaignConfig,
                             *, resume: bool) -> None:
        entry = CampaignEntry(campaign_id, config, self.state_dir)
        if resume:
            entry.load_checkpoint()
        else:
            entry.checkpoint.clear()
        shards = plan_shards(entry.plan, shard_size=self.shard_size,
                             skip_identities=entry.merged)
        self.campaigns[campaign_id] = entry
        self._campaign_order.append(campaign_id)
        self.table.add_shards(campaign_id, shards)
        if entry.done:
            self._finalize(entry)

    # -- worker protocol ----------------------------------------------------------------

    def handle_join(self, message: dict) -> dict:
        require_fields(message, ["host", "pid"], context="join request")
        now = self.clock()
        with self._lock:
            info = self.table.join(host=str(message["host"]),
                                   pid=int(message["pid"]), now=now)
        self._emit("host_joined", host=info.host, host_id=info.host_id)
        return envelope(
            host_id=info.host_id,
            lease_ttl_s=self.lease_ttl_s,
            heartbeat_interval_s=self.heartbeat_interval_s,
            quarantined=info.quarantined,
        )

    def handle_lease(self, message: dict) -> dict:
        require_fields(message, ["host_id"], context="lease request")
        host_id = str(message["host_id"])
        now = self.clock()
        with self._lock:
            self._sweep_locked(now)
            info = self.table.touch(host_id, now)
            if info is None:
                # Coordinator restart: the worker's registration is gone.
                # Telling it to rejoin (rather than erroring) makes recovery
                # a protocol state, not an exception path.
                return envelope(lease=None, state="rejoin")
            lease, stolen_from, state = self.table.grant(host_id, now)
            if lease is None and self._all_done_locked():
                # A campaign resumed with every record merged leaves no
                # shards, and the lease table calls an empty table idle.
                state = "done"
        if lease is None:
            return envelope(lease=None, state=state)
        entry = self.campaigns[lease.campaign_id]
        shard = self.table.shard(lease.shard_id).shard
        if stolen_from is not None:
            self._emit("shard_stolen", shard=lease.shard_id,
                       from_host=stolen_from, to_host=lease.host)
        self._emit("lease_granted", host=lease.host, shard=lease.shard_id,
                   campaign=lease.campaign_id, specs=len(shard))
        return envelope(lease={
            "lease_id": lease.lease_id,
            "shard_id": lease.shard_id,
            "campaign_id": lease.campaign_id,
            "config": entry.config.to_dict(),
            "spec_ids": list(shard.spec_ids),
            "spec_names": list(shard.spec_names),
            "lease_ttl_s": self.lease_ttl_s,
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "stolen_from": stolen_from,
        })

    def handle_heartbeat(self, message: dict) -> dict:
        require_fields(message, ["host_id"], context="heartbeat request")
        host_id = str(message["host_id"])
        leases = message.get("leases") or {}
        if not isinstance(leases, dict):
            raise FleetProtocolError("heartbeat: 'leases' must be an object")
        now = self.clock()
        with self._lock:
            self._sweep_locked(now)
            info = self.table.touch(host_id, now)
            if info is None:
                return envelope(ok=False, rejoin=True,
                                revoked=sorted(leases))
            revoked = self.table.renew(host_id, leases, now)
        return envelope(ok=True, rejoin=False, revoked=revoked)

    def handle_submit(self, message: dict) -> dict:
        require_fields(message, ["campaign_id", "shard_id", "records"],
                       context="submit request")
        campaign_id = str(message["campaign_id"])
        shard_id = str(message["shard_id"])
        raw_records = message["records"]
        if not isinstance(raw_records, list):
            raise FleetProtocolError("submit: 'records' must be an array")
        entry = self.campaigns.get(campaign_id)
        if entry is None:
            raise FleetError(f"unknown campaign {campaign_id!r}")
        records: List[ExperimentRecord] = []
        for position, raw in enumerate(raw_records):
            try:
                record = ExperimentRecord.from_dict(raw)
            except AnalysisError as exc:
                raise FleetProtocolError(
                    f"submit: record {position} is malformed: {exc}"
                ) from None
            records.append(record)
        host_id = str(message.get("host_id", ""))
        now = self.clock()
        merged = duplicates = conflicts = 0
        fresh: List[ExperimentRecord] = []
        with self._lock:
            self.table.touch(host_id, now)
            for record in records:
                identity = record.spec_id
                if identity is None or identity not in entry.position:
                    raise FleetProtocolError(
                        f"submit: record {record.spec_name!r} carries no "
                        f"known spec identity for campaign {campaign_id!r} "
                        f"(stamp records with spec_id; identities must come "
                        f"from this campaign's plan)")
                if identity in entry.merged:
                    existing = entry.checkpoint.record_by_identity(identity)
                    if (existing is not None
                            and existing.to_json() != record.to_json()):
                        conflicts += 1
                    else:
                        duplicates += 1
                    continue
                entry.checkpoint.commit_record(record)
                entry.merged.add(identity)
                merged += 1
                fresh.append(record)
            shard_entry = self.table.shard(shard_id)
            shard_done = (
                shard_entry is not None
                and all(identity in entry.merged
                        for identity in shard_entry.shard.spec_ids)
            )
            if shard_done:
                self.table.complete(shard_id, host_id=host_id or None)
            campaign_done = entry.done
            if campaign_done:
                self._finalize(entry)
        if conflicts:
            # Deterministic re-execution means a true duplicate is
            # byte-identical; a conflict is a different campaign definition
            # or code version talking to us — refuse loudly, keep ours.
            raise FleetError(
                f"submit: {conflicts} record(s) conflict with already-merged "
                f"records for campaign {campaign_id!r} (same spec identity, "
                f"different payload) — mixed code versions or configs in "
                f"the fleet; the coordinator keeps its existing records")
        self._emit(
            "result_merged",
            campaign=campaign_id,
            shard=shard_id,
            host=host_id,
            merged=merged,
            duplicates=duplicates,
            campaign_merged=len(entry.merged),
            campaign_total=entry.total,
        )
        if self.on_record is not None:
            for record in fresh:
                self.on_record(record)
        return envelope(merged=merged, duplicates=duplicates,
                        campaign_done=campaign_done)

    def _finalize(self, entry: CampaignEntry) -> None:
        """Rewrite a completed campaign's store in plan order (atomic).

        Merge order is submission order — whichever host finished first.
        The finalized store is re-ordered by plan position so it is
        byte-identical to the checkpoint a single-host ``--resume`` run of
        the same campaign would leave behind.
        """
        if entry.finalized:
            return
        entry.checkpoint.replace_records(entry.ordered_records())
        entry.finalized = True

    # -- sweeping -----------------------------------------------------------------------

    def sweep(self) -> int:
        """Expire lapsed leases; returns how many expired. Called
        periodically by the server (and inline on lease/heartbeat traffic).
        """
        now = self.clock()
        with self._lock:
            return len(self._sweep_locked(now))

    def _sweep_locked(self, now: float) -> list:
        quarantined_before = {info.host_id
                              for info in self.table.quarantined_hosts()}
        expired = self.table.expire(now)
        for lease in expired:
            entry = self.table.shard(lease.shard_id)
            self._emit("lease_expired", host=lease.host,
                       shard=lease.shard_id, campaign=lease.campaign_id,
                       failures=entry.failures if entry else 0)
            info = self.table.host(lease.host_id)
            lost = (info is None
                    or info.last_seen_ts + self.lease_ttl_s <= now)
            if lost and lease.host_id not in self._lost_hosts:
                self._lost_hosts.add(lease.host_id)
                self._emit("host_lost", host=lease.host,
                           host_id=lease.host_id)
        for info in self.table.quarantined_hosts():
            if info.host_id not in quarantined_before:
                self._append_host_quarantine(info)
        return expired

    def _append_host_quarantine(self, info) -> None:
        entry = {
            "schema": HOST_QUARANTINE_SCHEMA,
            "host": info.host,
            "host_id": info.host_id,
            "failures": dict(info.shard_failures),
            "reason": "repeated lease losses on the same shard",
            "ts": time.time(),
        }
        append_line(self.host_quarantine_path,
                    json.dumps(entry, sort_keys=True))

    # -- status -------------------------------------------------------------------------

    def all_done(self) -> bool:
        with self._lock:
            return self._all_done_locked()

    def _all_done_locked(self) -> bool:
        return bool(self.campaigns) and all(
            entry.done for entry in self.campaigns.values())

    def status(self) -> dict:
        with self._lock:
            campaigns = []
            for campaign_id in self._campaign_order:
                entry = self.campaigns[campaign_id]
                shard_counts: Dict[str, int] = {"pending": 0, "leased": 0,
                                                "done": 0}
                for shard_entry in self.table.shards():
                    if shard_entry.campaign_id == campaign_id:
                        shard_counts[shard_entry.state] += 1
                campaigns.append({
                    "campaign_id": campaign_id,
                    "name": entry.config.name,
                    "total": entry.total,
                    "merged": len(entry.merged),
                    "done": entry.done,
                    "shards": shard_counts,
                    "records": str(entry.checkpoint.path),
                })
            payload = envelope(
                state="done" if self._all_done_locked()
                else ("idle" if not self.campaigns else "running"),
                lease_ttl_s=self.lease_ttl_s,
                heartbeat_interval_s=self.heartbeat_interval_s,
                shard_size=self.shard_size,
                campaigns=campaigns,
                hosts=[info.to_dict() for info in self.table.hosts()],
                shards=self.table.counts(),
                leases=[lease.to_dict()
                        for entry in self.table.shards()
                        if (lease := entry.lease) is not None],
            )
        return payload

    def records_text(self, campaign_id: str) -> str:
        with self._lock:
            entry = self.campaigns.get(campaign_id)
            if entry is None:
                raise FleetError(f"unknown campaign {campaign_id!r}")
            records = entry.ordered_records()
        return "".join(record.to_json() + "\n" for record in records)


class _FleetHandler(BaseHTTPRequestHandler):
    """One fleet request; the coordinator hangs off the server object."""

    server: "_FleetHTTPServer"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def _send(self, payload: dict,
              status: HTTPStatus = HTTPStatus.OK) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, message: str, status: HTTPStatus) -> None:
        self._send(envelope(error=message), status=status)

    def _read_message(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        try:
            data = json.loads(raw.decode("utf-8") or "{}")
        except (ValueError, UnicodeDecodeError) as exc:
            raise FleetProtocolError(f"request body is not JSON: {exc}") from None
        return validate_message(data, context=f"POST {self.path}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        coordinator = self.server.coordinator
        path = self.path.split("?", 1)[0]
        handlers = {
            "/fleet/join": coordinator.handle_join,
            "/fleet/lease": coordinator.handle_lease,
            "/fleet/heartbeat": coordinator.handle_heartbeat,
            "/fleet/submit": coordinator.handle_submit,
            "/fleet/campaign": self._handle_campaign,
        }
        handler = handlers.get(path)
        if handler is None:
            self._send_error(f"unknown endpoint {path}",
                             HTTPStatus.NOT_FOUND)
            return
        try:
            message = self._read_message()
            response = handler(message)
        except FleetProtocolError as exc:
            self._send_error(str(exc), HTTPStatus.BAD_REQUEST)
        except FleetError as exc:
            self._send_error(str(exc), HTTPStatus.CONFLICT)
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error(f"internal error: {exc}",
                             HTTPStatus.INTERNAL_SERVER_ERROR)
        else:
            self._send(response)

    def _handle_campaign(self, message: dict) -> dict:
        require_fields(message, ["config"], context="campaign submission")
        try:
            campaign_id = self.server.coordinator.submit(message["config"])
        except FleetError:
            raise
        except Exception as exc:
            # CampaignConfigError and friends are the submitter's problem,
            # not an internal error: surface them as protocol-level 400s.
            raise FleetProtocolError(f"campaign config rejected: {exc}") from None
        return envelope(campaign_id=campaign_id)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        coordinator = self.server.coordinator
        path, _, query = self.path.partition("?")
        if path == "/fleet/status":
            self._send(coordinator.status())
        elif path == "/fleet/records":
            params = dict(pair.partition("=")[::2]
                          for pair in query.split("&") if pair)
            campaign_id = params.get("campaign", "")
            try:
                text = coordinator.records_text(campaign_id)
            except FleetError as exc:
                self._send_error(str(exc), HTTPStatus.NOT_FOUND)
                return
            body = text.encode("utf-8")
            self.send_response(HTTPStatus.OK)
            self.send_header("Content-Type",
                             "application/jsonl; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self._send_error(
                f"unknown endpoint {path}: try /fleet/status or "
                f"/fleet/records?campaign=ID", HTTPStatus.NOT_FOUND)


class _FleetHTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, coordinator: FleetCoordinator) -> None:
        super().__init__(address, _FleetHandler)
        self.coordinator = coordinator


class FleetServer:
    """Serves a :class:`FleetCoordinator` over HTTP from background threads.

    Binds loopback by default (a fleet coordinator on an external interface
    is an explicit operator decision, exactly like the watch dashboard); a
    sweeper thread expires lapsed leases even when no requests arrive.
    """

    def __init__(self, coordinator: FleetCoordinator, *,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.coordinator = coordinator
        self.host = host
        self.requested_port = port
        self._server: Optional[_FleetHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._sweeper: Optional[threading.Thread] = None
        self._closing = threading.Event()

    @property
    def port(self) -> int:
        if self._server is None:
            raise FleetError("fleet server is not running")
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "FleetServer":
        if self._server is not None:
            raise FleetError("fleet server is already running")
        try:
            self._server = _FleetHTTPServer(
                (self.host, self.requested_port), self.coordinator)
        except OSError as exc:
            raise FleetError(
                f"cannot bind fleet server on {self.host}:"
                f"{self.requested_port}: {exc}") from None
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-fleet-server", daemon=True)
        self._thread.start()
        interval = max(0.1, min(1.0, self.coordinator.lease_ttl_s / 4))

        def sweep_loop() -> None:
            while not self._closing.wait(interval):
                self.coordinator.sweep()

        self._sweeper = threading.Thread(
            target=sweep_loop, name="repro-fleet-sweeper", daemon=True)
        self._sweeper.start()
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._closing.set()
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self._sweeper is not None:
            self._sweeper.join(timeout=5.0)
        self._server = None
        self._thread = None
        self._sweeper = None

    def __enter__(self) -> "FleetServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
