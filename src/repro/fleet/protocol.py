"""The ``repro-fleet/v1`` wire protocol: JSON over HTTP, stdlib only.

The fleet speaks a small versioned request/response protocol between one
coordinator (``repro-fi serve``) and any number of worker agents
(``repro-fi fleet-worker``), plus operator tools (``submit``,
``fleet-status``). Every message — request and response — is one JSON object
carrying ``"schema": "repro-fleet/v1"``; a peer speaking any other version
is rejected up front (:func:`validate_message`), so a protocol change bumps
the version instead of silently misinterpreting fields.

Endpoints (all under the coordinator's HTTP server):

``POST /fleet/join``
    ``{host, pid}`` → ``{host_id, lease_ttl_s, heartbeat_interval_s}``.
    Registration is cheap and repeatable: a worker whose ``host_id`` the
    coordinator no longer knows (coordinator restart) simply joins again.
``POST /fleet/lease``
    ``{host_id}`` → ``{lease}`` with ``lease_id``, ``shard_id``,
    ``campaign_id``, the campaign ``config`` (the declarative TOML/JSON dict
    is the wire format; it also carries the campaign's supervision policy)
    and the shard's ``spec_ids``; or ``{lease: null, state}`` where
    ``state`` is ``wait``
    (no work *right now*: everything is leased out or backing off) or
    ``done`` (every submitted campaign is complete).
``POST /fleet/heartbeat``
    ``{host_id, leases: {lease_id: {completed}}}`` → renews the TTL of every
    named lease; the response's ``revoked`` list names leases the
    coordinator no longer honors (expired or stolen) so the holder can stop
    working on them.
``POST /fleet/submit``
    ``{host_id, lease_id, shard_id, campaign_id, records: [...]}`` →
    ``{merged, duplicates}``. **Idempotent**: records are deduplicated by
    spec identity, so at-least-once delivery (a worker retrying after a
    dropped response, a stolen shard finishing twice) merges into exactly
    one record per spec.
``POST /fleet/campaign``
    ``{config, options}`` → ``{campaign_id}``. Operator submission.
``GET /fleet/status``
    Full fleet status (campaigns, shards, hosts, leases).
``GET /fleet/records?campaign=ID``
    The campaign's merged records as JSON-Lines, in plan order.

Transport errors map to HTTP status codes (400 protocol violation, 404
unknown resource, 409 conflict); the body is still a ``repro-fleet/v1``
object with an ``error`` field, so clients report the coordinator's words,
not an HTML error page.
"""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.parse
import urllib.request
from typing import Dict, List, Optional

from repro.core.recording import DECODE_ERRORS, ExperimentRecord, record_lines
from repro.errors import (
    AnalysisError,
    FleetError,
    FleetProtocolError,
    FleetUnavailableError,
)

#: Version stamp carried by every fleet message, both directions.
FLEET_SCHEMA = "repro-fleet/v1"

#: Default lease TTL: a lease not renewed by a heartbeat for this long is
#: considered lost and its shard is requeued.
DEFAULT_LEASE_TTL_S = 15.0

#: Default heartbeat interval the coordinator asks workers to use (TTL/3, so
#: a lease survives two dropped heartbeats but not three).
DEFAULT_HEARTBEAT_INTERVAL_S = 5.0


def envelope(**fields) -> dict:
    """A fleet message: the given fields under the version stamp."""
    return {"schema": FLEET_SCHEMA, **fields}


def validate_message(data: object, *, context: str = "fleet message") -> dict:
    """Check one parsed message is a ``repro-fleet/v1`` object.

    Returns the dict on success; raises :class:`FleetProtocolError` naming
    the problem otherwise. Field-level validation stays with each endpoint —
    this is the version gate every message passes first.
    """
    if not isinstance(data, dict):
        raise FleetProtocolError(f"{context}: not a JSON object")
    schema = data.get("schema")
    if schema != FLEET_SCHEMA:
        raise FleetProtocolError(
            f"{context}: schema is {schema!r}, expected {FLEET_SCHEMA!r} "
            f"(coordinator and workers must run compatible versions)"
        )
    return data


def parse_records(raw: bytes) -> List[ExperimentRecord]:
    """Decode a ``/fleet/records`` body, one record per non-blank line.

    Lines follow :func:`~repro.core.recording.record_lines`, as every
    record reader's do; a line that is not UTF-8, not JSON or not a record
    is a :class:`FleetProtocolError` naming it.
    """
    records = []
    for lineno, line in record_lines(
            raw.decode("utf-8", DECODE_ERRORS).split("\n")):
        try:
            records.append(ExperimentRecord.from_json(line))
        except AnalysisError as exc:
            raise FleetProtocolError(
                f"records response line {lineno}: {exc}") from None
    return records


def require_fields(data: object, fields: List[str], *,
                   context: str) -> None:
    """Check ``data`` is an object holding every name in ``fields``.

    A string is not an object: ``in`` would test it for substrings.
    """
    if not isinstance(data, dict):
        raise FleetProtocolError(f"{context}: not a JSON object")
    missing = [field for field in fields if field not in data]
    if missing:
        raise FleetProtocolError(
            f"{context}: missing required field(s) {', '.join(missing)}"
        )


class FleetClient:
    """Stdlib HTTP client for the coordinator's fleet endpoints.

    Every method raises :class:`FleetError` on transport failure (connection
    refused, timeout) and :class:`FleetProtocolError` on malformed or
    version-mismatched responses, so callers can distinguish "coordinator is
    down — retry with backoff" from "wrong software on the other end — stop".
    """

    def __init__(self, base_url: str, *, timeout_s: float = 10.0) -> None:
        # Checked here, not on the first request: urllib would raise a bare
        # ValueError for a URL it cannot parse or has no handler for.
        try:
            parts = urllib.parse.urlsplit(base_url)
            parts.port  # raises unless the port is an integer in 0-65535
            if parts.scheme not in ("http", "https") or not parts.hostname:
                raise ValueError("expected http(s)://HOST[:PORT]")
        except ValueError as exc:
            raise FleetError(
                f"bad coordinator URL {base_url!r}: {exc}") from None
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    # -- plumbing -----------------------------------------------------------------------

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None) -> dict:
        url = f"{self.base_url}{path}"
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(envelope(**payload)).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=body, headers=headers,
                                         method=method)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as response:
                raw = response.read()
        except urllib.error.HTTPError as exc:
            # The coordinator answers errors with a fleet-schema body; relay
            # its words when it did, the HTTP status when it could not.
            raw = exc.read()
            try:
                data = validate_message(json.loads(raw.decode("utf-8")),
                                        context=f"{method} {path} error body")
            except (FleetProtocolError, ValueError, UnicodeDecodeError):
                raise FleetError(
                    f"{method} {path} failed: HTTP {exc.code} {exc.reason}"
                ) from None
            raise FleetError(
                f"{method} {path} failed: "
                f"{data.get('error', f'HTTP {exc.code}')}"
            ) from None
        except (urllib.error.URLError, socket.timeout, OSError,
                ConnectionError) as exc:
            reason = getattr(exc, "reason", exc)
            raise FleetUnavailableError(
                f"cannot reach fleet coordinator at {self.base_url}: {reason}"
            ) from None
        try:
            data = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise FleetProtocolError(
                f"{method} {path}: response is not JSON: {exc}") from None
        return validate_message(data, context=f"{method} {path} response")

    # -- worker endpoints ---------------------------------------------------------------

    def join(self, *, host: str, pid: int) -> dict:
        response = self._request("POST", "/fleet/join",
                                 {"host": host, "pid": pid})
        require_fields(response,
                       ["host_id", "lease_ttl_s", "heartbeat_interval_s"],
                       context="join response")
        return response

    def lease(self, *, host_id: str) -> dict:
        response = self._request("POST", "/fleet/lease",
                                 {"host_id": host_id})
        if response.get("lease") is not None:
            require_fields(response["lease"],
                           ["lease_id", "shard_id", "campaign_id", "config",
                            "spec_ids"],
                           context="lease response")
        return response

    def heartbeat(self, *, host_id: str,
                  leases: Dict[str, dict]) -> dict:
        return self._request("POST", "/fleet/heartbeat",
                             {"host_id": host_id, "leases": leases})

    def submit_records(self, *, host_id: str, lease_id: str, shard_id: str,
                       campaign_id: str, records: List[dict]) -> dict:
        response = self._request("POST", "/fleet/submit", {
            "host_id": host_id,
            "lease_id": lease_id,
            "shard_id": shard_id,
            "campaign_id": campaign_id,
            "records": records,
        })
        require_fields(response, ["merged", "duplicates"],
                       context="submit response")
        return response

    # -- operator endpoints -------------------------------------------------------------

    def submit_campaign(self, *, config: dict,
                        options: Optional[dict] = None) -> dict:
        response = self._request("POST", "/fleet/campaign",
                                 {"config": config,
                                  "options": options or {}})
        require_fields(response, ["campaign_id"],
                       context="campaign submission response")
        return response

    def status(self) -> dict:
        return self._request("GET", "/fleet/status")

    def records(self, campaign_id: str) -> List[ExperimentRecord]:
        """The campaign's merged records, in plan order.

        The response body is decoded by :func:`parse_records`.
        """
        url = f"{self.base_url}/fleet/records?campaign={campaign_id}"
        request = urllib.request.Request(url)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as response:
                raw = response.read()
        except urllib.error.HTTPError as exc:
            raise FleetError(
                f"cannot fetch records for campaign {campaign_id!r}: "
                f"HTTP {exc.code} {exc.reason}") from None
        except (urllib.error.URLError, socket.timeout, OSError,
                ConnectionError) as exc:
            raise FleetUnavailableError(
                f"cannot reach fleet coordinator at {self.base_url}: "
                f"{getattr(exc, 'reason', exc)}") from None
        return parse_records(raw)
