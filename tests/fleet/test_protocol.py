"""The ``repro-fleet/v1`` wire protocol: version gate, errors, transport.

A fleet mixes long-lived processes on different machines, so the protocol's
job is to fail *loudly and typed*: version mismatches and malformed bodies
are :class:`FleetProtocolError` (retrying cannot help), coordinator
rejections are :class:`FleetError`, and only transport failures are
:class:`FleetUnavailableError` — the one class workers retry through.
"""

import json
import socket
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.errors import (
    FleetError,
    FleetProtocolError,
    FleetUnavailableError,
)
from repro.fleet.coordinator import FleetCoordinator, FleetServer
from repro.fleet.protocol import (
    FLEET_SCHEMA,
    FleetClient,
    envelope,
    require_fields,
    validate_message,
)


class TestMessages:
    def test_envelope_stamps_the_schema(self):
        message = envelope(host="a", pid=1)
        assert message["schema"] == FLEET_SCHEMA
        assert validate_message(message) is message

    def test_non_object_messages_are_rejected(self):
        with pytest.raises(FleetProtocolError, match="not a JSON object"):
            validate_message(["not", "a", "dict"])

    def test_version_mismatch_is_rejected_by_name(self):
        with pytest.raises(FleetProtocolError, match="repro-fleet/v1"):
            validate_message({"schema": "repro-fleet/v0"})

    def test_require_fields_names_what_is_missing(self):
        with pytest.raises(FleetProtocolError, match="host_id"):
            require_fields(envelope(), ["host_id"], context="test")

    @pytest.mark.parametrize("data", [5, None, "host_id", ["host_id"]])
    def test_require_fields_rejects_what_is_not_an_object(self, data):
        # Regression: a number or null raised TypeError, and a string
        # holding the field names passed the substring test.
        with pytest.raises(FleetProtocolError, match="test: not a JSON object"):
            require_fields(data, ["host_id"], context="test")

    @pytest.mark.parametrize("url", [
        "notaurl", "ftp://127.0.0.1:9", "http://", "http://[::1",
        "http://127.0.0.1:99999", "http://127.0.0.1:port",
    ])
    def test_a_url_that_cannot_reach_a_coordinator_is_refused(self, url):
        # Regression: urllib raised a bare ValueError on the first request.
        with pytest.raises(FleetError, match="bad coordinator URL"):
            FleetClient(url)

    def test_lease_that_is_not_an_object_is_a_protocol_error(self,
                                                            monkeypatch):
        client = FleetClient("http://127.0.0.1:9")
        monkeypatch.setattr(client, "_request",
                            lambda *args: envelope(lease=5))
        with pytest.raises(FleetProtocolError, match="lease response"):
            client.lease(host_id="h")


@pytest.fixture()
def server(tmp_path):
    coordinator = FleetCoordinator(tmp_path / "state")
    with FleetServer(coordinator) as running:
        yield running


def post_raw(url, payload):
    """POST arbitrary JSON, bypassing the client's own version stamping."""
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    return urllib.request.urlopen(request, timeout=5)


class TestWire:
    def test_status_round_trips_the_schema(self, server):
        status = FleetClient(server.url).status()
        assert status["schema"] == FLEET_SCHEMA
        assert status["state"] == "idle"

    def test_wrong_version_gets_a_400_with_a_fleet_body(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_raw(f"{server.url}/fleet/join",
                     {"schema": "repro-fleet/v0", "host": "x", "pid": 1})
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert body["schema"] == FLEET_SCHEMA
        assert "repro-fleet/v1" in body["error"]

    def test_malformed_body_gets_a_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/fleet/join", data=b"this is not json",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_unknown_endpoint_surfaces_the_coordinator_words(self, server):
        client = FleetClient(server.url)
        with pytest.raises(FleetError, match="unknown endpoint"):
            client._request("POST", "/fleet/nonsense", {})

    def test_join_heartbeat_round_trip(self, server):
        client = FleetClient(server.url)
        joined = client.join(host="unit", pid=4242)
        assert joined["host_id"].startswith("h")
        assert joined["lease_ttl_s"] > 0
        beat = client.heartbeat(host_id=joined["host_id"], leases={})
        assert beat["ok"] is True and beat["rejoin"] is False

    def test_unknown_host_heartbeat_asks_for_rejoin(self, server):
        client = FleetClient(server.url)
        beat = client.heartbeat(host_id="h9999",
                                leases={"l000001": {"completed": 0}})
        assert beat["ok"] is False and beat["rejoin"] is True
        assert beat["revoked"] == ["l000001"]

    def test_records_for_unknown_campaign_is_a_404(self, server):
        with pytest.raises(FleetError, match="404|unknown campaign"):
            FleetClient(server.url).records("c999-nope")


class _FixedBody(BaseHTTPRequestHandler):
    """Answers every GET with 200 and the class's ``body``."""

    body = b""

    def do_GET(self):
        self.send_response(200)
        self.send_header("Content-Length", str(len(self.body)))
        self.end_headers()
        self.wfile.write(self.body)

    def log_message(self, *args):
        pass


class TestRecordsResponse:
    @pytest.mark.parametrize("body, problem", [
        (b"\xff\xfe\n", "record line is not valid UTF-8"),
        (b"not json\n", "malformed record line"),
        (b'{"spec_name": "x"}\n', "record is missing fields"),
    ], ids=["not-utf8", "not-json", "not-a-record"])
    def test_a_bad_line_is_a_protocol_error_naming_it(self, body, problem):
        handler = type("Handler", (_FixedBody,), {"body": body})
        stub = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=stub.serve_forever, daemon=True)
        thread.start()
        try:
            client = FleetClient(f"http://127.0.0.1:{stub.server_port}",
                                 timeout_s=5)
            with pytest.raises(FleetProtocolError,
                               match=f"^records response line 1: {problem}"):
                client.records("c001-any")
        finally:
            stub.shutdown()
            stub.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()


class TestTransport:
    def test_unreachable_coordinator_is_the_retryable_class(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = FleetClient(f"http://127.0.0.1:{port}", timeout_s=0.5)
        with pytest.raises(FleetUnavailableError):
            client.status()
        with pytest.raises(FleetUnavailableError):
            client.records("c001-any")
        # The retryable class is still a FleetError, so coarse handlers work.
        assert issubclass(FleetUnavailableError, FleetError)
