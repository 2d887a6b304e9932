"""Structured telemetry for running campaigns.

The engine emits one event per interesting moment — campaign start/end, every
completed experiment (with its prefix vs post-injection wall-time split,
worker id, and queue depth), every checkpoint flush — through a
:class:`Telemetry` bus. The bus fans each event out to in-process subscribers
(the live ``watch`` rollups) and, when a sink path is configured, appends it
to a JSON-Lines file (``events.jsonl``) next to the record store, in the
``repro-telemetry/v1`` schema below.

**Overhead contract:** a disabled bus (no sink, no subscribers) must cost one
attribute check per call site. :meth:`Telemetry.emit` early-returns before
building the event dict, and the engine additionally guards its call sites,
so a campaign with telemetry off runs the exact hot path it ran before this
module existed (``BENCH_hotpath.json`` gates this in CI).

Schema ``repro-telemetry/v1`` — one JSON object per line:

``schema``
    Always ``"repro-telemetry/v1"``.
``seq``
    Per-bus sequence number, strictly increasing from 0; a gap means lost
    events, a reset means a new campaign appended to the same file.
``ts``
    Unix timestamp (``time.time()``) when the event was emitted.
``kind``
    Event name; the engine emits the kinds in :data:`ENGINE_EVENT_KINDS`,
    but readers must tolerate unknown kinds (the schema is open).
``payload``
    Kind-specific JSON object; see :data:`REQUIRED_PAYLOAD_FIELDS` for the
    fields validation enforces per engine kind.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.errors import ObservabilityError

#: Schema identifier stamped into every event line.
TELEMETRY_SCHEMA = "repro-telemetry/v1"

#: Event kinds the engine emits. The schema is open — plugins may emit their
#: own kinds — but these are the ones validation knows required fields for.
ENGINE_EVENT_KINDS = frozenset({
    "campaign_start",
    "experiment_complete",
    "experiment_restored",
    "checkpoint_flush",
    "campaign_end",
    # Timing spans; nothing emits them any more, but older event files
    # hold them and still validate.
    "span",
    # Supervision layer (fault-tolerant execution):
    "worker_crash",
    "worker_respawn",
    "experiment_retry",
    "experiment_timeout",
    "spec_quarantined",
    # Watch tailer: the records file shrank under the reader (rotation or
    # truncation) and tailing restarted from offset 0.
    "file_rotated",
    # Fleet coordinator (repro-fi serve): worker registration, lease
    # lifecycle (grants, TTL expiries, steals), host loss/quarantine, and
    # idempotent result merges.
    "host_joined",
    "lease_granted",
    "lease_expired",
    "host_lost",
    "shard_stolen",
    "result_merged",
})

#: Payload fields validation requires per engine event kind.
REQUIRED_PAYLOAD_FIELDS: Dict[str, frozenset] = {
    "campaign_start": frozenset({"plan", "total", "jobs"}),
    "experiment_complete": frozenset({
        "spec", "index", "outcome", "wall_s", "completed", "queue_depth",
    }),
    "experiment_restored": frozenset({"spec", "index", "outcome"}),
    "checkpoint_flush": frozenset({"path", "records"}),
    "campaign_end": frozenset({"plan", "completed", "elapsed_s"}),
    "span": frozenset({"name", "elapsed_s"}),
    "worker_crash": frozenset({"worker"}),
    "worker_respawn": frozenset({"worker"}),
    "experiment_retry": frozenset({"spec", "index", "attempt", "reason"}),
    "experiment_timeout": frozenset({"spec", "index", "timeout_s"}),
    "spec_quarantined": frozenset({"spec", "attempts", "reason"}),
    "file_rotated": frozenset({"path"}),
    "host_joined": frozenset({"host", "host_id"}),
    "lease_granted": frozenset({"host", "shard", "campaign", "specs"}),
    "lease_expired": frozenset({"host", "shard", "failures"}),
    "host_lost": frozenset({"host"}),
    "shard_stolen": frozenset({"shard", "from_host", "to_host"}),
    "result_merged": frozenset({"campaign", "merged", "duplicates"}),
}


@dataclass(frozen=True)
class TelemetryEvent:
    """One emitted event: sequence number, wall-clock stamp, kind, payload."""

    seq: int
    ts: float
    kind: str
    payload: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": TELEMETRY_SCHEMA,
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "payload": self.payload,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


#: In-process subscriber: called synchronously with each emitted event.
TelemetrySubscriber = Callable[[TelemetryEvent], None]


class Telemetry:
    """Event bus: fans events out to subscribers and an optional JSONL sink.

    The bus is *inactive* (every ``emit`` a cheap no-op) until it has a sink
    or at least one subscriber, so instrumented code can hold a bus
    unconditionally without paying for it. Emission is synchronous and
    single-threaded by design: the engine emits only from the parent
    process's result loop, the same place the progress callback fires, so
    events are ordered exactly like the records they describe.
    """

    def __init__(self, sink_path: "str | Path | None" = None, *,
                 clock: Callable[[], float] = time.time) -> None:
        self._clock = clock
        self._seq = 0
        self._subscribers: List[TelemetrySubscriber] = []
        self._sink: Optional[io.TextIOBase] = None
        self._sink_path: Optional[Path] = None
        if sink_path is not None:
            self._sink_path = Path(sink_path)
            self._sink_path.parent.mkdir(parents=True, exist_ok=True)
            self._sink = self._sink_path.open("w", encoding="utf-8")
        self._active = self._sink is not None

    @property
    def active(self) -> bool:
        """Whether emitting does anything; instrumentation may guard on this."""
        return self._active

    @property
    def sink_path(self) -> Optional[Path]:
        return self._sink_path

    def subscribe(self, subscriber: TelemetrySubscriber) -> None:
        self._subscribers.append(subscriber)
        self._active = True

    def emit(self, kind: str, **payload) -> Optional[TelemetryEvent]:
        """Emit one event; returns it, or ``None`` when the bus is inactive."""
        if not self._active:
            return None
        event = TelemetryEvent(seq=self._seq, ts=self._clock(), kind=kind,
                               payload=payload)
        self._seq += 1
        if self._sink is not None:
            self._sink.write(event.to_json() + "\n")
            self._sink.flush()
        for subscriber in self._subscribers:
            subscriber(event)
        return event

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None
        self._active = bool(self._subscribers)

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def validate_event_dict(data: object, *,
                        context: str = "telemetry event") -> dict:
    """Validate one parsed event against ``repro-telemetry/v1``.

    Returns the dict on success; raises :class:`ObservabilityError` naming
    what is wrong otherwise. Unknown kinds pass (the schema is open); known
    engine kinds are additionally checked for their required payload fields.
    """
    if not isinstance(data, dict):
        raise ObservabilityError(f"{context}: event is not a JSON object")
    schema = data.get("schema")
    if schema != TELEMETRY_SCHEMA:
        raise ObservabilityError(
            f"{context}: schema is {schema!r}, expected {TELEMETRY_SCHEMA!r}"
        )
    for key, kinds in (("seq", int), ("ts", (int, float)), ("kind", str)):
        if key not in data:
            raise ObservabilityError(f"{context}: missing field {key!r}")
        if not isinstance(data[key], kinds) or isinstance(data[key], bool):
            raise ObservabilityError(
                f"{context}: field {key!r} has type "
                f"{type(data[key]).__name__}, expected {kinds}"
            )
    payload = data.get("payload")
    if not isinstance(payload, dict):
        raise ObservabilityError(f"{context}: payload is not a JSON object")
    required = REQUIRED_PAYLOAD_FIELDS.get(data["kind"])
    if required is not None:
        missing = sorted(required - payload.keys())
        if missing:
            raise ObservabilityError(
                f"{context}: kind {data['kind']!r} payload is missing "
                f"required field(s) {', '.join(missing)}"
            )
    return data


def validate_events_file(path: "str | Path") -> int:
    """Validate every line of an ``events.jsonl`` file; returns the count.

    Checks each line parses, validates against the schema, and that sequence
    numbers are strictly increasing within each run (a ``seq`` reset to 0 is
    allowed — it marks a new campaign appending to the same file; any other
    decrease means interleaved writers or lost events). Any defect,
    including a line that is not UTF-8, raises :class:`ObservabilityError`
    naming ``path:line``.
    """
    path = Path(path)
    if not path.exists():
        raise ObservabilityError(f"telemetry file does not exist: {path}")
    count = 0
    previous_seq: Optional[int] = None
    with path.open("rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            context = f"{path}:{lineno}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ObservabilityError(
                    f"{context}: line is not valid UTF-8: {exc}") from None
            if not line:
                continue
            try:
                data = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # JSONDecodeError, and the integer-length limit and nesting
                # depth the decoder enforces outside it.
                raise ObservabilityError(
                    f"{context}: malformed JSON: {exc}"
                ) from None
            validate_event_dict(data, context=context)
            seq = data["seq"]
            if previous_seq is not None and seq not in (0, previous_seq + 1):
                raise ObservabilityError(
                    f"{context}: sequence number {seq} does not follow "
                    f"{previous_seq} (expected {previous_seq + 1}, or 0 for "
                    f"a new run)"
                )
            previous_seq = seq
            count += 1
    if count == 0:
        raise ObservabilityError(f"telemetry file holds no events: {path}")
    return count
