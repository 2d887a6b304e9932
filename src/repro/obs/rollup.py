"""Thread-safe rollups behind the watch server.

The engine runs in one thread (or the ``watch`` tailer does) and the HTTP
server answers from others, so everything meeting in the middle lives here:
a :class:`TelemetryHub` that consumes the engine's progress seam — the
``(AggregateSnapshot, ExperimentResult)`` pairs every completed experiment
already produces — plus the telemetry event stream, and serves immutable
JSON-ready views to ``/metrics.json`` and ``/events`` under a lock.

The hub is deliberately *derived-state only*: it never touches the engine or
the records, so a crashed dashboard can never take a campaign down with it.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.analysis.figures import ascii_bar_chart, ascii_sparkline
from repro.analysis.stats import proportion_confidence_interval
from repro.core.outcomes import Outcome

#: Schema of the ``/metrics.json`` payload.
METRICS_SCHEMA = "repro-metrics/v1"

#: How many recent telemetry events each SSE client can lag behind before
#: the hub drops events for it (slow consumers must not block the campaign).
_SSE_QUEUE_CAPACITY = 256

#: Ring-buffer length of the throughput history (one point per completion).
_THROUGHPUT_POINTS = 600


class TelemetryHub:
    """Aggregates live campaign state for the watch endpoints.

    Feed it from the engine's progress callback (:meth:`on_progress`) and —
    for the raw event tail — subscribe :meth:`on_event` to the
    :class:`~repro.obs.telemetry.Telemetry` bus. Both are cheap (dict
    updates under a lock); the expensive rendering happens in
    :meth:`metrics` on the reader's thread.
    """

    def __init__(self, *, convergence_outcome: Outcome = Outcome.CORRECT) -> None:
        self._lock = threading.Lock()
        self._campaign: Dict[str, object] = {}
        self._snapshot: Optional[dict] = None
        self._state = "waiting"
        self._started = time.time()
        self._updated: Optional[float] = None
        self._workers: Dict[str, Dict[str, float]] = {}
        self._throughput: Deque[Tuple[float, float]] = deque(
            maxlen=_THROUGHPUT_POINTS)
        self._prefix_wall_total = 0.0
        self._suffix_wall_total = 0.0
        self._timed_experiments = 0
        self._convergence_outcome = convergence_outcome
        self._convergence_seen = 0
        self._convergence_hits = 0
        #: Supervision counters, fed by the fault-tolerance events.
        self._fault_tolerance: Dict[str, int] = {
            "worker_crashes": 0,
            "worker_respawns": 0,
            "retries": 0,
            "timeouts": 0,
            "quarantined": 0,
        }
        #: Fleet counters, fed by the coordinator's repro-fleet events.
        self._fleet: Dict[str, int] = {
            "hosts_joined": 0,
            "hosts_lost": 0,
            "leases_granted": 0,
            "leases_expired": 0,
            "shards_stolen": 0,
            "records_merged": 0,
            "duplicates": 0,
        }
        #: campaign id → {merged, total}, from result_merged payloads.
        self._fleet_campaigns: Dict[str, Dict[str, int]] = {}
        self._events: Deque[dict] = deque(maxlen=_SSE_QUEUE_CAPACITY)
        self._subscribers: List["queue.Queue[dict]"] = []

    # -- feeding (campaign thread) ------------------------------------------------------

    def set_campaign(self, name: str, total: int, **meta) -> None:
        with self._lock:
            self._campaign = {"name": name, "total": total, **meta}
            self._state = "running"
            self._started = time.time()

    def on_progress(self, snapshot, result) -> None:
        """Engine progress seam: one call per completed experiment."""
        with self._lock:
            self._snapshot = snapshot.to_dict()
            self._updated = time.time()
            self._state = "running"
            self._throughput.append((snapshot.elapsed, snapshot.throughput))
            worker = str(result.worker_id if result.worker_id is not None
                         else "restored")
            stats = self._workers.setdefault(
                worker, {"completed": 0, "busy_s": 0.0, "prefix_s": 0.0})
            stats["completed"] += 1
            stats["busy_s"] += result.wall_time
            if result.prefix_wall_time is not None:
                stats["prefix_s"] += result.prefix_wall_time
                self._prefix_wall_total += result.prefix_wall_time
                self._suffix_wall_total += max(
                    0.0, result.wall_time - result.prefix_wall_time)
                self._timed_experiments += 1
            self._convergence_seen += 1
            if result.outcome is self._convergence_outcome:
                self._convergence_hits += 1

    #: kind → fault-tolerance counter it increments.
    _FAULT_COUNTERS = {
        "worker_crash": "worker_crashes",
        "worker_respawn": "worker_respawns",
        "experiment_retry": "retries",
        "experiment_timeout": "timeouts",
        "spec_quarantined": "quarantined",
    }

    #: fleet kind → fleet counter it increments.
    _FLEET_COUNTERS = {
        "host_joined": "hosts_joined",
        "host_lost": "hosts_lost",
        "lease_granted": "leases_granted",
        "lease_expired": "leases_expired",
        "shard_stolen": "shards_stolen",
    }

    def _on_fleet_event_locked(self, kind: str, payload: dict) -> None:
        """Fold one coordinator event into the fleet rollup (lock held)."""
        counter = self._FLEET_COUNTERS.get(kind)
        if counter is not None:
            self._fleet[counter] += 1
        if kind != "result_merged":
            return
        def count(key):
            value = payload.get(key)
            return (value if isinstance(value, int)
                    and not isinstance(value, bool) else 0)
        self._fleet["records_merged"] += count("merged")
        self._fleet["duplicates"] += count("duplicates")
        campaign = payload.get("campaign")
        if isinstance(campaign, str):
            self._fleet_campaigns[campaign] = {
                "merged": count("campaign_merged"),
                "total": count("campaign_total"),
            }

    def on_event(self, event) -> None:
        """Telemetry-bus subscriber: retains and fans out the event tail."""
        payload = event.to_dict()
        kind = payload.get("kind")
        counter = self._FAULT_COUNTERS.get(kind)
        with self._lock:
            if counter is not None:
                self._fault_tolerance[counter] += 1
            self._on_fleet_event_locked(kind, payload.get("payload") or {})
            self._events.append(payload)
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            try:
                subscriber.put_nowait(payload)
            except queue.Full:
                # A stalled SSE client loses events rather than applying
                # backpressure to the campaign.
                pass

    def mark_done(self) -> None:
        with self._lock:
            self._state = "done"

    # -- serving (HTTP threads) ---------------------------------------------------------

    def subscribe_events(self) -> "queue.Queue[dict]":
        """Register an SSE client; returns its event queue (pre-seeded with
        the retained tail so a late-joining dashboard sees history)."""
        subscriber: "queue.Queue[dict]" = queue.Queue(
            maxsize=_SSE_QUEUE_CAPACITY)
        with self._lock:
            for payload in self._events:
                try:
                    subscriber.put_nowait(payload)
                except queue.Full:
                    break
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe_events(self, subscriber: "queue.Queue[dict]") -> None:
        with self._lock:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

    def _convergence_view(self) -> dict:
        n = self._convergence_seen
        fraction = self._convergence_hits / n if n else 0.0
        low, high = (proportion_confidence_interval(self._convergence_hits, n)
                     if n else (0.0, 0.0))
        return {
            "outcome": self._convergence_outcome.value,
            "n": n,
            "fraction": fraction,
            "ci_low": low,
            "ci_high": high,
            "ci_width": high - low,
        }

    def metrics(self) -> dict:
        """The ``/metrics.json`` payload: snapshot + rollups + ascii charts."""
        with self._lock:
            snapshot = dict(self._snapshot) if self._snapshot else None
            campaign = dict(self._campaign)
            state = self._state
            updated = self._updated
            workers = {name: dict(stats)
                       for name, stats in self._workers.items()}
            throughput = list(self._throughput)
            convergence = self._convergence_view()
            prefix_total = self._prefix_wall_total
            suffix_total = self._suffix_wall_total
            timed = self._timed_experiments
            fault_tolerance = dict(self._fault_tolerance)
            fleet = dict(self._fleet)
            fleet_campaigns = {campaign: dict(progress) for campaign, progress
                               in self._fleet_campaigns.items()}
        payload: dict = {
            "schema": METRICS_SCHEMA,
            "ts": time.time(),
            "state": state,
            "campaign": campaign,
            "snapshot": snapshot,
            "updated_ts": updated,
            "workers": [
                {"worker": name, **stats}
                for name, stats in sorted(workers.items())
            ],
            "throughput": {
                "current_per_s": throughput[-1][1] if throughput else 0.0,
                "series": [
                    {"elapsed_s": elapsed, "per_s": value}
                    for elapsed, value in throughput
                ],
            },
            "convergence": convergence,
            "timing": {
                "prefix_wall_s_total": prefix_total,
                "post_injection_wall_s_total": suffix_total,
                "timed_experiments": timed,
            },
            "fault_tolerance": fault_tolerance,
            "fleet": {
                **fleet,
                "active": bool(fleet["hosts_joined"] or fleet_campaigns),
                "campaigns": [
                    {"campaign": campaign, **progress}
                    for campaign, progress in sorted(fleet_campaigns.items())
                ],
            },
        }
        outcome_counts = (snapshot or {}).get("outcome_counts") or {}
        completed = (snapshot or {}).get("completed") or 0
        # Same fixed display order as the HTML dashboard, so the two views
        # of one campaign read identically.
        from repro.obs.dashboard import OUTCOME_ORDER

        def rank(item):
            name = item[0]
            position = (OUTCOME_ORDER.index(name)
                        if name in OUTCOME_ORDER else len(OUTCOME_ORDER))
            return (position, name)

        fractions = {
            outcome: count / completed
            for outcome, count in sorted(outcome_counts.items(), key=rank)
        } if completed else {}
        payload["ascii"] = {
            "outcome_bars": ascii_bar_chart(fractions,
                                            title="outcome distribution"),
            "throughput_sparkline": ascii_sparkline(
                [value for _, value in throughput], width=60),
        }
        return payload
