"""Poison-spec quarantine: the sidecar file of specs the campaign gave up on.

A spec that crashes or times out through every retry is *quarantined*: the
campaign completes anyway (its plan slot is filled with a synthesized
infrastructure result) and the spec's identity plus its last error are
appended here, one JSON object per line (schema ``repro-quarantine/v1``).
The file lives next to the checkpoint (``<checkpoint>.quarantine``; a run
without a checkpoint keeps no log) and is intentionally not the checkpoint
itself: quarantined specs are *not* checkpointed as complete, so a later
``--resume`` naturally re-offers them — the quarantine file is the
human-readable record of what needs attention, not a skip list.

Entry fields: ``spec`` (name), ``spec_id`` (:meth:`ExperimentSpec.identity`),
``seed``, ``scenario``, ``attempts``, ``reason`` (``timeout`` | ``crash`` |
``error``), ``error`` (last error text), ``ts`` (unix seconds).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List

from repro.core.recording import append_line

QUARANTINE_SCHEMA = "repro-quarantine/v1"

#: Suffix appended to a checkpoint path to derive the default location.
QUARANTINE_SUFFIX = ".quarantine"


def default_quarantine_path(checkpoint_path: "str | Path") -> Path:
    """The quarantine file that rides along a given checkpoint."""
    path = Path(checkpoint_path)
    return path.with_name(path.name + QUARANTINE_SUFFIX)


class QuarantineLog:
    """Append-only JSONL log of quarantined specs."""

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)

    def append(self, *, spec: str, spec_id: str, seed: int, scenario: str,
               attempts: int, reason: str, error: str) -> Dict[str, object]:
        entry = {
            "schema": QUARANTINE_SCHEMA,
            "spec": spec,
            "spec_id": spec_id,
            "seed": seed,
            "scenario": scenario,
            "attempts": attempts,
            "reason": reason,
            "error": error,
            "ts": time.time(),  # repro: allow[determinism] -- operator-facing sidecar timestamp; never feeds records or identities
        }
        append_line(self.path, json.dumps(entry, sort_keys=True))
        return entry

    def entries(self) -> List[Dict[str, object]]:
        """All readable entries; torn/foreign lines are skipped.

        The log is advisory (the checkpoint is the source of truth for what
        completed), so a torn tail from a killed campaign is dropped rather
        than fatal, and so is a line that is not UTF-8, not a JSON object
        or has no string ``spec_id`` (:meth:`reoffer` matches on it).
        """
        if not self.path.exists():
            return []
        entries: List[Dict[str, object]] = []
        with self.path.open("rb") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line.decode("utf-8"))
                except (ValueError, RecursionError):
                    # UnicodeDecodeError is a ValueError too, as are the
                    # decoder's digit limit and JSONDecodeError.
                    continue
                if (isinstance(entry, dict)
                        and isinstance(entry.get("spec_id"), str)):
                    entries.append(entry)
        return entries

    def reoffer(self, plan) -> int:
        """Drop entries for specs the given plan is about to re-run.

        Called on ``--resume``: quarantined specs were never checkpointed, so
        the engine re-executes them anyway; clearing their entries keeps the
        log a live list of *currently* poisonous specs instead of an
        ever-growing history. Entries for specs no longer in the plan are
        kept. Returns how many entries were dropped. The rewrite is atomic
        (tmp + rename) so a crash mid-reoffer cannot tear the log.
        """
        entries = self.entries()
        if not entries:
            return 0
        plan_ids = {spec.identity() for spec in plan}
        kept = [entry for entry in entries
                if entry.get("spec_id") not in plan_ids]
        dropped = len(entries) - len(kept)
        if not dropped:
            return 0
        tmp = self.path.with_name(self.path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            for entry in kept:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        return dropped
