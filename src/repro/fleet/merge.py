"""Cross-host record merge, deduplicated by spec identity.

The fleet's delivery guarantee is *at-least-once*: a worker retries a
submission whose response was lost, a stolen shard may finish on two hosts,
a resumed coordinator may receive work it already has. What makes that safe
is this merge: records are keyed on spec identity (the
``extras["spec_id"]`` stamp the engine's checkpoint layer writes; records
without a stamp fall back to the ``(spec_name, seed, scenario)`` triple) and
duplicates collapse to one record — **provided they are byte-identical**
once re-encoded by :meth:`~repro.core.recording.ExperimentRecord.to_json`,
so whitespace or key-order differences between stores never count as
conflicts, and real payload differences always do. Since execution is
seed-deterministic, a true duplicate always is; two records sharing an
identity but differing in payload mean different campaign definitions or
code versions produced them, and merging would silently corrupt the result
— that is a hard :class:`~repro.errors.MergeConflictError`.

:func:`merge_stores` is the streaming file-level merge behind
``repro-fi merge`` (the manual escape hatch for collecting results from
hosts by hand); the coordinator's in-process merge compares the same
``to_json`` lines, so both paths agree on what "the same record" means.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from repro.core.recording import ExperimentRecord, RecordStore
from repro.errors import MergeConflictError


def record_key(record: ExperimentRecord) -> str:
    """The dedup key: the identity stamp, or the legacy triple."""
    spec_id = record.spec_id
    if spec_id is not None:
        return f"id:{spec_id}"
    return f"triple:{record.spec_name}|{record.seed}|{record.scenario}"


@dataclass
class MergeStats:
    """What one merge did, for the CLI summary."""

    inputs: int = 0
    read: int = 0
    written: int = 0
    duplicates: int = 0
    per_input: List[Tuple[str, int]] = field(default_factory=list)


def merge_stores(paths: Iterable["str | Path"], output: "str | Path",
                 ) -> MergeStats:
    """Stream-merge record stores into ``output``, deduped by identity.

    Records stream file by file, line by line — memory holds one record
    plus a digest per distinct identity, so arbitrarily large stores merge
    in a small footprint. Output order is first-appearance order across the
    inputs in argument order (merging a single store is the identity
    operation). The output is written atomically (temp file + fsync +
    rename, the same path checkpoints use), so a crashed merge never leaves
    a half-written file behind.

    Raises :class:`~repro.errors.MergeConflictError` on the first identity
    whose payloads disagree, naming the identity and both files.
    """
    paths = [Path(path) for path in paths]
    output = Path(output)
    seen: Dict[str, Tuple[str, str]] = {}
    stats = MergeStats(inputs=len(paths))

    def merged_records():
        for path in paths:
            store = RecordStore(path)
            count = 0
            for record in store.iter_records():
                stats.read += 1
                count += 1
                key = record_key(record)
                line = record.to_json()
                digest = hashlib.sha256(line.encode("utf-8")).hexdigest()
                previous = seen.get(key)
                if previous is not None:
                    previous_digest, previous_path = previous
                    if previous_digest != digest:
                        raise MergeConflictError(
                            f"records disagree for {key}: {path} holds a "
                            f"different payload than {previous_path} — same "
                            f"spec identity must mean a byte-identical "
                            f"record (deterministic re-execution); these "
                            f"stores came from different campaign "
                            f"definitions or code versions"
                        )
                    stats.duplicates += 1
                    continue
                seen[key] = (digest, str(path))
                stats.written += 1
                yield record
            stats.per_input.append((str(path), count))

    try:
        RecordStore(output).replace_all(merged_records())
    except Exception:
        # A conflict (or malformed input) aborts mid-write; the atomic
        # rename never happened, so only the temp file needs removing.
        tmp = output.with_name(output.name + ".tmp")
        tmp.unlink(missing_ok=True)
        raise
    return stats
