"""Checkpoint/resume bookkeeping for campaign execution.

The paper's campaigns run for hours (hundreds of one-minute tests per target
and intensity); losing a run to a crash or preemption means re-paying all of
it. The engine therefore streams every completed
:class:`~repro.core.recording.ExperimentRecord` to a JSON-Lines checkpoint
(a plain :class:`~repro.core.recording.RecordStore` file — the same format
``--output`` and the analysis layer use), flushed **atomically** (temp file
+ fsync + rename, see :meth:`Checkpoint.flush`) so even a SIGKILL mid-write
leaves a complete, loadable file, and on resume skips every spec whose
record is already present.

Completed work is keyed on :meth:`ExperimentSpec.identity` — a hash of name,
seed, scenario, and the injection setup — which the checkpoint stamps into
each record's ``extras["spec_id"]``; a spec whose definition changed between
runs hashes differently and is re-executed rather than wrongly skipped.
Records written by other code paths (e.g. a plain ``CampaignResult.save``)
lack the stamp; for those, matching falls back to the ``(spec_name, seed,
scenario)`` triple cross-checked against the setup fields the record *does*
persist (duration, target, fault model, intensity) — best-effort, but enough
to catch a spec whose setup visibly changed. On resume the checkpoint is
also reconciled with the plan: records superseded by changed definitions and
orphans of renamed/removed specs are pruned, so after a successful run the
file holds exactly one record per plan spec and downstream reporting never
double-counts.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.core.experiment import ExperimentResult, ExperimentSpec
from repro.core.plan import TestPlan
from repro.core.recording import ExperimentRecord, RecordStore
from repro.errors import AnalysisError, CampaignError, RecordSchemaError

#: Fallback identity for records without a ``spec_id`` stamp.
_Triple = Tuple[str, int, str]


class Checkpoint:
    """Crash-safe record of completed specs, enabling resume.

    Commits are buffered in memory and persisted by :meth:`flush`, which
    writes the *whole* record set to a temp file, fsyncs, and renames it over
    the checkpoint — so the on-disk file is always a complete, valid
    JSON-Lines document and a SIGKILL at any instant loses at most the
    commits since the last flush (none at all with the default
    ``flush_interval_s=0``, which flushes on every commit like the paper's
    minute-long tests want). ``flush_interval_s > 0`` batches flushes for
    campaigns of very short experiments, where an atomic rewrite per
    completion would dominate.
    """

    def __init__(self, path: "str | Path", *,
                 flush_interval_s: float = 0.0) -> None:
        if flush_interval_s < 0:
            raise CampaignError(
                f"flush interval must be >= 0, got {flush_interval_s}")
        self.store = RecordStore(path)
        self.flush_interval_s = flush_interval_s
        #: How many atomic flushes hit the disk (telemetry reads this).
        self.flushes = 0
        self._dirty = False
        # The interval clock starts now, so a batched checkpoint's first
        # flush happens one full interval in, not on the first commit.
        self._last_flush = time.monotonic()
        self._records: List[ExperimentRecord] = []
        #: ``_records[i].to_json()``, serialized once when the record was
        #: committed or loaded: every flush rewrites the whole file.
        self._lines: List[str] = []
        self._records_by_id: Dict[str, ExperimentRecord] = {}
        self._records_by_triple: Dict[_Triple, ExperimentRecord] = {}

    @property
    def path(self) -> Path:
        return self.store.path

    # -- loading ------------------------------------------------------------------------

    def load(self) -> int:
        """Read existing records from disk; returns how many were found.

        A campaign killed mid-append leaves a torn final line; that is the
        exact crash resume exists for, so the torn tail is discarded (its
        spec simply re-runs) and the file is rewritten without it so later
        appends do not merge into the partial line. Malformed records
        *before* the last line mean real corruption and still raise,
        naming the file and line.
        """
        if not self.store.path.exists():
            return 0
        records: List[ExperimentRecord] = []
        torn_tail = False
        try:
            for record in self.store.iter_records():
                records.append(record)
        except RecordSchemaError:
            # A record stamped with a newer schema_version is a valid
            # record this tooling is too old to read — not a torn
            # write; discarding it would destroy data, so resume
            # refuses even when it is the last line.
            raise
        except AnalysisError:
            # ``records`` holds every line before the malformed one, so that
            # line is the last non-blank one exactly when it is the only
            # line counted and not read.
            if len(records) != self.store.count() - 1:
                raise
            torn_tail = True
        lines = [record.to_json() for record in records]
        if torn_tail:
            self.store.replace_all(lines)
        for record, line in zip(records, lines):
            self._remember(record, line)
        return len(records)

    def _remember(self, record: ExperimentRecord,
                  line: Optional[str] = None) -> None:
        self._records.append(record)
        self._lines.append(record.to_json() if line is None else line)
        spec_id = record.spec_id
        if spec_id is not None:
            self._records_by_id[spec_id] = record
        self._records_by_triple[(record.spec_name, record.seed,
                                 record.scenario)] = record

    def clear(self) -> None:
        """Truncate the checkpoint file (fresh, non-resumed run)."""
        self.store.replace_all([])
        self._records.clear()
        self._lines.clear()
        self._records_by_id.clear()
        self._records_by_triple.clear()
        self._dirty = False

    def prune_stale(self, plan: TestPlan) -> int:
        """Reconcile the checkpoint with the plan it is resuming.

        Keeps exactly the records that are resumable for some plan spec and
        drops everything else: records superseded by a changed spec
        definition (same triple, different identity/setup) and orphans of
        specs that were renamed or removed from the plan. Non-resumable specs
        will re-run and append fresh records, so after a successful run the
        file holds one record per plan spec and downstream reporting
        (``repro report <checkpoint>``) never double-counts. The checkpoint
        is the engine's working state, not an archive — records to keep
        across plan edits belong in ``--output`` files. Returns how many
        records were removed.
        """
        resumable: Dict[_Triple, ExperimentRecord] = {}
        for spec in plan:
            record = self._record_for(spec)
            if record is not None:
                resumable[(record.spec_name, record.seed,
                           record.scenario)] = record
        keep = [
            index for index, record in enumerate(self._records)
            if resumable.get((record.spec_name, record.seed,
                              record.scenario)) is record
        ]
        removed = len(self._records) - len(keep)
        if removed:
            kept = [self._records[index] for index in keep]
            self._records = kept
            self._lines = [self._lines[index] for index in keep]
            self._records_by_id = {
                record.spec_id: record for record in kept
                if record.spec_id is not None
            }
            self._records_by_triple = {
                (record.spec_name, record.seed, record.scenario): record
                for record in kept
            }
            self.store.replace_all(self._lines)
        return removed

    # -- queries ------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records_by_triple)

    def is_complete(self, spec: ExperimentSpec) -> bool:
        return self._record_for(spec) is not None

    def _record_for(self, spec: ExperimentSpec) -> Optional[ExperimentRecord]:
        record = self._records_by_id.get(spec.identity())
        if record is not None:
            return record
        # The triple fallback only applies to records written without an
        # identity stamp (e.g. a plain CampaignResult.save). A stamped record
        # whose identity does not match means the spec definition changed —
        # the spec must be re-executed, not matched loosely. Unstamped records
        # are additionally cross-checked against the setup fields they persist
        # so a changed spec is not silently "restored" from stale results.
        record = self._records_by_triple.get(
            (spec.name, spec.seed, spec.scenario.value)
        )
        if (record is not None and record.spec_id is None
                and self._legacy_matches(spec, record)):
            return record
        return None

    @staticmethod
    def _legacy_matches(spec: ExperimentSpec, record: ExperimentRecord) -> bool:
        return (record.duration == spec.duration
                and record.target == spec.target.describe()
                and record.fault_model == spec.fault_model.describe()
                and record.intensity == spec.intensity)

    def result_for(self, spec: ExperimentSpec) -> Optional[ExperimentResult]:
        """Rebuild the stored result for a completed spec, if any."""
        record = self._record_for(spec)
        return record.to_result() if record is not None else None

    def completed_indices(self, plan: TestPlan) -> Set[int]:
        """Plan positions whose specs already have checkpointed records."""
        return {
            index for index, spec in enumerate(plan) if self.is_complete(spec)
        }

    def completed_identities(self) -> Set[str]:
        """The ``spec_id`` stamps of every loaded record.

        The fleet coordinator keys its shard planning on these: a resumed
        ``repro serve`` loads its per-campaign checkpoint, subtracts the
        stamped identities from the plan, and re-offers exactly the
        unfinished specs. Records without a stamp (written by non-engine
        code paths) are not identities and are skipped.
        """
        return set(self._records_by_id)

    def record_by_identity(self, spec_id: str) -> Optional[ExperimentRecord]:
        """The stored record stamped with ``spec_id``, if any."""
        return self._records_by_id.get(spec_id)

    # -- writing ------------------------------------------------------------------------

    def commit(self, spec: ExperimentSpec,
               result: ExperimentResult) -> ExperimentRecord:
        """Record one completed experiment and mark its spec done.

        Called from the parent process only (workers hand results back over
        the pool), so commits never interleave. The record is stamped with
        the spec identity so a later resume matches on the strong key. The
        commit is buffered and flushed per :attr:`flush_interval_s` — with
        the default of ``0`` every commit reaches the disk atomically before
        this returns.
        """
        record = ExperimentRecord.from_result(result)
        record = replace(
            record, extras={**record.extras, "spec_id": spec.identity()}
        )
        self._remember(record)
        self._dirty = True
        if (self.flush_interval_s <= 0
                or time.monotonic() - self._last_flush
                >= self.flush_interval_s):
            self.flush()
        return record

    def commit_record(self, record: ExperimentRecord) -> ExperimentRecord:
        """Buffer one already-built record (the fleet result-merge path).

        The coordinator receives records over the wire with their
        ``spec_id`` stamps already applied by the worker that executed them;
        this commits one as-is, with the same interval-batched atomic flush
        contract as :meth:`commit`. The caller is responsible for dedup —
        committing two records with the same identity stores both.
        """
        self._remember(record)
        self._dirty = True
        if (self.flush_interval_s <= 0
                or time.monotonic() - self._last_flush
                >= self.flush_interval_s):
            self.flush()
        return record

    def replace_records(self, records: List[ExperimentRecord]) -> None:
        """Atomically rewrite the checkpoint as exactly ``records``.

        Used by the coordinator to finalize a campaign's merged store in
        plan order: the in-memory indexes are rebuilt and the file is
        rewritten through the same :meth:`~repro.core.recording.RecordStore.
        replace_all` temp-file + fsync + rename path every other flush uses.
        """
        self._records = list(records)
        self._lines = [record.to_json() for record in self._records]
        self._records_by_id = {
            record.spec_id: record for record in self._records
            if record.spec_id is not None
        }
        self._records_by_triple = {
            (record.spec_name, record.seed, record.scenario): record
            for record in self._records
        }
        self._last_flush = time.monotonic()
        self.store.replace_all(self._lines)
        self._dirty = False
        self.flushes += 1

    @property
    def dirty(self) -> bool:
        """Whether commits are buffered that have not reached the disk."""
        return self._dirty

    def flush(self) -> bool:
        """Atomically persist all buffered commits; ``True`` if it wrote.

        The whole record set is rewritten through
        :meth:`~repro.core.recording.RecordStore.replace_all` (temp file +
        fsync + rename), so a crash — even SIGKILL — at any instant leaves
        either the previous complete checkpoint or the new one on disk. The
        lines cached at commit time are written, so a flush serializes
        nothing.
        """
        self._last_flush = time.monotonic()
        if not self._dirty:
            return False
        self.store.replace_all(self._lines)
        self._dirty = False
        self.flushes += 1
        return True
