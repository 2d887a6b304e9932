"""Checkpoint/resume bookkeeping for campaign execution.

The paper's campaigns run for hours (hundreds of one-minute tests per target
and intensity); losing a run to a crash or preemption means re-paying all of
it. The engine therefore appends every completed
:class:`~repro.core.recording.ExperimentRecord` to a JSON-Lines checkpoint
(a plain :class:`~repro.core.recording.RecordStore` file — the same format
``--output`` and the analysis layer use), fsynced before the campaign moves
on (see :func:`~repro.core.recording.append_line`), and on resume skips
every spec whose record is already present. A SIGKILL mid-append leaves at
most a torn last line, which :meth:`Checkpoint.load` drops: its spec simply
re-runs.

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

from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.core.experiment import ExperimentResult, ExperimentSpec
from repro.core.plan import TestPlan
from repro.core.recording import ExperimentRecord, RecordStore
from repro.errors import AnalysisError, RecordSchemaError

#: Fallback identity for records without a ``spec_id`` stamp.
_Triple = Tuple[str, int, str]


class Checkpoint:
    """Crash-safe record of completed specs, enabling resume.

    Each commit appends its record's line and fsyncs it before returning,
    so a SIGKILL at any instant loses no committed record: at worst it tears
    the line being appended, and :meth:`load` drops that line. Only changes
    to content before the end — the torn-tail repair, :meth:`clear`,
    :meth:`prune_stale` and :meth:`replace_records` — rewrite the whole file,
    atomically (temp file + fsync + rename).
    """

    def __init__(self, path: "str | Path") -> None:
        self.store = RecordStore(path)
        #: How many record writes hit the disk: one per commit and per
        #: :meth:`replace_records` (the perfbench tracer reads this).
        self.flushes = 0
        self._records: List[ExperimentRecord] = []
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
        appends do not merge into the partial line. A complete last record
        that only lacks its newline is kept; the next append writes the
        newline first. Malformed records *before* the last line mean real
        corruption and still raise, naming the file and line.
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
        if torn_tail:
            self.store.replace_all(records)
        for record in records:
            self._remember(record)
        return len(records)

    def _remember(self, record: ExperimentRecord) -> None:
        self._records.append(record)
        spec_id = record.spec_id
        if spec_id is not None:
            self._records_by_id[spec_id] = record
        self._records_by_triple[(record.spec_name, record.seed,
                                 record.scenario)] = record

    def clear(self) -> None:
        """Truncate the checkpoint file (fresh, non-resumed run)."""
        self.store.replace_all([])
        self._records.clear()
        self._records_by_id.clear()
        self._records_by_triple.clear()

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
        kept = [
            record for record in self._records
            if resumable.get((record.spec_name, record.seed,
                              record.scenario)) is record
        ]
        removed = len(self._records) - len(kept)
        if removed:
            self._records = kept
            self._records_by_id = {
                record.spec_id: record for record in kept
                if record.spec_id is not None
            }
            self._records_by_triple = {
                (record.spec_name, record.seed, record.scenario): record
                for record in kept
            }
            self.store.replace_all(kept)
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
        the spec identity so a later resume matches on the strong key, and
        it is on disk when this returns (see :meth:`commit_record`).
        """
        record = ExperimentRecord.from_result(result)
        return self.commit_record(replace(
            record, extras={**record.extras, "spec_id": spec.identity()}))

    def commit_record(self, record: ExperimentRecord) -> ExperimentRecord:
        """Append one already-built record and fsync it.

        The fleet result-merge path calls this directly: the coordinator
        receives records over the wire with their ``spec_id`` stamps already
        applied by the worker that executed them. The caller is responsible
        for dedup — committing two records with the same identity stores
        both.
        """
        self.store.append(record)
        self.flushes += 1
        self._remember(record)
        return record

    def replace_records(self, records: List[ExperimentRecord]) -> None:
        """Atomically rewrite the checkpoint as exactly ``records``.

        Used by the coordinator to finalize a campaign's merged store in
        plan order: the in-memory indexes are rebuilt and the file is
        rewritten through :meth:`~repro.core.recording.RecordStore.
        replace_all` (temp file + fsync + rename).
        """
        self._records = list(records)
        self._records_by_id = {
            record.spec_id: record for record in self._records
            if record.spec_id is not None
        }
        self._records_by_triple = {
            (record.spec_name, record.seed, record.scenario): record
            for record in self._records
        }
        self.store.replace_all(self._records)
        self.flushes += 1
