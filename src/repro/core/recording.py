"""Structured experiment records and on-disk storage.

The paper collects every test's outcome into a log file "which is further
analyzed to understand how the hypervisor reacted to injected faults". This
module is the structured equivalent: each experiment becomes one JSON record,
and a :class:`RecordStore` persists campaigns as JSON-Lines files that the
analysis layer can re-load without re-running the (slow) experiments.

It is the one module that maps between results, records, dicts and lines:
one field table, derived from the record and result dataclass fields,
drives all six conversions (``from_result``/``to_result``,
``to_dict``/``from_dict``, ``to_json``/``from_json``).
"""

from __future__ import annotations

import itertools
import json
import operator
import os
from dataclasses import MISSING, dataclass, field
from pathlib import Path
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    Optional, Tuple)

from repro.core.outcomes import (
    OUTCOME_BY_VALUE,
    ExperimentResult,
    ManagementEvidence,
    Outcome,
)
from repro.errors import AnalysisError, RecordSchemaError

RECORD_SCHEMA_VERSION = 1

#: Error handler every record reader decodes with. A byte that is not UTF-8
#: becomes a lone surrogate instead of failing the whole read, and
#: :meth:`ExperimentRecord.from_json` rejects the line holding it like any
#: other malformed line.
DECODE_ERRORS = "surrogateescape"

#: ``json.JSONDecoder().raw_decode``: one JSON value from the start of a
#: string, and the index where it ends.
_raw_decode = json.JSONDecoder().raw_decode


@dataclass(frozen=True)
class ExperimentRecord:
    """Flat, serialization-friendly view of one experiment result."""

    spec_name: str
    outcome: str
    rationale: str
    injections: int
    duration: float
    seed: int
    scenario: str
    target: str
    fault_model: str
    intensity: str
    register_class_counts: Dict[str, int] = field(default_factory=dict)
    target_cell_lines: int = 0
    root_cell_lines: int = 0
    create_attempted: bool = False
    create_succeeded: bool = False
    start_attempted: bool = False
    start_succeeded: bool = False
    extras: Dict[str, object] = field(default_factory=dict)
    schema_version: int = RECORD_SCHEMA_VERSION

    @classmethod
    def from_result(cls, result: ExperimentResult, *,
                    spec_id: Optional[str] = None) -> "ExperimentRecord":
        """The persisted view of ``result``, with ``spec_id`` (if given)
        stamped into ``extras`` (see :attr:`spec_id`)."""
        values = _values(result, _SHARED)
        values.update(_values(result.management or ManagementEvidence(),
                              _MANAGEMENT))
        values["outcome"] = result.outcome.value
        if spec_id is not None:
            values["extras"]["spec_id"] = spec_id
        return cls(**values)

    @property
    def outcome_enum(self) -> Outcome:
        try:
            return OUTCOME_BY_VALUE[self.outcome]
        except (KeyError, TypeError):
            raise ValueError(
                f"{self.outcome!r} is not a valid Outcome") from None

    @property
    def spec_id(self) -> Optional[str]:
        """The :meth:`ExperimentSpec.identity` stamp, if the record has one.

        Records written through the engine's checkpoint layer carry it in
        ``extras``; records saved by older code paths do not, and resume falls
        back to the (spec_name, seed, scenario) triple for those.
        """
        value = self.extras.get("spec_id")
        return value if isinstance(value, str) else None

    def to_result(self) -> ExperimentResult:
        """Rebuild an :class:`ExperimentResult` view of this record.

        Used by the engine when resuming a checkpointed campaign: specs whose
        records already exist are not re-executed, so their results are
        reconstructed from disk. ``wall_time`` is not persisted and comes back
        as ``0.0``; management evidence keeps the summary booleans only. The
        checkpoint-internal ``spec_id`` stamp is stripped so restored results
        stay indistinguishable from freshly executed ones.
        """
        values = _values(self, _SHARED)
        values["outcome"] = self.outcome_enum
        values["extras"].pop("spec_id", None)
        return ExperimentResult(
            management=ManagementEvidence(**_values(self, _MANAGEMENT)),
            **values)

    def to_dict(self) -> Dict[str, object]:
        """The JSON object of the record's line, with fresh dicts."""
        return _values(self, _NAMES)

    def to_json(self) -> str:
        """The record's line: :meth:`to_dict` with sorted keys."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "ExperimentRecord":
        """Decode one record line; see :meth:`from_dict` for its checks.

        A line that is not UTF-8 or not JSON raises :class:`AnalysisError`.
        """
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                # A lone surrogate: a byte that was not UTF-8 on disk.
                raise AnalysisError("record line is not valid UTF-8") from None
        try:
            payload, end = _raw_decode(line)
        except (ValueError, RecursionError):
            end = None
        if end != len(line) and (end is None or line[end:].strip(" \t\n\r")):
            # Not one JSON value followed by nothing but JSON whitespace
            # (``watch`` keeps each line's newline): ``json.loads`` decides,
            # so leading whitespace, a BOM and every error message are
            # handled as they always were.
            try:
                payload = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # JSONDecodeError, and the integer-length limit and nesting
                # depth the decoder enforces outside it.
                raise AnalysisError(f"malformed record line: {exc}") from exc
        return cls.from_dict(payload)

    @classmethod
    def from_dict(cls, payload: object) -> "ExperimentRecord":
        """Build a record from the JSON object of its line.

        ``payload`` is left unchanged, and the record takes its values as
        they are, dicts included. One that is not a record object, or whose
        values break their field's JSON type, raises :class:`AnalysisError`
        naming its first problem.
        """
        if not isinstance(payload, dict):
            raise AnalysisError("record is not a JSON object")
        version = payload.get("schema_version")
        if version is not None:
            if type(version) is not int:
                raise AnalysisError(
                    f"record schema_version must be an integer, got {version!r}")
            if version > RECORD_SCHEMA_VERSION:
                raise RecordSchemaError(
                    f"record schema_version {version} is newer than the "
                    f"supported version {RECORD_SCHEMA_VERSION}; this record "
                    f"was written by a newer repro and its fields could be "
                    f"misinterpreted — upgrade before analyzing it")
        # Check every field at once with a few C-level calls, and fill the
        # record without the generated ``__init__``, whose keyword matching
        # alone costs as much as ``json.loads``. On any failure,
        # ``_field_error`` names the first problem.
        row = payload
        if len(row) - ("schema_version" in row) < len(_FIELDS):
            # A line that leaves out defaulted fields: each gets a fresh one.
            row = {name: default() for name, _, default in _FIELDS
                   if default is not None}
            row.update(payload)
        # Every key is a field exactly when there are as many keys as
        # fields, besides ``schema_version``, and each field has one.
        if len(row) - ("schema_version" in row) != len(_FIELDS):
            raise _field_error(payload)
        try:
            values = _field_values(row)
        except KeyError:
            raise _field_error(payload) from None
        if (tuple(map(type, values)) not in _ROW_TYPES
                or row["outcome"] not in OUTCOME_BY_VALUE):
            raise _field_error(payload)
        for count in row["register_class_counts"].values():
            if type(count) is not int:
                raise _field_error(payload)
        # In field order, as ``__init__`` sets them. Filling ``vars`` at
        # once is faster than one ``object.__setattr__`` per field, and
        # gives each record its own dict (about 80 bytes more per record).
        record = object.__new__(cls)
        fields = vars(record)
        fields.update(zip(_FIELD_NAMES, values))
        fields["schema_version"] = RECORD_SCHEMA_VERSION
        return record


#: What a JSON value decodes to, named for error messages.
_JSON_NAMES: Dict[type, str] = {
    dict: "an object", list: "an array", str: "a string", int: "an integer",
    float: "a number", bool: "a boolean", type(None): "null"}

#: The exact types ``json.loads`` may give each annotation. A ``bool`` is
#: not an ``int`` here, and a ``float`` field takes an integer too.
_JSON_TYPES: Dict[str, Tuple[type, ...]] = {
    "str": (str,), "int": (int,), "float": (int, float), "bool": (bool,),
    "Dict[str, int]": (dict,), "Dict[str, object]": (dict,)}


def _field_default(spec) -> Optional[Callable[[], object]]:
    """A field's default as a zero-argument factory; ``None`` if required."""
    if spec.default_factory is not MISSING:
        return spec.default_factory
    if spec.default is not MISSING:
        return lambda: spec.default
    return None


#: ``(name, accepted JSON types, default factory or None if required)`` of
#: every field a record line may carry, in field order: the one table every
#: conversion walks. ``schema_version`` is checked before the other fields,
#: and always set to the current version.
_FIELDS: Tuple[Tuple[str, Tuple[type, ...],
                     Optional[Callable[[], object]]], ...] = tuple(
    (name, _JSON_TYPES[spec.type], _field_default(spec))
    for name, spec in ExperimentRecord.__dataclass_fields__.items()
    if name != "schema_version")

#: Every field name of a record line, ``schema_version`` last.
_NAMES: Tuple[str, ...] = tuple(ExperimentRecord.__dataclass_fields__)

#: The names of :data:`_FIELDS`, in field order.
_FIELD_NAMES: Tuple[str, ...] = tuple(name for name, _, _ in _FIELDS)

#: The values of :data:`_FIELDS` from a record object, as a tuple.
_field_values = operator.itemgetter(*_FIELD_NAMES)

#: Every accepted tuple of the exact types of those values.
_ROW_TYPES: FrozenSet[Tuple[type, ...]] = frozenset(
    itertools.product(*(types for _, types, _ in _FIELDS)))

#: The fields :class:`ExperimentResult` carries under the same name.
_SHARED: Tuple[str, ...] = tuple(
    name for name in _FIELD_NAMES
    if name in ExperimentResult.__dataclass_fields__)

#: The summary flags a result holds in its :class:`ManagementEvidence`.
_MANAGEMENT: Tuple[str, ...] = tuple(
    name for name in _FIELD_NAMES
    if name not in _SHARED and name in ManagementEvidence.__dataclass_fields__)


def _values(source: object, names: Tuple[str, ...]) -> Dict[str, object]:
    """The attributes ``names`` of ``source``, each dict a fresh copy."""
    values = {}
    for name in names:
        value = getattr(source, name)
        values[name] = dict(value) if isinstance(value, dict) else value
    return values


def _field_error(payload: dict) -> AnalysisError:
    """Name the first problem of a record object :meth:`from_dict` rejected.

    Unknown fields come first, then missing ones, then the first value of
    the wrong type in field order, then the content rules: ``outcome`` names
    an :class:`Outcome` and ``register_class_counts`` maps to integers.
    """
    unknown = payload.keys() - set(_NAMES)
    if unknown:
        return AnalysisError(f"record has unknown fields: {sorted(unknown)}")
    missing = [name for name, _, default in _FIELDS
               if default is None and name not in payload]
    if missing:
        return AnalysisError(f"record is missing fields: {sorted(missing)}")
    for name, types, _ in _FIELDS:
        if name in payload and type(payload[name]) not in types:
            # The widest accepted type names them all: a number covers
            # the integers.
            return AnalysisError(
                f"record field {name!r} must be {_JSON_NAMES[types[-1]]}, "
                f"got {_JSON_NAMES[type(payload[name])]}")
    outcome = payload["outcome"]
    if outcome not in OUTCOME_BY_VALUE:
        return AnalysisError(
            f"record field 'outcome' must name an Outcome "
            f"({', '.join(OUTCOME_BY_VALUE)}), got {outcome!r}")
    for key, count in payload.get("register_class_counts", {}).items():
        if type(count) is not int:
            return AnalysisError(
                f"record field 'register_class_counts' must map each name "
                f"to an integer, got {_JSON_NAMES[type(count)]} for {key!r}")
    raise AssertionError(f"record object passes every check: {payload!r}")


def append_line(path: Path, line: str) -> None:
    """Durably append ``line`` and its newline to the JSON-Lines file ``path``.

    The one append every append-only file goes through: the checkpoint and
    both quarantine sidecars. A writer killed between a line and its newline
    leaves a file whose last byte is not a newline; this append writes one
    first, so the new line never merges into the old one. The write is
    flushed and fsynced before this returns, and when it creates the file
    the directory is fsynced too, as :meth:`RecordStore.replace_all` does.
    A SIGKILL mid-append leaves at most a torn last line; resume drops it.
    """
    data = line.encode("utf-8") + b"\n"
    created = not path.exists()
    if created:
        path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("ab+") as handle:
        end = handle.tell()
        if end:
            handle.seek(end - 1)
            if handle.read(1) != b"\n":
                data = b"\n" + data
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    if created:
        _fsync_directory(path.parent)


def _fsync_directory(directory: Path) -> None:
    """Best-effort fsync of ``directory``, so a new or renamed entry in it
    survives a crash."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class RecordStore:
    """JSON-Lines persistence for experiment records."""

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)

    def _ensure_parent(self) -> None:
        parent = self.path.parent
        if not parent.exists():
            parent.mkdir(parents=True, exist_ok=True)

    def append(self, record: ExperimentRecord) -> None:
        """Durably append one record (see :func:`append_line`)."""
        append_line(self.path, record.to_json())

    def write_all(self, records: Iterable[ExperimentRecord]) -> int:
        self._ensure_parent()
        count = 0
        with self.path.open("w", encoding="utf-8") as handle:
            for record in records:
                handle.write(record.to_json() + "\n")
                count += 1
        return count

    def replace_all(self, records: Iterable[ExperimentRecord]) -> int:
        """Atomically replace the store with exactly ``records``.

        Writes a sibling temp file, fsyncs it, and renames it over the store
        (then best-effort fsyncs the directory so the rename itself is
        durable). A reader — or a resuming campaign — therefore sees either
        the complete old file or the complete new one, never a torn middle.
        For rewrites that change more than the end of a file; growing one
        goes through :meth:`append`.
        """
        self._ensure_parent()
        tmp = self.path.with_name(self.path.name + ".tmp")
        count = 0
        with tmp.open("w", encoding="utf-8") as handle:
            for record in records:
                handle.write(record.to_json() + "\n")
                count += 1
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        _fsync_directory(self.path.parent)
        return count

    def iter_records(self, *, errors: str = "strict") -> Iterator[ExperimentRecord]:
        """Stream records line by line without materializing the file.

        This is the O(1)-memory path the analysis layer is built on: at any
        point only one line of the file is held in memory, so a
        million-record store streams in the same footprint as a ten-record
        one. A missing file streams zero records (mirroring :meth:`load`).

        ``errors`` selects the malformed-line policy (a line that is not
        UTF-8 is malformed like any other):

        * ``"strict"`` (default) — raise :class:`AnalysisError` naming the
          file and line number of the first malformed line;
        * ``"skip"`` — drop malformed lines and keep streaming (for
          salvaging partially corrupted stores, e.g. a campaign killed
          mid-write). Records stamped with a newer ``schema_version`` are
          a tooling mismatch rather than corruption and raise
          :class:`~repro.errors.RecordSchemaError` under either policy.
        """
        if errors not in ("strict", "skip"):
            raise AnalysisError(
                f"unknown malformed-line policy {errors!r}; "
                f"use 'strict' or 'skip'")
        return self._iter_records(errors)

    def _iter_records(self, errors: str) -> Iterator[ExperimentRecord]:
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8",
                            errors=DECODE_ERRORS) as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = ExperimentRecord.from_json(line)
                except AnalysisError as exc:
                    # A newer-schema record is a tooling mismatch, not line
                    # corruption: the skip policy must not silently drop it.
                    if errors == "skip" and not isinstance(exc, RecordSchemaError):
                        continue
                    raise exc.__class__(
                        f"{self.path}:{lineno}: {exc}") from exc
                yield record

    def count(self) -> int:
        """Number of non-blank lines in the store, without parsing them.

        Holds one line at a time, like iteration. On a well-formed store
        this equals the number of records :meth:`iter_records` yields; on a
        store with malformed lines it is an upper bound (strict iteration
        raises, ``errors="skip"`` yields fewer).
        """
        if not self.path.exists():
            return 0
        with self.path.open("r", encoding="utf-8",
                            errors=DECODE_ERRORS) as handle:
            return sum(1 for line in handle if line.strip())

    def load(self) -> List[ExperimentRecord]:
        """Materialize every record in memory (convenience for small stores).

        Large stores should use :meth:`iter_records` instead.
        """
        return list(self.iter_records())

    def __iter__(self) -> Iterator[ExperimentRecord]:
        return self.iter_records()
