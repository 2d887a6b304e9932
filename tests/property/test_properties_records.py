"""Property test for the record parser, a trust boundary.

Record lines come from disk: checkpoints a SIGKILL tore, stores another
tool wrote, files merged from fleet workers. Whatever a line holds, even
bytes that are not UTF-8, reading it answers with a typed ``ReproError``
(the CLI's one ``error:`` line and exit code), never a ``TypeError``,
``KeyError`` or ``UnicodeDecodeError`` traceback.
"""

import dataclasses
import json
import pickle
from dataclasses import MISSING

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.streaming import analyze_records
from repro.core.outcomes import OUTCOME_BY_VALUE, Outcome
from repro.core.recording import (
    _FIELDS,
    RECORD_SCHEMA_VERSION,
    ExperimentRecord,
    RecordStore,
    _field_error,
)
from repro.errors import AnalysisError, RecordSchemaError, ReproError

#: Anything a JSON document can hold.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=12,
)

#: The JSON object of one well-formed record line.
VALID = json.loads(ExperimentRecord(
    spec_name="fuzz-0", outcome="correct", rationale="synthetic",
    injections=1, duration=2.0, seed=0, scenario="steady_state",
    target="arch_handle_trap", fault_model="single bit flip",
    intensity="medium").to_json())


@st.composite
def record_objects(draw):
    """A record object with fields dropped, re-typed or added."""
    payload = dict(VALID)
    for name in draw(st.sets(st.sampled_from(sorted(VALID)))):
        del payload[name]
    payload.update(draw(st.dictionaries(
        st.sampled_from(sorted(VALID) + ["bogus"]), json_values,
        max_size=4)))
    return payload


#: A value of each annotation's own JSON type.
TYPED_VALUES = {
    "str": st.text(max_size=8),
    "int": st.integers(),
    "float": st.integers() | st.floats(),
    "bool": st.booleans(),
    "Dict[str, int]": st.dictionaries(st.text(max_size=8), st.integers(),
                                      max_size=3),
    "Dict[str, object]": st.dictionaries(st.text(max_size=8), json_values,
                                         max_size=3),
}


@st.composite
def typed_record_objects(draw):
    """A record object whose fields hold values of their own types, with
    fields that have a default sometimes left out."""
    payload = {}
    for name, spec in ExperimentRecord.__dataclass_fields__.items():
        if name == "schema_version":
            if draw(st.booleans()):
                payload[name] = draw(st.integers(max_value=1))
            continue
        has_default = (spec.default is not MISSING
                       or spec.default_factory is not MISSING)
        if has_default and draw(st.booleans()):
            continue
        payload[name] = draw(
            st.sampled_from([outcome.value for outcome in Outcome])
            if name == "outcome" else TYPED_VALUES[spec.type])
    return payload


def holds_nan(value) -> bool:
    """Whether a decoded JSON value holds a NaN, which equals nothing."""
    if isinstance(value, float):
        return value != value
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, list) and any(map(holds_nan, value))


#: Record-shaped objects, other JSON documents, and plain text.
record_lines = st.one_of(
    record_objects().map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=40),
)


class TestRecordParsing:
    @given(line=record_lines)
    @settings(max_examples=300, deadline=None)
    def test_record_line_parsing_raises_only_repro_error(self, line):
        """Property: ``ExperimentRecord.from_json`` raises only ReproError."""
        try:
            ExperimentRecord.from_json(line)
        except ReproError:
            pass

    @given(lines=st.lists(record_lines, max_size=6),
           errors=st.sampled_from(["strict", "skip"]))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_record_store_iteration_raises_only_repro_error(
            self, lines, errors, tmp_path):
        """Property: ``RecordStore.iter_records`` raises only ReproError,
        under either malformed-line policy."""
        path = tmp_path / "store.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            for _ in RecordStore(path).iter_records(errors=errors):
                pass
        except ReproError:
            pass

    @given(lines=st.lists(record_lines.map(str.encode)
                          | st.binary(max_size=40), max_size=6),
           errors=st.sampled_from(["strict", "skip"]))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_record_store_reading_raises_only_repro_error_on_bytes(
            self, lines, errors, tmp_path):
        """Property: ``RecordStore.iter_records`` raises only ReproError on
        arbitrary byte lines, UTF-8 or not, under either policy; ``count``
        never raises and bounds what iteration yields."""
        path = tmp_path / "store.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        store = RecordStore(path)
        try:
            read = sum(1 for _ in store.iter_records(errors=errors))
        except ReproError:
            pass
        else:
            assert read <= store.count()


class TestDecoderMatchesConstructor:
    """The table-driven decoder, pinned to the dataclass's own ``__init__``."""

    @given(payload=typed_record_objects())
    @settings(max_examples=200, deadline=None)
    def test_well_typed_record_object_decodes(self, payload):
        """Property: a record object whose fields hold their own types is
        accepted."""
        ExperimentRecord.from_json(json.dumps(payload))

    @given(payload=typed_record_objects() | record_objects())
    @settings(max_examples=400, deadline=None)
    def test_accepted_line_is_the_constructed_record(self, payload):
        """Property: a line ``from_json`` accepts decodes to
        ``ExperimentRecord(**payload)``, survives ``to_json``, and analyses
        and restores without raising."""
        try:
            record = ExperimentRecord.from_json(json.dumps(payload))
        except ReproError:
            return
        payload.pop("schema_version", None)
        reference = ExperimentRecord(**payload)
        again = ExperimentRecord.from_json(record.to_json())
        if not holds_nan(payload):
            assert record == reference
            assert again == record
        # Exact types too (``1 == 1.0 == True``), and NaN-proof text.
        for name in ExperimentRecord.__dataclass_fields__:
            assert type(getattr(record, name)) is type(getattr(reference, name))
        assert record.to_json() == reference.to_json() == again.to_json()
        analyze_records([record]).to_dict()
        record.to_result()


class TestCodecMatchesReferences:
    """The field-table conversions, pinned to reference encoders."""

    @given(payload=typed_record_objects())
    @settings(max_examples=200, deadline=None)
    def test_to_json_is_the_asdict_encoding(self, payload):
        """Property: ``to_json`` writes the bytes that ``asdict`` plus
        ``json.dumps`` wrote."""
        record = ExperimentRecord.from_json(json.dumps(payload))
        assert record.to_json() == json.dumps(dataclasses.asdict(record),
                                              sort_keys=True)

    @given(payload=typed_record_objects() | record_objects() | json_values)
    @settings(max_examples=400, deadline=None)
    def test_from_dict_is_from_json_of_the_encoded_object(self, payload):
        """Property: ``from_dict(payload)`` leaves ``payload`` unchanged and
        gives the record, or the error class and message, that
        ``from_json(json.dumps(payload))`` gives."""
        before = repr(payload)
        try:
            expected = ExperimentRecord.from_json(json.dumps(payload))
        except ReproError as exc:
            with pytest.raises(ReproError) as raised:
                ExperimentRecord.from_dict(payload)
            assert type(raised.value) is type(exc)
            assert str(raised.value) == str(exc)
        else:
            record = ExperimentRecord.from_dict(payload)
            assert record.to_json() == expected.to_json()
            for name in ExperimentRecord.__dataclass_fields__:
                assert (type(getattr(record, name))
                        is type(getattr(expected, name)))
        assert repr(payload) == before


# -- the per-field decoder, kept as the reference ------------------------------


def reference_from_json(cls, line: str) -> ExperimentRecord:
    """``ExperimentRecord.from_json`` as it was: ``json.loads``, then
    :func:`reference_from_dict`."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            # A lone surrogate: a byte that was not UTF-8 on disk.
            raise AnalysisError("record line is not valid UTF-8") from None
    try:
        payload = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, and the integer-length limit and nesting
        # depth the decoder enforces outside it.
        raise AnalysisError(f"malformed record line: {exc}") from exc
    return reference_from_dict(cls, payload)


def reference_from_dict(cls, payload: object) -> ExperimentRecord:
    """``ExperimentRecord.from_dict`` as it was: one Python pass over the
    field table that checks and sets each field in turn."""
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
    # One pass over the field table: type-check each value and set it
    # in field order, without the generated ``__init__`` (its keyword
    # matching alone costs as much as ``json.loads``). Every field is
    # set, and a default dict is a fresh one per record.
    record = object.__new__(cls)
    set_field = object.__setattr__      # the frozen class's one raises
    defaulted = 0
    for name, types, default in _FIELDS:
        try:
            value = payload[name]
        except KeyError:
            if default is None:
                raise _field_error(payload) from None
            value = default()
            defaulted += 1
        else:
            if type(value) not in types:
                raise _field_error(payload)
        set_field(record, name, value)
    # Every key was a field exactly when the payload holds as many keys
    # as the pass took from it, besides ``schema_version``.
    if (len(payload) - ("schema_version" in payload)
            != len(_FIELDS) - defaulted
            or record.outcome not in OUTCOME_BY_VALUE):
        raise _field_error(payload)
    for count in record.register_class_counts.values():
        if type(count) is not int:
            raise _field_error(payload)
    set_field(record, "schema_version", RECORD_SCHEMA_VERSION)
    return record


#: The fields annotated ``int``.
INT_FIELDS = sorted(name for name, spec
                    in ExperimentRecord.__dataclass_fields__.items()
                    if spec.type == "int" and name != "schema_version")

#: A 5,000-digit integer: ``json`` refuses to read or write one.
HUGE_INT = 10 ** 4999


@st.composite
def mutated_record_objects(draw):
    """A record object, or any JSON value, with some of the edits that the
    decoder's bulk checks must catch as the per-field pass did."""
    payload = draw(typed_record_objects() | record_objects() | json_values)
    if not isinstance(payload, dict):
        return payload
    for edit in draw(st.lists(st.sampled_from(
            ["drop", "replace", "int", "count", "version"]), max_size=3)):
        if edit == "drop" and payload:
            del payload[draw(st.sampled_from(sorted(payload)))]
        elif edit == "replace" and payload:
            # An unknown key in a field's place: the key count is unchanged.
            name = draw(st.sampled_from(sorted(payload)))
            payload[draw(st.sampled_from(["bogus", "Seed", "spec_name "]))] = (
                payload.pop(name))
        elif edit == "int":
            payload[draw(st.sampled_from(INT_FIELDS))] = draw(
                st.sampled_from([True, False, 1.0, 2.5, None, HUGE_INT,
                                 -HUGE_INT]))
        elif edit == "count":
            payload["register_class_counts"] = {
                "gpr": 1, draw(st.text(max_size=3)): draw(st.sampled_from(
                    [True, 1.0, None, "1", [1], HUGE_INT]))}
        elif edit == "version":
            payload["schema_version"] = draw(
                st.sampled_from([None, 0, 1, 2, "1", True]))
    return payload


def outcome_of(decode, *args):
    """The record ``decode(*args)`` gives, or its ``ReproError``."""
    try:
        return decode(*args)
    except ReproError as exc:
        return exc


def encoded(record: ExperimentRecord):
    """``record.to_json()``, or the error writing it raises (``json``
    cannot write a 5,000-digit integer)."""
    try:
        return record.to_json()
    except ValueError as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want) -> None:
    """``got`` is the record ``want`` is, field by field and type by type, in
    the same attribute order; or the same error class with the same
    message."""
    if isinstance(want, ReproError):
        assert type(got) is type(want)
        assert str(got) == str(want)
        return
    assert isinstance(got, ExperimentRecord), got
    assert list(vars(got)) == list(vars(want)) == list(
        ExperimentRecord.__dataclass_fields__)
    for name in ExperimentRecord.__dataclass_fields__:
        assert type(getattr(got, name)) is type(getattr(want, name)), name
    if not holds_nan(list(vars(want).values())):
        assert got == want
    assert encoded(got) == encoded(want)


@st.composite
def mutated_record_lines(draw):
    """The line of a record object with one edit that ``json.loads``
    decides: whitespace before or after it, a BOM, trailing data, a second
    object, truncation, a NaN, deep nesting or a lone surrogate."""
    payload = draw(typed_record_objects() | record_objects())
    edit = draw(st.sampled_from(
        ["none", "leading", "trailing space", "bom", "trailing", "twice",
         "truncate", "nan", "deep", "surrogate"]))
    if edit == "nan":
        payload[draw(st.sampled_from(["duration", "seed", "extras"]))] = (
            draw(st.sampled_from([float("nan"), float("inf"),
                                  {"k": float("-inf")}])))
    line = json.dumps(payload)
    # JSON whitespace, and whitespace to ``str.strip`` only.
    space = st.sampled_from(
        [" ", "\t", "\n", "\r\n", " \n ", "\x0c", "\x85", "\u2028", "\n\x0c"])
    if edit == "leading":
        line = draw(space) + line + draw(space | st.just(""))
    elif edit == "trailing space":
        line += draw(space)
    elif edit == "bom":
        line = "\ufeff" + line
    elif edit == "trailing":
        line += draw(st.sampled_from(["x", "1", " 1", "]", "}", ",", "//"]))
    elif edit == "twice":
        line += draw(st.sampled_from(["", " ", "\n"])) + line
    elif edit == "truncate":
        line = line[:draw(st.integers(0, len(line) - 1))]
    elif edit == "deep":
        depth = draw(st.sampled_from([40, 100_000]))
        line = line[:-1] + (", " if len(line) > 2 else "") + (
            '"deep": ' + "[" * depth + "]" * depth + "}")
    elif edit == "surrogate":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + "\udcff" + line[at:]
    return line


class TestDecoderMatchesReference:
    """The bulk checks of ``from_dict`` and the ``raw_decode`` fast path of
    ``from_json``, pinned to the per-field decoder they replaced."""

    @given(payload=mutated_record_objects())
    @settings(max_examples=600, deadline=None)
    def test_from_dict_is_the_per_field_decoder(self, payload):
        """Property: ``from_dict`` gives the reference's record, with the
        same ``to_json`` and attribute order, or raises the same class with
        the same message; and leaves ``payload`` unchanged."""
        before = pickle.dumps(payload)
        got = outcome_of(ExperimentRecord.from_dict, payload)
        assert pickle.dumps(payload) == before
        assert_same_outcome(
            got, outcome_of(reference_from_dict, ExperimentRecord, payload))

    @given(line=mutated_record_lines())
    @settings(max_examples=400, deadline=None)
    def test_from_json_is_json_loads_and_the_per_field_decoder(self, line):
        """Property: ``from_json`` agrees with ``json.loads`` followed by
        the reference decoder, error messages included."""
        assert_same_outcome(
            outcome_of(ExperimentRecord.from_json, line),
            outcome_of(reference_from_json, ExperimentRecord, line))
