"""Property test for the record parser, a trust boundary.

Record lines come from disk: checkpoints a SIGKILL tore, stores another
tool wrote, files merged from fleet workers. Whatever a line holds, even
bytes that are not UTF-8, reading it answers with a typed ``ReproError``
(the CLI's one ``error:`` line and exit code), never a ``TypeError``,
``KeyError`` or ``UnicodeDecodeError`` traceback.
"""

import dataclasses
import json
from dataclasses import MISSING

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.streaming import analyze_records
from repro.core.outcomes import Outcome
from repro.core.recording import ExperimentRecord, RecordStore
from repro.errors import ReproError

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
