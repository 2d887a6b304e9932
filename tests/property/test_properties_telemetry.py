"""Property test for the telemetry event parser, a trust boundary.

``events.jsonl`` files come from disk: streams a killed campaign cut short,
files another tool appended to, artifacts copied between machines. Whatever
a line holds, validating it answers with a typed ``ReproError`` (the CLI's
one ``error:`` line and exit code), never a ``ValueError``,
``RecursionError`` or ``UnicodeDecodeError`` traceback.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ObservabilityError, ReproError
from repro.obs.telemetry import (
    REQUIRED_PAYLOAD_FIELDS,
    TELEMETRY_SCHEMA,
    validate_event_dict,
    validate_events_file,
)

#: Anything a JSON document can hold.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=12,
)

KINDS = sorted(REQUIRED_PAYLOAD_FIELDS) + ["plugin_event"]


@st.composite
def event_objects(draw):
    """An event object with fields dropped, re-typed or added."""
    kind = draw(st.sampled_from(KINDS))
    event = {"schema": TELEMETRY_SCHEMA, "seq": draw(st.integers(0, 3)),
             "ts": 1.0, "kind": kind,
             "payload": {name: 0 for name in
                         REQUIRED_PAYLOAD_FIELDS.get(kind, ())}}
    for name in draw(st.sets(st.sampled_from(sorted(event)))):
        del event[name]
    event.update(draw(st.dictionaries(
        st.sampled_from(sorted(event) + ["payload", "bogus"]), json_values,
        max_size=3)))
    return event


#: Event-shaped objects, other JSON documents, plain text, and the two
#: documents the decoder rejects outside ``JSONDecodeError``: an integer
#: over the digit limit and nesting deeper than the recursion limit.
event_lines = st.one_of(
    event_objects().map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=40),
    st.just("1" * 5000),
    st.just("[" * 100_000),
)


class TestTelemetryParsing:
    @given(data=event_objects() | json_values)
    @settings(max_examples=300, deadline=None)
    def test_event_dict_validation_raises_only_repro_error(self, data):
        """Property: ``validate_event_dict`` raises only ReproError."""
        try:
            validate_event_dict(data)
        except ReproError:
            pass

    @given(lines=st.lists(event_lines, max_size=6))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_events_file_validation_raises_only_repro_error(
            self, lines, tmp_path):
        """Property: ``validate_events_file`` raises only ReproError on
        arbitrary text lines."""
        path = tmp_path / "events.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            validate_events_file(path)
        except ReproError:
            pass

    @given(lines=st.lists(event_lines.map(str.encode) | st.binary(max_size=40),
                          max_size=6))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_events_file_validation_of_bytes_raises_only_repro_error(
            self, lines, tmp_path):
        """Property: ``validate_events_file`` raises only ReproError on
        arbitrary byte lines, UTF-8 or not."""
        path = tmp_path / "events.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        try:
            validate_events_file(path)
        except ReproError:
            pass

    @pytest.mark.parametrize("line", [b"1" * 5000, b"[" * 100_000,
                                      b"\xff\xfe x"],
                             ids=["long-integer", "deep-nesting", "not-utf8"])
    def test_decoder_failures_name_the_line(self, line, tmp_path):
        """The decoder's non-``JSONDecodeError`` failures and a line that
        is not UTF-8 are each an ``ObservabilityError`` at ``path:line``."""
        valid = json.dumps({"schema": TELEMETRY_SCHEMA, "seq": 0, "ts": 1.0,
                            "kind": "plugin_event", "payload": {}})
        path = tmp_path / "events.jsonl"
        path.write_bytes(valid.encode() + b"\n" + line + b"\n")
        with pytest.raises(ObservabilityError) as caught:
            validate_events_file(path)
        assert str(caught.value).startswith(f"{path}:2: ")
