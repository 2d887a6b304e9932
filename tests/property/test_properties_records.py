"""Property test for the record parser, a trust boundary.

Record lines come from disk: checkpoints a SIGKILL tore, stores another
tool wrote, files merged from fleet workers. Whatever a line holds, even
bytes that are not UTF-8, reading it answers with a typed ``ReproError``
(the CLI's one ``error:`` line and exit code), never a ``TypeError``,
``KeyError`` or ``UnicodeDecodeError`` traceback.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

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
