"""Property test for the fleet envelope parser, a trust boundary.

Fleet messages come off the network: a peer running another version, a
proxy answering for the coordinator, a body of the wrong shape. Whatever a
parsed message holds, checking it answers with a typed ``ReproError`` (the
CLI's one ``error:`` line and exit code, and a worker that stops cleanly),
never a ``TypeError`` or ``AttributeError`` traceback.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.fleet.protocol import FLEET_SCHEMA, require_fields, validate_message

#: Anything a JSON document can hold.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=12,
)

#: Field names the endpoints require, plus one no endpoint knows.
FIELDS = ["host_id", "lease", "lease_id", "shard_id", "campaign_id",
          "spec_ids", "records", "merged", "duplicates", "bogus"]


@st.composite
def envelopes(draw):
    """A fleet message with its stamp and fields dropped, re-typed or added."""
    message = {"schema": FLEET_SCHEMA}
    message.update(draw(st.dictionaries(st.sampled_from(FIELDS), json_values,
                                        max_size=4)))
    for name in draw(st.sets(st.sampled_from(sorted(message)))):
        del message[name]
    message.update(draw(st.dictionaries(
        st.sampled_from(["schema", "lease"]), json_values, max_size=2)))
    return message


#: Fleet messages, other JSON documents, and strings holding field names.
messages = st.one_of(
    envelopes(),
    json_values,
    st.lists(st.sampled_from(FIELDS)).map(" ".join),
)


class TestEnvelopeParsing:
    @given(data=messages, fields=st.lists(st.sampled_from(FIELDS),
                                          max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_envelope_parsing_raises_only_repro_error(self, data, fields):
        """Property: ``validate_message`` and ``require_fields`` raise only
        ReproError; a message that passes both is a stamped object holding
        every required field, and so is its ``lease``."""
        try:
            message = validate_message(data)
            require_fields(message, fields, context="property")
        except ReproError:
            return
        assert isinstance(message, dict)
        assert message["schema"] == FLEET_SCHEMA
        assert all(field in message for field in fields)
        try:
            require_fields(message.get("lease"), fields, context="lease")
        except ReproError:
            return
        assert isinstance(message["lease"], dict)
