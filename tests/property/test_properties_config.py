"""Property test for the campaign config parser, a trust boundary.

Configs arrive from users' TOML/JSON files and, through the fleet, over the
wire. Whatever they hold, parsing answers with a typed ``ReproError`` (the
CLI's one ``error:`` line and exit code), never a ``ValueError`` or
``TypeError`` traceback.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import (
    _CAMPAIGN_KEYS,
    CampaignConfig,
    load_campaign_config,
)
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

#: Axis entries: arbitrary values, or tables with arbitrary kind/params/tag.
axis_entries = st.one_of(
    json_values,
    st.fixed_dictionaries({}, optional={
        "kind": json_values, "params": json_values, "tag": json_values}),
)


@st.composite
def campaign_configs(draw):
    """A well-formed config with arbitrary values for any of its keys."""
    campaign = {"name": "fuzz", "intensity": "medium"}
    campaign.update(draw(st.dictionaries(
        st.sampled_from(sorted(_CAMPAIGN_KEYS)), json_values)))
    data = {"campaign": campaign, "target": [{"kind": "nonroot-trap"}]}
    data.update(draw(st.dictionaries(
        st.sampled_from(["target", "trigger", "fault_model"]),
        axis_entries | st.lists(axis_entries, max_size=3))))
    return data


class TestCampaignConfigParsing:
    @given(data=campaign_configs() | json_values)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_campaign_config_parsing_raises_only_repro_error(
            self, data, tmp_path):
        """Property: campaign config parsing raises only ReproError.

        The same data goes through ``from_dict`` and, written as a ``.json``
        file, through ``load_campaign_config``. Compilation is left out: an
        arbitrary ``tests`` count makes it unbounded.
        """
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        for parse in (lambda: CampaignConfig.from_dict(data),
                      lambda: load_campaign_config(path)):
            try:
                parse()
            except ReproError:
                pass
