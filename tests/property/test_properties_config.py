"""Property test for the campaign config parser, a trust boundary.

Configs arrive from users' TOML/JSON files and, through the fleet, over the
wire. Whatever they hold, parsing and compiling answer with a typed
``ReproError`` (the CLI's one ``error:`` line and exit code), never a
``ValueError`` or ``TypeError`` traceback, and every spec a compiled plan
holds can give a verdict.
"""

import json
import math

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import (
    _CAMPAIGN_KEYS,
    CampaignConfig,
    load_campaign_config,
)
from repro.errors import ReproError

#: Compiling is bounded by clamping ``tests`` and ``sample_size`` to this.
MAX_COMPILED_TESTS = 3

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


#: The ``[campaign]`` keys that take a number and shape the compiled plan.
NUMERIC_KEYS = ("tests", "base_seed", "duration", "settle_time",
                "warmup_time", "observe_time", "sample_size", "sample_seed",
                "high_intensity_registers")


@st.composite
def numeric_configs(draw):
    """A valid config whose numeric keys take any number, NaN included.

    Arbitrary configs rarely get past parsing; these reach ``compile()``.
    """
    campaign = {
        "name": "fuzz",
        "intensity": draw(st.sampled_from(["medium", "high"])),
        "scenario": draw(st.sampled_from(
            ["steady-state", "lifecycle", "repeated-lifecycle",
             "park-and-recover"])),
        "sampling": draw(st.sampled_from(["grid", "random"])),
    }
    campaign.update(draw(st.dictionaries(
        st.sampled_from(NUMERIC_KEYS), st.integers() | st.floats())))
    return {"campaign": campaign, "target": [{"kind": "nonroot-trap"}]}


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

    @given(data=numeric_configs() | campaign_configs())
    @settings(max_examples=300, deadline=None)
    def test_compiled_specs_can_give_a_verdict(self, data):
        """Property: ``compile()`` raises only ReproError, and each spec it
        returns has a finite duration > 0, a seed >= 0 and finite
        settle/warmup/observe times >= 0.

        ``tests`` and ``sample_size`` are clamped after parsing, so the
        plan stays small whatever the config asks for.
        """
        try:
            config = CampaignConfig.from_dict(data)
        except ReproError:
            return
        config.tests = min(config.tests, MAX_COMPILED_TESTS)
        if config.sample_size is not None:
            config.sample_size = min(config.sample_size, MAX_COMPILED_TESTS)
        try:
            plan = config.compile()
        except ReproError:
            return
        for spec in plan:
            assert math.isfinite(spec.duration) and spec.duration > 0
            assert spec.seed >= 0
            for value in (spec.settle_time, spec.warmup_time,
                          spec.observe_time):
                assert math.isfinite(value) and value >= 0
