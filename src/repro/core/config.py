"""Declarative campaign configuration.

A :class:`CampaignConfig` describes a fault-injection campaign as *data*: a
name, per-test timing, and one or more candidates per experiment axis —
injection target, trigger, fault model, scenario — each named by its
:mod:`~repro.core.registry` key plus parameters. :meth:`CampaignConfig.compile`
turns that description into a concrete :class:`~repro.core.plan.TestPlan`,
either as the full cross-product of the axes (*grid* sampling) or as a
seeded-random sample of it, so new campaigns compose from registered parts
instead of new Python builder functions.

Configs load from TOML or JSON files (:func:`load_campaign_config`) and from
plain dicts (:meth:`CampaignConfig.from_dict`)::

    [campaign]
    name = "fig3-medium-nonroot-trap"
    tests = 40
    duration = 60.0
    intensity = "medium"          # shorthand: derives trigger + fault model
    scenario = "steady-state"
    sut = "jailhouse"

    [[target]]
    kind = "nonroot-trap"

Compilation is deterministic: the same config always yields specs with the
same :meth:`~repro.core.experiment.ExperimentSpec.identity` values (random
sampling draws from a generator seeded with ``sample_seed``), so engine
checkpoints written under one front-end are resumable under another. The
paper's hand-written plans are available as catalog entries
(:func:`catalog_config`) expressed through this same compile path, with
identities byte-identical to the historical builders in
:mod:`repro.core.plan`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.experiment import ExperimentSpec, PAPER_TEST_DURATION
from repro.core.plan import IntensityLevel, TestPlan
from repro.core.policy import RunPolicy
from repro.core.registry import (
    CLASSIFIERS,
    FAULT_MODELS,
    RegistrySutFactory,
    SCENARIOS,
    TARGETS,
    TRIGGERS,
    suggest_close_matches,
)
from repro.errors import CampaignConfigError, CampaignError
from repro.rng import seeded_rng

#: ``[campaign]`` keys that make up the campaign's :class:`RunPolicy`, with
#: the type each is coerced to.
_POLICY_KEYS = {"timeout_s": float, "retries": int, "max_worker_restarts": int}
#: Keys accepted in the ``[campaign]`` table (anything else is a typo).
_CAMPAIGN_KEYS = frozenset({
    "name", "description", "tests", "base_seed", "duration", "settle_time",
    "warmup_time", "observe_time", "intensity", "scenario", "sut",
    "classifier", "sampling", "sample_size", "sample_seed",
    "high_intensity_registers", *_POLICY_KEYS,
})
#: Top-level tables/arrays accepted next to ``[campaign]``.
_TOP_LEVEL_KEYS = frozenset({"campaign", "target", "trigger", "fault_model"})


@dataclass(frozen=True)
class PartRef:
    """One registered part: registry ``kind`` key + builder params.

    ``tag`` names the part inside generated spec names when an axis has more
    than one candidate; it defaults to the kind key.
    """

    kind: str
    params: Dict[str, object] = field(default_factory=dict)
    tag: Optional[str] = None

    @property
    def label(self) -> str:
        return self.tag or self.kind

    @classmethod
    def from_value(cls, value, *, axis: str) -> "PartRef":
        if isinstance(value, PartRef):
            return value
        if isinstance(value, str):
            return cls(kind=value)
        if isinstance(value, dict):
            unknown = set(value) - {"kind", "params", "tag"}
            if unknown:
                raise CampaignConfigError(
                    f"{axis} entry has unknown keys {sorted(unknown)}; "
                    f"expected 'kind', 'params', 'tag'"
                )
            if not isinstance(value.get("kind"), str):
                raise CampaignConfigError(
                    f"{axis} entry needs a string 'kind' key")
            params = value.get("params", {})
            if not isinstance(params, dict):
                raise CampaignConfigError(
                    f"{axis} params must be a table/object, got {type(params).__name__}"
                )
            tag = value.get("tag")
            if tag is not None and not isinstance(tag, str):
                raise CampaignConfigError(
                    f"{axis} 'tag' must be a string, got {type(tag).__name__}")
            return cls(kind=value["kind"], params=dict(params), tag=tag)
        raise CampaignConfigError(
            f"{axis} entry must be a registry key string or a table with "
            f"'kind'/'params', got {type(value).__name__}"
        )


def _part_list(raw, *, axis: str) -> List[PartRef]:
    if raw is None:
        return []
    entries = raw if isinstance(raw, list) else [raw]
    parts = [PartRef.from_value(entry, axis=axis) for entry in entries]
    labels = [part.label for part in parts]
    duplicates = sorted({label for label in labels if labels.count(label) > 1})
    if duplicates:
        raise CampaignConfigError(
            f"{axis} axis has duplicate labels {duplicates}; give entries "
            f"that share a kind distinct 'tag' values"
        )
    return parts


@dataclass
class CampaignConfig:
    """A campaign described by registered parts, compilable to a TestPlan."""

    name: str
    targets: List[PartRef]
    triggers: List[PartRef] = field(default_factory=list)
    fault_models: List[PartRef] = field(default_factory=list)
    scenarios: List[str] = field(default_factory=lambda: ["steady-state"])
    sut: PartRef = field(default_factory=lambda: PartRef("jailhouse"))
    classifier: PartRef = field(default_factory=lambda: PartRef("default"))
    description: str = ""
    #: Seeds per grid combination (grid) / number of draws (random sampling).
    tests: int = 1
    base_seed: int = 0
    duration: float = PAPER_TEST_DURATION
    settle_time: float = 1.0
    warmup_time: float = 1.0
    observe_time: float = 10.0
    #: ``"medium"``/``"high"`` derive trigger + fault model from the paper's
    #: intensity levels when those axes are omitted; any other string is just
    #: the label stamped on the specs (default ``"custom"``).
    intensity: Optional[str] = None
    high_intensity_registers: int = 4
    sampling: str = "grid"
    sample_size: Optional[int] = None
    sample_seed: int = 0
    #: Supervision policy, from the ``timeout_s``/``retries``/
    #: ``max_worker_restarts`` keys (the CLI's ``--timeout``/``--retries``/
    #: ``--max-worker-restarts`` override them).
    policy: RunPolicy = RunPolicy()

    # -- loading --------------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        if not isinstance(data, dict):
            raise CampaignConfigError(
                f"campaign config must be a table/object, got {type(data).__name__}"
            )
        unknown = set(data) - _TOP_LEVEL_KEYS
        if unknown:
            raise CampaignConfigError(
                _unknown_keys_message(unknown, _TOP_LEVEL_KEYS, where="config")
            )
        campaign = data.get("campaign")
        if not isinstance(campaign, dict):
            raise CampaignConfigError("config needs a [campaign] table")
        unknown = set(campaign) - _CAMPAIGN_KEYS
        if unknown:
            raise CampaignConfigError(
                _unknown_keys_message(unknown, _CAMPAIGN_KEYS,
                                      where="[campaign]")
            )
        name = campaign.get("name")
        if not name or not isinstance(name, str):
            raise CampaignConfigError("[campaign] needs a non-empty 'name'")

        targets = _part_list(data.get("target"), axis="target")
        if not targets:
            raise CampaignConfigError(
                "config needs at least one [[target]] (or [target]) entry"
            )
        scenario_raw = campaign.get("scenario", "steady-state")
        scenarios = (scenario_raw if isinstance(scenario_raw, list)
                     else [scenario_raw])
        sut = PartRef.from_value(campaign.get("sut", "jailhouse"), axis="sut")
        classifier = PartRef.from_value(campaign.get("classifier", "default"),
                                        axis="classifier")
        config = cls(
            name=name,
            description=campaign.get("description", ""),
            targets=targets,
            triggers=_part_list(data.get("trigger"), axis="trigger"),
            fault_models=_part_list(data.get("fault_model"), axis="fault_model"),
            scenarios=[str(entry) for entry in scenarios],
            sut=sut,
            classifier=classifier,
            tests=_number(campaign, "tests", int, 1),
            base_seed=_number(campaign, "base_seed", int, 0),
            duration=_number(campaign, "duration", float,
                             PAPER_TEST_DURATION),
            settle_time=_number(campaign, "settle_time", float, 1.0),
            warmup_time=_number(campaign, "warmup_time", float, 1.0),
            observe_time=_number(campaign, "observe_time", float, 10.0),
            intensity=campaign.get("intensity"),
            high_intensity_registers=_number(
                campaign, "high_intensity_registers", int, 4),
            sampling=campaign.get("sampling", "grid"),
            sample_size=_number(campaign, "sample_size", int, None),
            sample_seed=_number(campaign, "sample_seed", int, 0),
            policy=_policy(campaign),
        )
        config.validate()
        return config

    def to_dict(self) -> dict:
        """The config as the plain dict :meth:`from_dict` accepts.

        This is the fleet wire format: a coordinator serializes a submitted
        campaign with ``to_dict`` and every worker host rebuilds it with
        ``from_dict`` + :meth:`compile` — compilation is deterministic, so
        all hosts agree on every spec's
        :meth:`~repro.core.experiment.ExperimentSpec.identity` without ever
        shipping compiled plans. Round-trip is exact:
        ``CampaignConfig.from_dict(config.to_dict())`` equals ``config``.
        """
        def part(ref: PartRef) -> dict:
            entry: Dict[str, object] = {"kind": ref.kind}
            if ref.params:
                entry["params"] = dict(ref.params)
            if ref.tag is not None:
                entry["tag"] = ref.tag
            return entry

        campaign: Dict[str, object] = {
            "name": self.name,
            "tests": self.tests,
            "base_seed": self.base_seed,
            "duration": self.duration,
            "settle_time": self.settle_time,
            "warmup_time": self.warmup_time,
            "observe_time": self.observe_time,
            "scenario": list(self.scenarios),
            "sut": part(self.sut),
            "classifier": part(self.classifier),
            "sampling": self.sampling,
            "sample_seed": self.sample_seed,
            "high_intensity_registers": self.high_intensity_registers,
        }
        if self.description:
            campaign["description"] = self.description
        if self.intensity is not None:
            campaign["intensity"] = self.intensity
        if self.sample_size is not None:
            campaign["sample_size"] = self.sample_size
        for key in _POLICY_KEYS:
            value = getattr(self.policy, key)
            if value != getattr(RunPolicy(), key):
                campaign[key] = value
        data: Dict[str, object] = {
            "campaign": campaign,
            "target": [part(ref) for ref in self.targets],
        }
        if self.triggers:
            data["trigger"] = [part(ref) for ref in self.triggers]
        if self.fault_models:
            data["fault_model"] = [part(ref) for ref in self.fault_models]
        return data

    def validate(self) -> None:
        if self.tests <= 0:
            raise CampaignConfigError("[campaign] tests must be positive")
        if self.sampling not in ("grid", "random"):
            raise CampaignConfigError(
                f"sampling must be 'grid' or 'random', got {self.sampling!r}"
            )
        if self.sampling == "random" and (self.sample_size or 0) <= 0:
            raise CampaignConfigError(
                "random sampling needs a positive 'sample_size'"
            )
        if self.sample_seed < 0:
            # Seeds the sampling generator before any spec exists, so the
            # plan's own seed check never sees it.
            raise CampaignConfigError(
                f"[campaign] sample_seed must be >= 0, got {self.sample_seed}"
            )
        if not self.scenarios:
            raise CampaignConfigError("config needs at least one scenario")
        # Duplicate scenarios (including an alias spelling of one already
        # listed, e.g. "steady-state" + "steady_state") would silently double
        # every experiment and then trip the plan's duplicate-name check with
        # an opaque PlanError; reject them here with the config vocabulary.
        canonical_scenarios = [SCENARIOS.canonical(key)
                               for key in self.scenarios]
        duplicates = sorted({key for key in canonical_scenarios
                             if canonical_scenarios.count(key) > 1})
        if duplicates:
            raise CampaignConfigError(
                f"scenario list names {duplicates} more than once "
                f"(aliases count as the same scenario)"
            )
        intensity = self._intensity_level()
        if intensity is None and (not self.triggers or not self.fault_models):
            raise CampaignConfigError(
                "config needs [[trigger]] and [[fault_model]] entries, or "
                "intensity = 'medium'/'high' to derive them"
            )

    # -- compilation ----------------------------------------------------------------

    def _intensity_level(self) -> Optional[IntensityLevel]:
        if self.intensity is None:
            return None
        try:
            return IntensityLevel(self.intensity)
        except ValueError:
            return None

    def _intensity_label(self) -> str:
        return self.intensity if self.intensity is not None else "custom"

    def _trigger_axis(self) -> List[PartRef]:
        if self.triggers:
            return self.triggers
        level = self._intensity_level()
        return [PartRef("every-n-calls", {"n": level.call_interval},
                        tag=f"{level.value}-trigger")]

    def _fault_model_axis(self) -> List[PartRef]:
        if self.fault_models:
            return self.fault_models
        level = self._intensity_level()
        if level is IntensityLevel.MEDIUM:
            return [PartRef("single-bit-flip", tag="medium-fault")]
        return [PartRef(
            "multi-register-bit-flip",
            {"count": self.high_intensity_registers},
            tag="high-fault",
        )]

    def _combinations(self) -> List[Tuple[PartRef, PartRef, PartRef, str]]:
        """The grid: target x trigger x fault model x scenario, in axis order."""
        return [
            (target, trigger, fault_model, scenario)
            for target in self.targets
            for trigger in self._trigger_axis()
            for fault_model in self._fault_model_axis()
            for scenario in self.scenarios
        ]

    def _combo_tag(self, combo, varying: Tuple[bool, bool, bool, bool]) -> str:
        parts = [entry.label if isinstance(entry, PartRef) else str(entry)
                 for entry, varies in zip(combo, varying) if varies]
        return ".".join(parts)

    def compile(self) -> TestPlan:
        """Compile to a :class:`TestPlan` (deterministic for a given config).

        *Grid* sampling emits ``tests`` seeds (``base_seed + i``) for every
        combination of the axes; a single-combination grid reproduces the
        historical builders' ``{name}-{i:04d}`` spec names exactly, so the
        paper catalog keeps its pre-refactor identities. *Random* sampling
        draws ``sample_size`` combinations (with replacement) from the grid
        using a generator seeded with ``sample_seed``.
        """
        self.validate()
        combos = self._combinations()
        varying = (len(self.targets) > 1, len(self._trigger_axis()) > 1,
                   len(self._fault_model_axis()) > 1, len(self.scenarios) > 1)
        plan = TestPlan(name=self.name, description=self.description)
        if self.sampling == "random":
            rng = seeded_rng(self.sample_seed)
            draws = rng.integers(0, len(combos), size=int(self.sample_size))
            for index, draw in enumerate(draws):
                combo = combos[int(draw)]
                tag = self._combo_tag(combo, varying)
                suffix = f"-{tag}" if tag else ""
                plan.add(self._build_spec(
                    combo, name=f"{self.name}-{index:04d}{suffix}",
                    seed=self.base_seed + index,
                ))
        else:
            for combo in combos:
                tag = self._combo_tag(combo, varying)
                label = f"{self.name}-{tag}" if tag else self.name
                for index in range(self.tests):
                    plan.add(self._build_spec(
                        combo, name=f"{label}-{index:04d}",
                        seed=self.base_seed + index,
                    ))
        plan.validate()
        return plan

    def _build_spec(self, combo, *, name: str, seed: int) -> ExperimentSpec:
        target_ref, trigger_ref, fault_ref, scenario_key = combo
        return ExperimentSpec(
            name=name,
            target=TARGETS.build(target_ref.kind, **target_ref.params),
            trigger=TRIGGERS.build(trigger_ref.kind, **trigger_ref.params),
            fault_model=FAULT_MODELS.build(fault_ref.kind, **fault_ref.params),
            scenario=SCENARIOS.build(scenario_key),
            duration=self.duration,
            settle_time=self.settle_time,
            warmup_time=self.warmup_time,
            observe_time=self.observe_time,
            seed=seed,
            intensity=self._intensity_label(),
        )

    # -- execution helpers ------------------------------------------------------------

    def sut_factory(self, override: Optional[str] = None) -> RegistrySutFactory:
        """A picklable SUT factory for this campaign (``override`` wins)."""
        if override is not None:
            return RegistrySutFactory(override)
        return RegistrySutFactory(self.sut.kind, self.sut.params)

    def build_classifier(self):
        return CLASSIFIERS.build(self.classifier.kind, **self.classifier.params)

    def describe(self) -> str:
        combos = self._combinations()
        total = (int(self.sample_size) if self.sampling == "random"
                 else len(combos) * self.tests)
        return (f"campaign {self.name!r}: {len(combos)} grid point(s), "
                f"{self.sampling} sampling, {total} experiments, "
                f"sut {self.sut.kind!r}")


def _number(campaign: dict, key: str, kind: type, default):
    """``campaign[key]`` coerced by ``kind`` (``int`` or ``float``), or
    ``default`` when the key is absent."""
    if key not in campaign:
        return default
    value = campaign[key]
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a number"
        raise CampaignConfigError(
            f"[campaign] {key} must be {noun}, got {value!r}") from None


def _policy(campaign: dict) -> RunPolicy:
    """The ``[campaign]`` supervision keys as a :class:`RunPolicy`."""
    values = {key: _number(campaign, key, kind, None)
              for key, kind in _POLICY_KEYS.items() if key in campaign}
    try:
        return RunPolicy(**values)
    except CampaignError as exc:
        raise CampaignConfigError(f"[campaign] {exc}") from None


def _unknown_keys_message(unknown, known, *, where: str) -> str:
    parts = [f"{key!r}{suggest_close_matches(key, known)}"
             for key in sorted(unknown)]
    return f"unknown {where} key(s): {'; '.join(parts)}"


def load_campaign_config(path: "str | Path") -> CampaignConfig:
    """Load a :class:`CampaignConfig` from a TOML or JSON file."""
    path = Path(path)
    if not path.exists():
        raise CampaignConfigError(f"campaign config {path} does not exist")
    suffix = path.suffix.lower()
    try:
        if suffix == ".toml":
            import tomllib
            with path.open("rb") as handle:
                data = tomllib.load(handle)
        elif suffix == ".json":
            with path.open("r", encoding="utf-8") as handle:
                data = json.load(handle)
        else:
            raise CampaignConfigError(
                f"unsupported campaign config format {suffix!r} "
                f"(expected .toml or .json): {path}"
            )
    except CampaignConfigError:
        raise
    except Exception as exc:
        raise CampaignConfigError(f"cannot parse {path}: {exc}") from exc
    return CampaignConfig.from_dict(data)


# -- the paper catalog ---------------------------------------------------------------
#
# The hand-written plan builders of :mod:`repro.core.plan` expressed as
# catalog entries through the compile path above. Identities are
# byte-identical to the historical builders (asserted by the determinism
# tests), so checkpoints recorded before the declarative layer resume cleanly.

def _fig3_entry() -> CampaignConfig:
    """Figure 3: medium intensity on the non-root cell's trap handler."""
    return CampaignConfig(
        name="fig3-medium-nonroot-trap",
        description="Figure-3 campaign: medium intensity, non-root trap handler",
        targets=[PartRef("nonroot-trap")],
        scenarios=["steady-state"],
        intensity="medium",
        tests=200,
        duration=PAPER_TEST_DURATION,
    )


def _high_root_entry() -> CampaignConfig:
    """High intensity on the root CPU's hvc+trap handlers (invalid arguments)."""
    return CampaignConfig(
        name="high-root-hvc-trap",
        description="high-intensity root-cell campaign (invalid-arguments finding)",
        targets=[PartRef("hvc+trap", {"cpus": [0]})],
        scenarios=["repeated-lifecycle"],
        intensity="high",
        tests=60,
        duration=20.0,
        base_seed=1000,
    )


def _high_nonroot_entry() -> CampaignConfig:
    """High intensity on the non-root CPU (inconsistent-state finding)."""
    return CampaignConfig(
        name="high-nonroot-hvc-trap",
        description="high-intensity non-root campaign (inconsistent-state finding)",
        targets=[PartRef("hvc+trap", {"cpus": [1]})],
        scenarios=["lifecycle"],
        intensity="high",
        tests=60,
        duration=20.0,
        base_seed=2000,
    )


def _park_and_recover_entry() -> CampaignConfig:
    """Provoke CPU parks and verify destroy returns the cell's resources."""
    return CampaignConfig(
        name="park-and-recover",
        description="isolation check: provoke a CPU park, destroy, verify recovery",
        targets=[PartRef("nonroot-trap")],
        triggers=[PartRef("every-n-calls", {"n": 10})],
        fault_models=[PartRef("register-class-bit-flip", {"target_class": "sp"})],
        scenarios=["park-and-recover"],
        intensity="targeted",
        tests=20,
        duration=30.0,
    )


_CATALOG: Dict[str, Callable[[], CampaignConfig]] = {
    "fig3": _fig3_entry,
    "high-root": _high_root_entry,
    "high-nonroot": _high_nonroot_entry,
    "park-and-recover": _park_and_recover_entry,
}


def catalog_keys() -> List[str]:
    """Names of the built-in paper campaigns."""
    return sorted(_CATALOG)


def catalog_config(key: str, *, num_tests: Optional[int] = None,
                   duration: Optional[float] = None,
                   base_seed: Optional[int] = None) -> CampaignConfig:
    """The catalog entry for ``key``, with optional size/timing overrides."""
    try:
        entry = _CATALOG[key]
    except KeyError:
        raise CampaignConfigError(
            f"unknown catalog campaign {key!r}; "
            f"available: {', '.join(catalog_keys())}"
            f"{suggest_close_matches(key, _CATALOG)}"
        ) from None
    config = entry()
    overrides = {}
    if num_tests is not None:
        overrides["tests"] = num_tests
    if duration is not None:
        overrides["duration"] = duration
    if base_seed is not None:
        overrides["base_seed"] = base_seed
    return replace(config, **overrides) if overrides else config


def catalog_describe() -> List[str]:
    """One ``key — summary`` line per catalog entry."""
    lines = []
    for key in catalog_keys():
        config = _CATALOG[key]()
        lines.append(f"{key} — {config.description or config.name}")
    return lines
