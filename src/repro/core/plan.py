"""Test plans and intensity levels.

The paper's generated test plan "consists of two classes of testing, defined
by the fault intensity level": *medium* (a discontinuous single-register bit
flip, once every 100 calls to the target function) and *high* (bit flips of
multiple registers at a time, once every 50 calls). Each test lasts one
minute. :func:`build_intensity_plan` reproduces those plans; the generic
:class:`TestPlan` supports the ablation benchmarks (rate sweeps, per-register-
class campaigns, alternative targets).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.experiment import ExperimentSpec, PAPER_TEST_DURATION, Scenario
from repro.core.faultmodels import FaultModel, MultiRegisterBitFlip, SingleBitFlip
from repro.core.targets import InjectionTarget
from repro.core.triggers import EveryNCalls, Trigger
from repro.errors import CampaignError, PlanError


def verdict_problem(duration: float, seed: int,
                    **phase_times: float) -> Optional[str]:
    """Why a run can never give a verdict, or ``None`` when it can.

    A window that never runs still classifies (as ``silent_failure``), a
    negative time skips its phase, and a negative seed fails inside the
    run; none of them says anything about the system under test. Plan
    validation and the golden run share this rule.
    """
    if not (math.isfinite(duration) and duration > 0):
        return f"needs a finite duration > 0 s, got {duration!r}"
    if seed < 0:
        return f"needs a seed >= 0, got {seed!r}"
    for name, value in phase_times.items():
        if not (math.isfinite(value) and value >= 0):
            return f"needs a finite {name} >= 0 s, got {value!r}"
    return None


class IntensityLevel(enum.Enum):
    """The paper's fault intensity levels."""

    MEDIUM = "medium"
    HIGH = "high"

    @property
    def call_interval(self) -> int:
        """Injection rate: one activation every this many target calls."""
        return 100 if self is IntensityLevel.MEDIUM else 50

    def build_fault_model(self, *, high_intensity_registers: int = 4) -> FaultModel:
        if self is IntensityLevel.MEDIUM:
            return SingleBitFlip()
        return MultiRegisterBitFlip(count=high_intensity_registers)

    def build_trigger(self) -> Trigger:
        return EveryNCalls(self.call_interval)


@dataclass
class TestPlan:
    """An ordered collection of experiment specifications."""

    #: Not a pytest test class, despite the name.
    __test__ = False

    name: str
    specs: List[ExperimentSpec] = field(default_factory=list)
    description: str = ""

    def add(self, spec: ExperimentSpec) -> None:
        self.specs.append(spec)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def validate(self) -> None:
        if not self.specs:
            raise PlanError(f"test plan {self.name!r} has no experiments")
        seen: set = set()
        duplicates: List[str] = []
        for spec in self.specs:
            if spec.name in seen and spec.name not in duplicates:
                duplicates.append(spec.name)
            seen.add(spec.name)
        if duplicates:
            raise PlanError(
                f"test plan {self.name!r} has duplicate experiment names: "
                f"{duplicates}; names must be unique within a plan — together "
                f"with seed and scenario they form the checkpoint/resume "
                f"fallback key"
            )
        for spec in self.specs:
            problem = verdict_problem(
                spec.duration, spec.seed, settle_time=spec.settle_time,
                warmup_time=spec.warmup_time, observe_time=spec.observe_time)
            if problem is not None:
                raise PlanError(
                    f"test plan {self.name!r}: experiment {spec.name!r} "
                    f"{problem}")

    def describe(self) -> str:
        lines = [f"Test plan {self.name!r}: {len(self.specs)} experiments"]
        if self.description:
            lines.append(f"  {self.description}")
        for spec in self.specs[:5]:
            lines.append(f"  - {spec.describe()}")
        if len(self.specs) > 5:
            lines.append(f"  ... and {len(self.specs) - 5} more")
        return "\n".join(lines)


def build_intensity_plan(
    intensity: IntensityLevel,
    target: InjectionTarget,
    *,
    num_tests: int,
    scenario: Scenario = Scenario.STEADY_STATE,
    duration: float = PAPER_TEST_DURATION,
    base_seed: int = 0,
    name: Optional[str] = None,
    high_intensity_registers: int = 4,
) -> TestPlan:
    """Build the paper's medium- or high-intensity test plan for one target."""
    if num_tests <= 0:
        raise CampaignError("a test plan needs at least one test")
    plan_name = name or f"{intensity.value}-intensity-{target.describe()}"
    plan = TestPlan(
        name=plan_name,
        description=(
            f"{intensity.value} intensity: {intensity.build_fault_model(high_intensity_registers=high_intensity_registers).describe()} "
            f"once every {intensity.call_interval} calls, "
            f"{num_tests} tests of {duration:.0f}s each"
        ),
    )
    for index in range(num_tests):
        plan.add(
            ExperimentSpec(
                name=f"{plan_name}-{index:04d}",
                target=target,
                trigger=intensity.build_trigger(),
                fault_model=intensity.build_fault_model(
                    high_intensity_registers=high_intensity_registers
                ),
                scenario=scenario,
                duration=duration,
                seed=base_seed + index,
                intensity=intensity.value,
            )
        )
    plan.validate()
    return plan


def build_custom_plan(
    name: str,
    target: InjectionTarget,
    trigger_factory: Callable[[], Trigger],
    fault_model_factory: Callable[[], FaultModel],
    *,
    num_tests: int,
    scenario: Scenario = Scenario.STEADY_STATE,
    duration: float = PAPER_TEST_DURATION,
    base_seed: int = 0,
    intensity: str = "custom",
) -> TestPlan:
    """Build a plan from arbitrary trigger/fault-model factories (ablations)."""
    if num_tests <= 0:
        raise CampaignError("a test plan needs at least one test")
    plan = TestPlan(name=name)
    for index in range(num_tests):
        plan.add(
            ExperimentSpec(
                name=f"{name}-{index:04d}",
                target=target,
                trigger=trigger_factory(),
                fault_model=fault_model_factory(),
                scenario=scenario,
                duration=duration,
                seed=base_seed + index,
                intensity=intensity,
            )
        )
    plan.validate()
    return plan


# The paper plans are catalog entries compiled through the declarative layer
# (see the catalog in :mod:`repro.core.config`). Spec identities are
# byte-identical to the hand-written builders these functions used to inline,
# so checkpoints recorded before the refactor still resume. Imports are local
# because config builds on TestPlan/IntensityLevel from this module.

def paper_figure3_plan(*, num_tests: int = 200, duration: float = PAPER_TEST_DURATION,
                       base_seed: int = 0) -> TestPlan:
    """The Figure-3 campaign: medium intensity on the non-root cell's trap handler."""
    from repro.core.config import catalog_config
    return catalog_config("fig3", num_tests=num_tests, duration=duration,
                          base_seed=base_seed).compile()


def paper_high_intensity_root_plan(*, num_tests: int = 60, duration: float = 20.0,
                                   base_seed: int = 1000) -> TestPlan:
    """The high-intensity root-cell campaign (invalid-arguments finding)."""
    from repro.core.config import catalog_config
    return catalog_config("high-root", num_tests=num_tests, duration=duration,
                          base_seed=base_seed).compile()


def paper_high_intensity_nonroot_plan(*, num_tests: int = 60, duration: float = 20.0,
                                      base_seed: int = 2000) -> TestPlan:
    """The high-intensity non-root campaign (inconsistent-state finding)."""
    from repro.core.config import catalog_config
    return catalog_config("high-nonroot", num_tests=num_tests,
                          duration=duration, base_seed=base_seed).compile()
