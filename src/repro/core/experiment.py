"""Single fault-injection experiments.

An *experiment* is one entry of the paper's test plan: bring the system under
test up, arm one injector (target + trigger + fault model), exercise the
workload for the test duration, collect the serial log and hypervisor events,
and classify the outcome. Three scenarios cover the paper's evaluation:

* ``STEADY_STATE`` — the Figure-3 setup: the mixed-criticality deployment is
  brought up fault-free, then faults are injected while the workload runs.
* ``LIFECYCLE_UNDER_FAULT`` — the high-intensity setup: the injector is armed
  *before* the non-root cell is created, so the cell-management path itself
  (hypercalls on the root CPU, hotplug swap on the target CPU) is exposed.
* ``PARK_AND_RECOVER`` — the isolation check: provoke a CPU park, then verify
  that destroying the cell returns its resources to the root cell.
"""

from __future__ import annotations

import enum
import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.faultmodels import FaultModel, RegisterClassBitFlip
from repro.core.injection import FaultInjector
from repro.core.outcomes import (
    ClassifiedOutcome,
    ExperimentResult,
    ManagementEvidence,
    OutcomeClassifier,
    OutcomeEvidence,
)
from repro.core.registry import SCENARIOS
from repro.core.sut import JailhouseSUT, SutConfig, SystemUnderTest
from repro.core.targets import InjectionTarget
from repro.core.triggers import EveryNCalls, Trigger
from repro.errors import CampaignError
from repro.hw.registers import RegisterClass

#: Default per-test duration used by the paper ("each test lasts 1 min.").
PAPER_TEST_DURATION = 60.0


def _component_state(component: object) -> str:
    """Deterministic textual state of a target/trigger/fault-model.

    ``describe()`` strings are for humans and lossy (e.g. two
    ``MultiRegisterBitFlip`` counts share one name), so spec identity hashes
    the component's public attributes instead. Enums collapse to their
    values, sets are sorted, and nested objects (custom trigger/fault-model
    helpers) recurse into *their* public state — never the default ``repr``,
    whose memory address would change every process and silently defeat
    resume.
    """
    def normalize(value):
        if isinstance(value, enum.Enum):
            return value.value
        if isinstance(value, (set, frozenset)):
            return sorted(normalize(entry) for entry in value)
        if isinstance(value, (list, tuple)):
            return [normalize(entry) for entry in value]
        if isinstance(value, dict):
            return {key: normalize(entry)
                    for key, entry in sorted(value.items())}
        if value is None or isinstance(value, (bool, int, float, str, bytes)):
            return value
        return _component_state(value)

    try:
        attributes = vars(component)
    except TypeError:                       # __slots__ or builtin: no state
        return type(component).__name__
    state = {
        key: normalize(value)
        for key, value in sorted(attributes.items())
        if not key.startswith("_")
    }
    return f"{type(component).__name__}:{state!r}"


class Scenario(enum.Enum):
    """Which phase of the system's life the faults are injected into."""

    STEADY_STATE = "steady_state"
    LIFECYCLE_UNDER_FAULT = "lifecycle_under_fault"
    REPEATED_LIFECYCLE = "repeated_lifecycle"
    PARK_AND_RECOVER = "park_and_recover"


# Config files and the CLI select scenarios by key; each enum value string is
# accepted as an alias so saved records (which store the value) round-trip.
SCENARIOS.add_value(
    "steady-state", Scenario.STEADY_STATE,
    aliases=(Scenario.STEADY_STATE.value,),
    description="Figure-3 setup: bring the deployment up fault-free, then "
                "inject while the workload runs.")
SCENARIOS.add_value(
    "lifecycle", Scenario.LIFECYCLE_UNDER_FAULT,
    aliases=(Scenario.LIFECYCLE_UNDER_FAULT.value,),
    description="arm the injector before the non-root cell is created, "
                "exposing the cell-management path.")
SCENARIOS.add_value(
    "repeated-lifecycle", Scenario.REPEATED_LIFECYCLE,
    aliases=(Scenario.REPEATED_LIFECYCLE.value,),
    description="cycle cell create/start/destroy under injection for the "
                "whole test.")
SCENARIOS.add_value(
    "park-and-recover", Scenario.PARK_AND_RECOVER,
    aliases=(Scenario.PARK_AND_RECOVER.value,),
    description="provoke a CPU park, destroy the cell, verify its resources "
                "return to the root cell.")


@dataclass
class ExperimentSpec:
    """Everything needed to run (and re-run) one experiment."""

    name: str
    target: InjectionTarget
    trigger: Trigger
    fault_model: FaultModel
    scenario: Scenario = Scenario.STEADY_STATE
    duration: float = PAPER_TEST_DURATION
    settle_time: float = 1.0
    warmup_time: float = 1.0
    observe_time: float = 10.0
    seed: int = 0
    intensity: str = "custom"

    def describe(self) -> str:
        return (
            f"{self.name}: {self.fault_model.describe()} -> "
            f"{self.target.describe()} ({self.trigger.describe()}), "
            f"{self.scenario.value}, {self.duration:.0f}s, seed {self.seed}"
        )

    def record_fields(self) -> Dict[str, object]:
        """The seven result and record fields this spec fixes."""
        return {
            "spec_name": self.name,
            "duration": self.duration,
            "seed": self.seed,
            "scenario": self.scenario.value,
            "target": self.target.describe(),
            "fault_model": self.fault_model.describe(),
            "intensity": self.intensity,
        }

    def identity(self) -> str:
        """Stable identity of this spec (name + seed + scenario/setup hash).

        The engine's checkpoint layer keys completed work on this value, so a
        resumed campaign only skips a spec when the experiment it would run is
        the same one that produced the stored record. Two specs that share a
        name but differ in seed, scenario, target, trigger, fault model, or
        any timing parameter therefore get distinct identities.
        """
        payload = "|".join((
            self.name,
            str(self.seed),
            self.scenario.value,
            _component_state(self.target),
            _component_state(self.trigger),
            _component_state(self.fault_model),
            f"{self.duration:g}",
            f"{self.settle_time:g}",
            f"{self.warmup_time:g}",
            f"{self.observe_time:g}",
            self.intensity,
        ))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def prefix_key(self) -> str:
        """Stable identity of this spec's *pre-injection prefix*.

        Two specs of one campaign (which runs one system under test) hash
        identically exactly when they execute the same golden bring-up
        before the injector is armed — same scenario, same seed (the guest
        RNG streams diverge per seed from the first boot draw), and the same
        prefix timing. Only the phases executed *before* arming matter:
        steady-state and park-and-recover settle for ``settle_time`` after
        the fault-free bring-up, while the lifecycle scenarios arm
        immediately after :meth:`~repro.core.sut.SystemUnderTest.setup` —
        so specs that differ only in target, trigger, fault model, duration,
        or post-arm timing share one prefix and can fork from one snapshot.
        Triggers contribute nothing: every trigger observes only the handler
        calls made after the injector is armed.
        """
        # The two lifecycle scenarios execute the identical prefix (the bare
        # boot), so they share one family; steady-state and park-and-recover
        # stay separate — their bring-ups run the same operations but enforce
        # different golden-run validations.
        if self.scenario in (Scenario.LIFECYCLE_UNDER_FAULT,
                             Scenario.REPEATED_LIFECYCLE):
            prefix_class = "post-setup"
        else:
            prefix_class = self.scenario.value
        parts = [prefix_class, str(self.seed)]
        if self.scenario in (Scenario.STEADY_STATE, Scenario.PARK_AND_RECOVER):
            parts.append(f"settle={self.settle_time:g}")
        payload = "|".join(parts)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


#: Factory building a fresh system under test for a given seed.
SutFactory = Callable[[int], SystemUnderTest]


def default_sut_factory(seed: int) -> SystemUnderTest:
    """Build the paper's Jailhouse deployment."""
    return JailhouseSUT(SutConfig(seed=seed))


class Experiment:
    """Runs one :class:`ExperimentSpec` against a fresh system under test."""

    def __init__(self, spec: ExperimentSpec,
                 sut_factory: SutFactory = default_sut_factory,
                 classifier: Optional[OutcomeClassifier] = None) -> None:
        self.spec = spec
        self.sut_factory = sut_factory
        self.classifier = classifier or OutcomeClassifier()

    def run(self) -> ExperimentResult:
        """Run the full experiment on a fresh system under test.

        Composes :meth:`run_prefix` (golden bring-up to the injection point)
        and :meth:`run_from_snapshot` (arm, inject, classify), which is
        exactly what the engine's prefix fast-forward path executes — the two
        paths share every line, so forked family members are bit-identical
        to cold runs by construction.
        """
        started = time.perf_counter()
        sut = self.sut_factory(self.spec.seed)
        try:
            self.run_prefix(sut)
            prefix_elapsed = time.perf_counter() - started
            result = self.run_from_snapshot(sut, wall_start=started)
            result.prefix_wall_time = prefix_elapsed
            return result
        finally:
            sut.teardown()

    # -- prefix: golden bring-up to the injection point -----------------------------------

    def run_prefix(self, sut: SystemUnderTest) -> None:
        """Execute the pre-injection prefix: everything before arming.

        No injector is installed during the prefix, so the resulting SUT
        state is shared by every spec with the same
        :meth:`ExperimentSpec.prefix_key` — the engine snapshots it once per
        prefix family and forks each fault variant from the snapshot. The
        steady-state and park-and-recover scenarios bring the deployment up
        fault-free and settle; the lifecycle scenarios stop right after
        :meth:`~repro.core.sut.SystemUnderTest.setup`, because exposing the
        cell-management path to faults *is* their experiment.
        """
        spec = self.spec
        scenario = spec.scenario
        sut.setup()
        if scenario is Scenario.STEADY_STATE:
            management = sut.perform_cell_lifecycle()
            if not (management.create_succeeded and management.start_succeeded):
                raise CampaignError(
                    "golden bring-up failed before injection; the system under "
                    "test is misconfigured"
                )
            sut.run(spec.settle_time)
            pre_check = sut.evidence(0.0, sut.now)
            if pre_check.observation.panicked or pre_check.observation.inconsistent_cells:
                raise CampaignError(
                    "golden bring-up left the system panicked or inconsistent "
                    "before any fault was injected; the system under test is "
                    "misconfigured"
                )
        elif scenario is Scenario.PARK_AND_RECOVER:
            management = sut.perform_cell_lifecycle()
            if not management.start_succeeded:
                raise CampaignError("golden bring-up failed before injection")
            sut.run(spec.settle_time)
        elif scenario in (Scenario.LIFECYCLE_UNDER_FAULT,
                          Scenario.REPEATED_LIFECYCLE):
            pass
        else:  # pragma: no cover - exhaustive enum
            raise CampaignError(f"unknown scenario {spec.scenario}")

    # -- suffix: arm, inject, classify ----------------------------------------------------

    def run_from_snapshot(self, sut: SystemUnderTest, *,
                          wall_start: Optional[float] = None) -> ExperimentResult:
        """Run the injection suffix on a SUT already at the post-prefix state.

        ``sut`` must be positioned exactly where :meth:`run_prefix` leaves it
        — either because the prefix just ran, or because the engine restored
        a prefix snapshot via ``fork_from_snapshot``. Builds and installs the
        injector (fresh RNG seeded from the spec, so the suffix draw order is
        independent of how the prefix state was reached), runs the scenario's
        injection window, and classifies the outcome. The caller owns the
        SUT's lifecycle: ``sut.teardown()`` (which uninstalls the injector)
        is *not* called here.
        """
        started = wall_start if wall_start is not None else time.perf_counter()
        spec = self.spec
        injector = FaultInjector(
            target=spec.target,
            trigger=spec.trigger,
            fault_model=spec.fault_model,
            seed=spec.seed,
        )
        injector.reset()
        sut.install_injector(injector)
        if spec.scenario is Scenario.STEADY_STATE:
            evidence, extras = self._suffix_steady_state(sut, injector)
        elif spec.scenario is Scenario.LIFECYCLE_UNDER_FAULT:
            evidence, extras = self._suffix_lifecycle_under_fault(sut, injector)
        elif spec.scenario is Scenario.REPEATED_LIFECYCLE:
            evidence, extras = self._suffix_repeated_lifecycle(sut, injector)
        elif spec.scenario is Scenario.PARK_AND_RECOVER:
            evidence, extras = self._suffix_park_and_recover(sut, injector)
        else:  # pragma: no cover - exhaustive enum
            raise CampaignError(f"unknown scenario {spec.scenario}")
        classified = self.classifier.classify(evidence)
        return self._build_result(classified, evidence, injector, extras,
                                  time.perf_counter() - started)

    # -- scenario suffixes ----------------------------------------------------------------

    def _suffix_steady_state(self, sut: SystemUnderTest,
                             injector: FaultInjector):
        spec = self.spec
        window_start = sut.now
        injector.arm()
        sut.run(spec.duration)
        injector.disarm()
        window_end = sut.now
        evidence = sut.evidence(window_start, window_end)
        evidence.management = ManagementEvidence()   # bring-up was fault-free
        return evidence, {}

    def _suffix_lifecycle_under_fault(self, sut: SystemUnderTest,
                                      injector: FaultInjector):
        spec = self.spec
        injector.arm()
        window_start = sut.now
        sut.run(spec.warmup_time)
        management = sut.perform_cell_lifecycle()
        sut.run(spec.observe_time)
        injector.disarm()
        window_end = sut.now
        evidence = sut.evidence(window_start, window_end)
        evidence.management = management
        extras = {
            "create_succeeded": management.create_succeeded,
            "start_succeeded": management.start_succeeded,
        }
        return evidence, extras

    def _suffix_repeated_lifecycle(self, sut: SystemUnderTest,
                                   injector: FaultInjector):
        """Repeatedly create/start/destroy the non-root cell under injection.

        A single management operation is only a handful of handler calls, so a
        rate-based trigger rarely lands exactly on it; cycling the cell for
        the whole test duration exposes the management path statistically, the
        way the paper's one-minute high-intensity tests do.
        """
        spec = self.spec
        injector.arm()
        window_start = sut.now
        sut.run(spec.warmup_time)
        aggregate = ManagementEvidence()
        dwell = max(spec.observe_time / 10.0, 1.0)
        attempts = 0
        while sut.now - window_start < spec.duration:
            if sut.evidence(window_start, sut.now).observation.panicked:
                break
            if sut.inmate_cell_exists():
                # A previous destroy was itself hit by a fault; retry so the
                # next create attempt starts from a clean slate.
                sut.destroy_inmate_cell()
            pre_existing = sut.inmate_cell_exists()
            attempt = sut.perform_cell_lifecycle()
            aggregate.merge_attempt(attempt)
            attempts += 1
            if (not attempt.create_succeeded and not pre_existing
                    and sut.inmate_cell_exists()):
                # A rejected create must never leave a cell allocated; this is
                # the safety property behind the paper's expected behaviour.
                aggregate.wrongly_allocated += 1
            sut.run(dwell)
            interim = sut.evidence(window_start, sut.now)
            if interim.observation.panicked:
                break
            if attempt.start_succeeded and interim.observation.cpu_online_failures:
                aggregate.inconsistent_starts += 1
            if attempt.create_succeeded:
                sut.destroy_inmate_cell()
            sut.run(0.2)
        injector.disarm()
        window_end = sut.now
        evidence = sut.evidence(window_start, window_end)
        evidence.management = aggregate
        extras = {
            "lifecycle_attempts": attempts,
            "create_attempts": aggregate.create_attempts,
            "create_rejections": aggregate.create_rejections,
            "start_attempts": aggregate.start_attempts,
            "start_rejections": aggregate.start_rejections,
            "wrongly_allocated": aggregate.wrongly_allocated,
            "inconsistent_starts": aggregate.inconsistent_starts,
        }
        return evidence, extras

    def _suffix_park_and_recover(self, sut: SystemUnderTest,
                                 injector: FaultInjector):
        spec = self.spec
        window_start = sut.now
        injector.arm()
        # Run in slices until a CPU park (or panic) shows up, or time runs out.
        slice_duration = max(spec.duration / 20.0, 0.5)
        elapsed = 0.0
        parked = False
        interim = None
        while elapsed < spec.duration:
            sut.run(slice_duration)
            elapsed += slice_duration
            interim = sut.evidence(window_start, sut.now)
            if interim.observation.panicked:
                break
            if interim.observation.parked_cpus:
                parked = True
                break
        injector.disarm()
        recovery_ok = False
        root_alive_after = False
        if parked:
            recovery_ok = sut.destroy_inmate_cell()
            sut.run(2.0)
            after = sut.evidence(window_start, sut.now)
            root_report = after.availability.get(after.root_cell or "", None)
            root_alive_after = (
                not after.observation.panicked
                and root_report is not None and root_report.lines > 0
            )
        window_end = sut.now
        # Classify against the state observed *at the failure*, not after the
        # recovery action (destroying the cell un-parks its CPU by design).
        if parked and interim is not None:
            evidence = interim
        else:
            evidence = sut.evidence(window_start, window_end)
        evidence.management = ManagementEvidence()
        extras = {
            "park_observed": parked,
            "destroy_returned_resources": recovery_ok,
            "root_cell_alive_after_destroy": root_alive_after,
            "isolation_preserved": parked and recovery_ok and root_alive_after,
        }
        return evidence, extras

    # -- result assembly ------------------------------------------------------------------------

    def _build_result(self, classified: ClassifiedOutcome,
                      evidence: OutcomeEvidence, injector: FaultInjector,
                      extras: Dict[str, object],
                      wall_time: float) -> ExperimentResult:
        spec = self.spec
        class_counts: Dict[str, int] = {}
        for fault in injector.faults_applied():
            key = fault.register_class.value
            class_counts[key] = class_counts.get(key, 0) + 1
        target_report = evidence.availability.get(evidence.target_cell or "", None)
        root_report = evidence.availability.get(evidence.root_cell or "", None)
        return ExperimentResult(
            **spec.record_fields(),
            outcome=classified.outcome,
            rationale=classified.rationale,
            injections=injector.injection_count,
            register_class_counts=class_counts,
            management=evidence.management,
            target_cell_lines=target_report.lines if target_report else 0,
            root_cell_lines=root_report.lines if root_report else 0,
            extras=extras,
            wall_time=wall_time,
        )


def park_provoking_spec(seed: int = 0, *, duration: float = 30.0) -> ExperimentSpec:
    """A spec biased toward producing the CPU-park outcome quickly (E4)."""
    return ExperimentSpec(
        name="park-and-recover",
        target=InjectionTarget.nonroot_cpu_trap(),
        trigger=EveryNCalls(10),
        fault_model=RegisterClassBitFlip(RegisterClass.STACK_POINTER),
        scenario=Scenario.PARK_AND_RECOVER,
        duration=duration,
        seed=seed,
        intensity="targeted",
    )
