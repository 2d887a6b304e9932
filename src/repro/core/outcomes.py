"""Outcome taxonomy and classifier.

The paper's results are expressed in a small vocabulary of per-test outcomes:

* **correct** — the cell behaves as in the golden run;
* **panic park** — "the fault propagates to the whole system bringing the
  system itself to a kernel panic";
* **CPU park** — an unhandled trap (error code 0x24) makes the hypervisor
  call ``cpu_park()``; the non-root cell stops but isolation is preserved;
* **invalid arguments** — a management hypercall is rejected and the cell is
  never allocated (the expected, correct reaction to corrupted arguments);
* **inconsistent state** — the cell is reported RUNNING by the hypervisor but
  is actually broken and produces no output.

The classifier derives one outcome per experiment from the collected
evidence, with a documented precedence (system-wide failures dominate
cell-local ones, which dominate availability-only findings).

:class:`ExperimentResult`, one experiment's outcome and bookkeeping, lives
here too, so that reading records loads none of the simulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from repro.core.registry import CLASSIFIERS
from repro.hypervisor.traps import UNHANDLED_TRAP_ERROR

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.monitors import AvailabilityReport, HypervisorObservation


class Outcome(enum.Enum):
    """Per-experiment outcome classes.

    The first six are the paper's taxonomy, derived by the classifier from
    simulation evidence. The ``INFRA_*`` members are *infrastructure*
    verdicts: the harness could not obtain a classification because the
    worker process hung past the watchdog timeout or died, every retry
    included. They never come out of :class:`OutcomeClassifier` — the
    supervision layer synthesizes them for quarantined specs so a campaign
    still completes with one result per plan position.
    """

    CORRECT = "correct"
    PANIC_PARK = "panic_park"
    CPU_PARK = "cpu_park"
    INVALID_ARGUMENTS = "invalid_arguments"
    INCONSISTENT_STATE = "inconsistent_state"
    SILENT_FAILURE = "silent_failure"
    INFRA_TIMEOUT = "infra_timeout"
    INFRA_CRASH = "infra_crash"

    @property
    def is_failure(self) -> bool:
        return self is not Outcome.CORRECT

    @property
    def is_infrastructure(self) -> bool:
        """Harness-level verdict (no SUT classification was obtained)."""
        return self in (Outcome.INFRA_TIMEOUT, Outcome.INFRA_CRASH)

    @property
    def violates_isolation(self) -> bool:
        """Whether the outcome means a fault escaped the targeted cell."""
        return self in (Outcome.PANIC_PARK, Outcome.SILENT_FAILURE)


#: Stored value -> member. Readers resolve a record's outcome with one lookup
#: here instead of an ``Outcome(value)`` call per use.
OUTCOME_BY_VALUE: Dict[str, Outcome] = {
    outcome.value: outcome for outcome in Outcome}


@dataclass
class ManagementEvidence:
    """Results of cell-management operations performed during the test.

    The boolean fields summarize the test for the classifier (``*_succeeded``
    is False as soon as any attempt was rejected); the counters keep the
    per-attempt totals for the repeated-lifecycle experiments.
    """

    create_attempted: bool = False
    create_succeeded: bool = False
    create_code: int = 0
    start_attempted: bool = False
    start_succeeded: bool = False
    start_code: int = 0
    destroy_attempted: bool = False
    destroy_succeeded: bool = False
    create_attempts: int = 0
    create_rejections: int = 0
    start_attempts: int = 0
    start_rejections: int = 0
    wrongly_allocated: int = 0
    inconsistent_starts: int = 0

    def merge_attempt(self, attempt: "ManagementEvidence") -> None:
        """Fold one lifecycle attempt into the aggregate view."""
        if attempt.create_attempted:
            self.create_attempts += 1
            if not self.create_attempted:
                self.create_attempted = True
                self.create_succeeded = attempt.create_succeeded
                self.create_code = attempt.create_code
            if not attempt.create_succeeded:
                self.create_rejections += 1
                self.create_succeeded = False
                self.create_code = attempt.create_code
        if attempt.start_attempted:
            self.start_attempts += 1
            if not self.start_attempted:
                self.start_attempted = True
                self.start_succeeded = attempt.start_succeeded
                self.start_code = attempt.start_code
            if not attempt.start_succeeded:
                self.start_rejections += 1
                self.start_succeeded = False
                self.start_code = attempt.start_code


@dataclass
class ExperimentResult:
    """Outcome and bookkeeping of one experiment."""

    spec_name: str
    outcome: Outcome
    rationale: str
    injections: int
    duration: float
    seed: int
    scenario: str
    target: str
    fault_model: str
    intensity: str
    register_class_counts: Dict[str, int] = field(default_factory=dict)
    management: Optional[ManagementEvidence] = None
    target_cell_lines: int = 0
    root_cell_lines: int = 0
    extras: Dict[str, object] = field(default_factory=dict)
    wall_time: float = 0.0
    #: How the engine's prefix fast-forward cache served this experiment:
    #: ``True`` = forked from a cached pre-injection snapshot, ``False`` =
    #: this run executed (and cached) its family's prefix, ``None`` = the
    #: cache was off or bypassed. Execution bookkeeping only — deliberately
    #: excluded from :class:`~repro.core.recording.ExperimentRecord`, so
    #: cached and cold campaigns stay record-for-record identical.
    prefix_cache_hit: Optional[bool] = None
    #: Wall-clock seconds spent reaching the injection point — the golden
    #: bring-up on a cold run, or the snapshot fork on a prefix-cache hit.
    #: The post-injection time is ``wall_time - prefix_wall_time``. Like
    #: :attr:`prefix_cache_hit`, execution bookkeeping only: excluded from
    #: records so instrumented and bare campaigns persist identical data.
    prefix_wall_time: Optional[float] = None
    #: OS pid of the worker process that executed this experiment (the
    #: parent's own pid for in-process runs); ``None`` for restored records.
    #: Telemetry uses it for per-worker utilization. Not persisted.
    worker_id: Optional[int] = None

    @property
    def failed(self) -> bool:
        return self.outcome.is_failure


@dataclass
class OutcomeEvidence:
    """Everything the classifier looks at for one experiment."""

    observation: HypervisorObservation
    availability: Dict[str, AvailabilityReport] = field(default_factory=dict)
    management: ManagementEvidence = field(default_factory=ManagementEvidence)
    target_cell: Optional[str] = None
    root_cell: Optional[str] = None
    injections: int = 0


@dataclass(frozen=True)
class ClassifiedOutcome:
    """Outcome plus a human-readable rationale."""

    outcome: Outcome
    rationale: str


@CLASSIFIERS.register("default", "paper")
class OutcomeClassifier:
    """Derives a single outcome per experiment from the evidence."""

    def classify(self, evidence: OutcomeEvidence) -> ClassifiedOutcome:
        observation = evidence.observation

        # 1. Whole-system failures dominate everything else.
        if observation.panicked:
            return ClassifiedOutcome(
                Outcome.PANIC_PARK,
                f"hypervisor panic propagated to the whole system: "
                f"{observation.panic_reason}",
            )

        # 2. Management-plane rejections: the cell was never allocated.
        management = evidence.management
        if management.create_attempted and not management.create_succeeded:
            return ClassifiedOutcome(
                Outcome.INVALID_ARGUMENTS,
                f"cell create rejected with code {management.create_code} "
                "(cell not allocated)",
            )
        if management.start_attempted and not management.start_succeeded:
            return ClassifiedOutcome(
                Outcome.INVALID_ARGUMENTS,
                f"cell start rejected with code {management.start_code}",
            )

        # 3. CPU park: an unhandled trap parked a CPU of the target cell.
        parked_with_error = [
            (cpu_id, error) for cpu_id, error in observation.parked_cpus
            if error is not None
        ]
        if parked_with_error:
            cpu_id, error = parked_with_error[0]
            return ClassifiedOutcome(
                Outcome.CPU_PARK,
                f"CPU {cpu_id} parked after unhandled trap "
                f"(error 0x{(error or UNHANDLED_TRAP_ERROR):02x}); "
                "other cells unaffected",
            )

        # 4. Inconsistent state: reported RUNNING but no sign of life.
        target = evidence.target_cell
        if target is not None:
            report = evidence.availability.get(target)
            state = observation.cell_states.get(target)
            running = state is not None and state.startswith("running")
            silent = report is not None and not report.available
            if running and (target in observation.inconsistent_cells
                            or observation.cpu_online_failures > 0) and silent:
                return ClassifiedOutcome(
                    Outcome.INCONSISTENT_STATE,
                    f"cell {target!r} reported '{state}' but produced no output "
                    f"({observation.cpu_online_failures} CPU online failure(s))",
                )
            if silent:
                return ClassifiedOutcome(
                    Outcome.SILENT_FAILURE,
                    f"cell {target!r} stopped producing output without any "
                    "hypervisor-visible error",
                )

        # 5. Root cell silence without a panic is also a silent failure.
        root = evidence.root_cell
        if root is not None:
            report = evidence.availability.get(root)
            if report is not None and not report.available:
                return ClassifiedOutcome(
                    Outcome.SILENT_FAILURE,
                    f"root cell {root!r} stopped producing output",
                )

        return ClassifiedOutcome(
            Outcome.CORRECT,
            "all monitored cells kept producing output and no hypervisor "
            "failure was recorded",
        )
