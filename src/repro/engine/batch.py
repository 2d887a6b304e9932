"""Batched lockstep execution of prefix families.

The family executor (:class:`~repro.engine.workers.FamilyExecutor`) groups
specs into *prefix families*: specs whose pre-injection bring-up is
identical, so every member can fork from one snapshot. This module exploits
the stronger property the steady-state scenario gives us *after* the fork:
until a lane's injector actually fires, the lane's simulated evolution is
bit-identical to every other lane's — armed injectors only *observe*
(counters, trigger draws, lane-private RNG state; no board state touched)
and evidence collection is read-only. So one worker can advance a whole
family in lockstep on **one shared simulated state**, feeding each lane's
injector through the observation half of the entry hook
(:meth:`~repro.core.injection.FaultInjector.observe_call`), and only pay
per-lane simulation cost for the lanes whose fault actually lands.

Divergence is handled by **eviction, not emulation**: the instant a lane's
trigger reports a fire — the exact point its scalar run would depart from
the fault-free trajectory — the lane is evicted to the existing scalar path:
the stepper rewinds to the most recent *boundary* (a periodic snapshot of
the shared state plus a deep copy of every live lane's injector), installs
the lane's boundary injector for real, and replays the lane's remaining
window scalar. The replay is deterministic (same state, same injector
counters, same RNG stream), so the fault fires exactly where a solo run
would fire it and the lane's records are byte-identical to scalar **by
construction** — no batch-side emulation of the faulted trajectory, and
therefore no new code path that could disagree with the scalar engine. A
property test over the catalog campaigns enforces this end to end
(``tests/engine/test_batch_lockstep.py``).

Restore fidelity is guarded around every eviction replay: the stepper
captures every CPU's registers (plus the word on top of each CPU's stack)
before the replay and verifies the post-restore capture is identical — a
violated invariant raises :class:`BatchDivergenceError` and the executor
reruns the batch scalar.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.experiment import Experiment, ExperimentResult, Scenario
from repro.core.injection import FaultInjector
from repro.errors import CampaignError
from repro.hw.memory import AccessType
from repro.hw.registers import Register
from repro.hypervisor.core import HypervisorState

#: Lanes one batch steps together. Families larger than this split into
#: consecutive batches, each forked from the same family snapshot.
BATCH_SIZE = 16

#: Shared steps between boundary captures. A boundary costs one SUT snapshot
#: plus an injector deep copy per live lane; an eviction replays from the
#: last boundary, so the interval trades boundary overhead against replay
#: length (at 0.02 s/step, 25 steps bound the replay rewind to 0.5 s).
DEFAULT_SYNC_INTERVAL = 25


class BatchDivergenceError(CampaignError):
    """The lockstep invariant was violated; the family must rerun scalar."""


def batchable_spec(spec) -> bool:
    """Whether a spec is eligible for lockstep batching.

    Only the steady-state scenario qualifies: its entire post-arm window is
    ``sut.run(duration)`` with no interleaved management operations, so the
    "identical until the fault fires" invariant holds for the whole window.
    The lifecycle and park scenarios interleave cell management with
    injection and classify mid-window state; they stay on the scalar path.
    """
    return (spec.scenario is Scenario.STEADY_STATE
            and not getattr(spec, "cold_boot", False))


def supports_batching(sut: object) -> bool:
    """Whether a SUT exposes the state surface the lockstep stepper drives."""
    return all(
        callable(getattr(sut, name, None))
        for name in ("snapshot", "restore", "install_injector", "run")
    ) and hasattr(sut, "hypervisor") and hasattr(sut, "board")


@dataclass
class BatchLane:
    """One experiment riding the shared lockstep state."""

    index: int
    experiment: Experiment
    injector: FaultInjector
    end_step: int
    fired: bool = False
    fired_step: Optional[int] = None
    result: Optional[ExperimentResult] = None


@dataclass
class _Boundary:
    """A rewind point: shared state + each live lane's injector, deep-copied.

    The deep copy captures everything a replay needs to be deterministic:
    call counters, trigger state (e.g. a one-shot's fired flag), and the
    injector's private RNG stream position.
    """

    step: int
    graph: object
    injectors: Dict[int, FaultInjector] = field(default_factory=dict)


class BatchStepper:
    """Steps every lane of one prefix-family batch on one shared state.

    ``sut`` must be positioned exactly at the family's post-prefix state
    (the caller forked it from the family snapshot); every experiment must
    satisfy :func:`batchable_spec` and share that prefix. ``run()`` returns
    one :class:`~repro.core.experiment.ExperimentResult` per experiment, in
    order, each byte-identical (in its persisted fields) to what the scalar
    path would produce.
    """

    def __init__(self, sut, experiments: Sequence[Experiment], *,
                 batch_id: str = "batch",
                 sync_interval: int = DEFAULT_SYNC_INTERVAL) -> None:
        if not experiments:
            raise ValueError("a batch needs at least one experiment")
        if sync_interval <= 0:
            raise ValueError(f"sync_interval must be positive, got {sync_interval}")
        for experiment in experiments:
            if not batchable_spec(experiment.spec):
                raise ValueError(
                    f"spec {experiment.spec.name!r} is not batchable "
                    f"(scenario {experiment.spec.scenario.value})"
                )
        self.sut = sut
        self.experiments = list(experiments)
        self.batch_id = batch_id
        self.sync_interval = sync_interval
        #: Filled by :meth:`run`.
        self.evictions = 0
        self.steps = 0
        self._current_step = 0
        self._observers: Dict[str, List[BatchLane]] = {}
        self._fired_now: List[BatchLane] = []
        self._window_start = 0.0
        self._wall_start = 0.0

    # -- the lockstep loop ---------------------------------------------------------

    def run(self) -> List[ExperimentResult]:
        sut = self.sut
        timestep = sut.config.timestep
        self._wall_start = time.perf_counter()
        self._window_start = sut.now
        lanes = self._build_lanes(timestep)
        handlers = sut.hypervisor.handlers
        self._install_probe(handlers, lanes)
        try:
            self._lockstep(lanes)
        finally:
            self._remove_probe(handlers)
        results: List[ExperimentResult] = []
        for lane in lanes:
            result = lane.result
            assert result is not None
            result.batch_id = self.batch_id
            result.batch_lanes = len(lanes)
            result.batch_evicted = lane.fired
            result.batch_eviction_step = lane.fired_step
            results.append(result)
        return results

    def _build_lanes(self, timestep: float) -> List[BatchLane]:
        lanes = []
        for index, experiment in enumerate(self.experiments):
            injector = experiment.build_injector()
            injector.arm()           # scalar arms at window start; so do lanes
            lanes.append(BatchLane(
                index=index,
                experiment=experiment,
                injector=injector,
                # Same rounding as the scalar ``sut.run(spec.duration)``.
                end_step=max(1, int(round(experiment.spec.duration / timestep))),
            ))
        return lanes

    def _lockstep(self, lanes: List[BatchLane]) -> None:
        sut = self.sut
        timestep = sut.config.timestep
        hypervisor = sut.hypervisor
        panicked = HypervisorState.PANICKED
        step = 0
        boundary = self._capture_boundary(step, lanes)
        while True:
            live = [lane for lane in lanes if lane.result is None]
            if not live:
                break
            if hypervisor.state is panicked:
                # The scalar loop checks for a panicked hypervisor before
                # every step; each live lane's solo run would break at this
                # exact step and classify from this exact state.
                for lane in live:
                    self._finalize_shared(lane)
                break
            if step - boundary.step >= self.sync_interval:
                boundary = self._capture_boundary(step, live)
            step += 1
            self._current_step = step
            self._fired_now = []
            sut.run(timestep)     # one shared step, advancing every live lane
            self.steps = step
            for lane in self._fired_now:
                self._evict(lane, boundary)
            for lane in live:
                if lane.result is None and not lane.fired and lane.end_step == step:
                    self._finalize_shared(lane)

    # -- the probe: feeding lane injectors from the shared state ---------------------

    def _install_probe(self, handlers, lanes: List[BatchLane]) -> None:
        # Per handler name, the lanes whose target listens to it: the scalar
        # entry hook is only installed on the target's handlers, so a lane's
        # call counters must only ever see calls to those same handlers.
        self._observers = {}
        for lane in lanes:
            for handler_name in lane.injector.target.handlers:
                self._observers.setdefault(handler_name, []).append(lane)
        for handler_name in self._observers:
            handlers.add_entry_hook(handler_name, self._probe)

    def _remove_probe(self, handlers) -> None:
        for handler_name in self._observers:
            handlers.remove_entry_hook(handler_name, self._probe)

    def _probe(self, handler_name: str, cpu, context) -> None:
        for lane in self._observers[handler_name]:
            if lane.fired or lane.result is not None:
                continue
            if lane.injector.observe_call(handler_name, cpu.cpu_id):
                # The exact call where this lane's scalar run would mutate
                # state. Stop feeding it; the post-step eviction replays it.
                lane.fired = True
                lane.fired_step = self._current_step
                self._fired_now.append(lane)

    # -- boundaries and eviction -----------------------------------------------------

    def _capture_boundary(self, step: int, lanes: List[BatchLane]) -> _Boundary:
        return _Boundary(
            step=step,
            graph=self.sut.snapshot(),
            injectors={
                lane.index: copy.deepcopy(lane.injector)
                for lane in lanes
                if lane.result is None and not lane.fired
            },
        )

    def _evict(self, lane: BatchLane, boundary: _Boundary) -> None:
        """Replay an evicted lane scalar from the last boundary.

        The shared state finished the firing step *without* applying the
        fault (the probe only observes), so it is still every other lane's
        correct trajectory. The evicted lane rewinds to the boundary,
        installs its boundary-time injector for real, and runs its remaining
        window through the ordinary scalar path — fault application, any
        ensuing panic/park, and early exit included.
        """
        self.evictions += 1
        sut = self.sut
        handlers = sut.hypervisor.handlers
        timestep = sut.config.timestep
        resume_point = sut.snapshot()
        guard = self._capture_guard()
        sut.restore(boundary.graph)
        # The boundary was captured with the probe installed; replaying with
        # it would feed the other lanes' counters phantom calls.
        self._remove_probe(handlers)
        replay = boundary.injectors[lane.index]
        sut.install_injector(replay)
        sut.run((lane.end_step - boundary.step) * timestep)
        replay.disarm()
        lane.result = lane.experiment.finalize_steady_state(
            sut, replay, self._window_start, wall_start=self._wall_start)
        replay.uninstall()
        sut.restore(resume_point)   # probe hooks return with the snapshot
        self._verify_restore(guard)

    def _finalize_shared(self, lane: BatchLane) -> None:
        """Finalize a lane whose injector never fired, from the shared state.

        Its scalar run would have executed the identical fault-free window
        (an armed injector that never fires applies nothing), ending at this
        exact state and time.
        """
        lane.injector.disarm()
        lane.result = lane.experiment.finalize_steady_state(
            self.sut, lane.injector, self._window_start,
            wall_start=self._wall_start)

    # -- restore-fidelity guard --------------------------------------------------------

    def _capture_guard(self) -> Tuple[Tuple[dict, ...], Tuple[int, ...]]:
        """Digest the shared state: every CPU's registers + stack-top word."""
        board = self.sut.board
        registers = tuple(cpu.registers.snapshot() for cpu in board.cpus)
        words = []
        for cpu in board.cpus:
            stack_pointer = cpu.registers.read(Register.SP)
            region = board.memory.find_region(stack_pointer)
            if (region is not None and region.contains(stack_pointer, 4)
                    and region.permits(AccessType.READ)):
                words.append(board.memory.read(stack_pointer, 4))
        return registers, tuple(words)

    def _verify_restore(self, guard: Tuple[Tuple[dict, ...], Tuple[int, ...]]
                        ) -> None:
        registers, words = guard
        after_registers, after_words = self._capture_guard()
        if registers != after_registers or words != after_words:
            raise BatchDivergenceError(
                f"batch {self.batch_id}: shared state changed across an "
                f"eviction replay (step {self.steps}); rerunning the family "
                f"on the scalar path"
            )
