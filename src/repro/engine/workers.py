"""Execution of experiment specs: one family executor, two backends.

Each experiment's outcome is a pure function of its spec and seed, so a
campaign may be executed in any order, in any process, and with any amount
of shared state, as long as every record comes out byte-identical to running
each spec on a freshly built system under test. :class:`FamilyExecutor` is
the one place that exploits this: it groups the work queue into prefix
families (:func:`~repro.engine.scheduler.group_by_prefix`) and decides from
each family's shape how to run it. Results stream out as ``(plan index,
ExperimentResult)`` pairs; re-assembly by index happens in the parent.

Two backends drive the same executor:

* :func:`execute_serial` — in-process, used for ``jobs=1`` (the default path
  every ``Campaign.run`` caller goes through) and as the fallback when the
  platform offers no usable multiprocessing start method;
* :func:`execute_pool` — the supervised worker pool
  (:class:`~repro.engine.supervisor.SupervisedPool`), whose workers each run
  an executor over the whole-family shards they receive. It prefers the
  ``fork`` start method (cheap on Linux, and it lets custom ``sut_factory``
  closures cross into workers without pickling) and falls back to ``spawn``.

Both supervise under a :class:`~repro.core.policy.RunPolicy` (default
``RunPolicy()``): per-experiment wall-clock timeouts, retry with exponential
backoff, and poison-spec quarantine. The pool enforces the timeout by
SIGKILLing the worker from the parent watchdog; the serial path arms
``SIGALRM`` around each experiment (main thread only — elsewhere the serial
timeout is silently unavailable).
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from repro.core.experiment import (
    Experiment,
    ExperimentResult,
    SutFactory,
    default_sut_factory,
)
from repro.core.outcomes import Outcome, OutcomeClassifier
from repro.core.policy import RunPolicy
from repro.core.registry import resolve_sut_factory
from repro.engine.batch import (
    BATCH_SIZE,
    BatchStepper,
    batchable_spec,
    supports_batching,
)
from repro.engine.scheduler import (
    PrefixFamily,
    WorkItem,
    group_by_prefix,
    plan_family_batches,
    shard_families,
)
from repro.engine.supervisor import EventCallback, SupervisedPool, infra_result
from repro.errors import CampaignError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from multiprocessing.context import BaseContext

#: One streamed unit of completed work: (position in the plan, its result).
IndexedResult = Tuple[int, ExperimentResult]


class PooledSutFactory:
    """SUT factory with snapshot/reset pooling.

    Keeps one system under test per process and retargets it between
    experiments instead of rebuilding the whole board + hypervisor + guest
    stack: a spec re-running the seed the SUT last booted restores the
    post-``setup()`` snapshot directly, any other seed restores the pristine
    post-construction state and re-seeds the guest RNG streams before the
    (much cheaper) warm boot. Outcomes are bit-identical to cold boots — the
    campaign-parity tests assert it record for record.

    SUTs that do not implement the pooling protocol
    (``enable_snapshot_pooling``/``reset_for_seed``) fall back to a cold
    build per call, as do specs marked ``cold_boot=True`` (handled by the
    caller via :attr:`base`).
    """

    def __init__(self, base: SutFactory) -> None:
        self.base = base
        self._sut = None

    def __call__(self, seed: int):
        sut = self._sut
        if sut is None:
            sut = self.base(seed)
            enable = getattr(sut, "enable_snapshot_pooling", None)
            if enable is None:
                return sut           # SUT cannot pool: plain cold boot
            enable()
            self._sut = sut
            return sut
        if sut.config.seed != seed:
            sut.reset_for_seed(seed)
        return sut

    def reset(self) -> None:
        """Drop the pooled SUT so the next call builds a fresh one.

        Called after an in-process timeout or experiment error: an
        interrupted run can leave the pooled object graph mid-boot, and a
        retry must start from a provably clean state.
        """
        self._sut = None


def sut_token(sut_factory: SutFactory) -> str:
    """Deterministic identity of a SUT factory for prefix-key derivation.

    Registry-backed factories hash by key + params (stable across processes
    and runs); ad-hoc callables fall back to their qualified name. The token
    only has to separate *different* SUT definitions within one campaign.
    """
    key = getattr(sut_factory, "key", None)
    if key is not None:
        params = getattr(sut_factory, "params", {})
        return f"{key}:{sorted(params.items())!r}"
    qualname = getattr(sut_factory, "__qualname__", None)
    return qualname or type(sut_factory).__name__


def _can_fork(sut: object) -> bool:
    return (getattr(sut, "snapshot", None) is not None
            and getattr(sut, "fork_from_snapshot", None) is not None)


#: Per-process batch counter: batch ids must be unique campaign-wide even
#: when one family is sliced across workers (``shard_families`` bisection).
_batch_sequence = 0


def _next_batch_id(key: str) -> str:
    global _batch_sequence
    _batch_sequence += 1
    return f"{key[:8]}@{os.getpid()}#{_batch_sequence}"


class _SerialTimeout(Exception):
    """Raised by the SIGALRM watchdog inside an in-process experiment."""


@contextmanager
def _serial_deadline(timeout_s: Optional[float]):
    """Arm a wall-clock deadline around in-process work.

    Uses ``SIGALRM`` (interrupts CPU-bound pure-Python loops, which is what a
    wedged simulation is), so it only works on the main thread of a platform
    that has ``setitimer``; anywhere else the deadline is a no-op — the pool
    path, which kills the worker from outside, is the fully general one.
    """
    if (not timeout_s
            or not hasattr(signal, "setitimer")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def _expire(signum, frame):
        raise _SerialTimeout()

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class FamilyExecutor:
    """Runs a work queue prefix family by prefix family, in one process.

    The serial backend and every pool worker run their items through this
    one object. It keeps the process's pooled system under test
    (:class:`PooledSutFactory`) and, while a family runs, that family's
    post-prefix snapshot, and it picks the cheapest exact way to run each
    family:

    * a singleton family runs as a plain :meth:`Experiment.run`, leaving
      ``prefix_cache_hit`` as ``None``;
    * a larger family runs its pre-injection prefix once and forks every
      other member from the snapshot (``prefix_cache_hit`` ``False`` for the
      member that ran the prefix, ``True`` for the forks);
    * two or more steady-state members step in lockstep on one shared
      simulation (:class:`~repro.engine.batch.BatchStepper`), at most
      :data:`~repro.engine.batch.BATCH_SIZE` lanes per batch.

    ``cold_boot`` specs opt out of all three: they build their own SUT and
    form singleton families. Supervision stays with the backends, which run
    each step of :meth:`steps` under their own policy.
    """

    def __init__(self, sut_factory: "SutFactory | str",
                 classifier: Optional[OutcomeClassifier] = None) -> None:
        base = resolve_sut_factory(sut_factory)
        self.sut_factory = PooledSutFactory(base)
        self.classifier = classifier or OutcomeClassifier()
        self.sut_token = sut_token(base)
        #: The running family's (SUT, post-prefix snapshot), once captured.
        #: Every schedule runs a family contiguously, so one slot suffices.
        self._shared: Optional[Tuple[object, object]] = None

    def steps(self, items: Sequence[WorkItem]
              ) -> Iterator[Tuple[PrefixFamily, List[WorkItem]]]:
        """The queue as ``(family, step)`` pairs, one family at a time.

        A step of two or more items is one lockstep batch
        (:meth:`try_batch`), a step of one item runs scalar
        (:meth:`run_item`). A family's snapshot is dropped as soon as its
        last step has been taken.
        """
        for family in group_by_prefix(items, sut_token=self.sut_token):
            batches, scalar = plan_family_batches(family, BATCH_SIZE,
                                                  batchable_spec)
            for step in batches + [[item] for item in scalar]:
                yield family, step
            self._shared = None

    def reset(self) -> None:
        """Scrub process state after an interrupted or failed step."""
        self.sut_factory.reset()
        self._shared = None

    def _experiment(self, spec) -> Experiment:
        factory = self.sut_factory.base if spec.cold_boot else self.sut_factory
        return Experiment(spec, sut_factory=factory,
                          classifier=self.classifier)

    def run_item(self, family: PrefixFamily, item: WorkItem) -> IndexedResult:
        """Run one member of ``family`` scalar."""
        experiment = self._experiment(item.spec)
        if len(family) < 2:
            result = experiment.run()
        else:
            result = self._run_member(experiment)
        # Stamped here (not in Experiment) so the id is the executing
        # process's — the telemetry layer folds these into per-worker
        # utilization.
        result.worker_id = os.getpid()
        return item.index, result

    def _run_member(self, experiment: Experiment) -> ExperimentResult:
        """Fork from the family snapshot, or run the prefix and capture it.

        SUTs that cannot snapshot (baseline models) run every member cold,
        with ``prefix_cache_hit`` left ``None``.
        """
        spec = experiment.spec
        started = time.perf_counter()
        hit = None
        if self._shared is None:
            sut = experiment.sut_factory(spec.seed)
        else:
            sut, snapshot = self._shared
            hit = True
        try:
            if hit:
                sut.fork_from_snapshot(snapshot, seed=spec.seed)
            else:
                experiment.run_prefix(sut)
                if _can_fork(sut):
                    self._shared = (sut, sut.snapshot())
                    hit = False
            prefix_elapsed = time.perf_counter() - started
            result = experiment.run_from_snapshot(sut, wall_start=started)
        finally:
            sut.teardown()
        result.prefix_cache_hit = hit
        result.prefix_wall_time = prefix_elapsed
        return result

    def try_batch(self, family: PrefixFamily, batch: Sequence[WorkItem],
                  timeout_s: Optional[float] = None,
                  ) -> Optional[List[IndexedResult]]:
        """Step ``batch`` in lockstep; ``None`` means run its members scalar.

        That happens when the SUT cannot fork or batch, and after any
        failure of the batch — a violated lockstep invariant, the
        ``timeout_s`` deadline, an error — once process state is reset. The
        scalar re-run is where per-item supervision applies, and where a
        real error surfaces again.
        """
        try:
            with _serial_deadline(timeout_s):
                return self._run_batch(family, batch)
        except Exception:  # noqa: BLE001 - the scalar re-run surfaces it
            self.reset()
            return None

    def _run_batch(self, family: PrefixFamily, batch: Sequence[WorkItem],
                   ) -> Optional[List[IndexedResult]]:
        experiments = [self._experiment(item.spec) for item in batch]
        first = experiments[0]
        started = time.perf_counter()
        hit = self._shared is not None
        if hit:
            sut, snapshot = self._shared
        else:
            sut = self.sut_factory(first.spec.seed)
        if not (_can_fork(sut) and supports_batching(sut)):
            return None
        try:
            if not hit:
                first.run_prefix(sut)
                snapshot = sut.snapshot()
                self._shared = (sut, snapshot)
            prefix_elapsed = time.perf_counter() - started
            fork_started = time.perf_counter()
            sut.fork_from_snapshot(snapshot, seed=first.spec.seed)
            fork_elapsed = time.perf_counter() - fork_started
            results = BatchStepper(sut, experiments,
                                   batch_id=_next_batch_id(family.key)).run()
        finally:
            sut.teardown()
        worker_id = os.getpid()
        for lane, result in enumerate(results):
            # Mirror the scalar bookkeeping: the lane that executed the
            # family's prefix reports a miss, every forked lane a hit.
            miss = lane == 0 and not hit
            result.prefix_cache_hit = not miss
            result.prefix_wall_time = prefix_elapsed if miss else fork_elapsed
            result.worker_id = worker_id
        return [(item.index, result) for item, result in zip(batch, results)]


def _emit(on_event: Optional[EventCallback], kind: str, **payload) -> None:
    if on_event is not None:
        on_event(kind, **payload)


def _run_item_with_policy(executor: FamilyExecutor, family: PrefixFamily,
                          item: WorkItem, policy: RunPolicy,
                          on_event: Optional[EventCallback]) -> IndexedResult:
    """Serial counterpart of the pool's supervision: timeout/retry/quarantine.

    Retries re-run with the original seed, so a retry that succeeds returns
    the exact result an unfaulted run would have; an exhausted budget
    quarantines the spec (synthesized infrastructure result).
    """
    attempts = 0
    while True:
        attempts += 1
        try:
            with _serial_deadline(policy.timeout_s):
                return executor.run_item(family, item)
        except _SerialTimeout:
            reason = "timeout"
            error = (f"exceeded the {policy.timeout_s:g}s watchdog timeout "
                     f"(in-process)")
            _emit(on_event, "experiment_timeout", spec=item.spec.name,
                  index=item.index, timeout_s=policy.timeout_s,
                  attempt=attempts, worker=os.getpid())
        except Exception as exc:  # noqa: BLE001 - policy decides the fate
            reason = "error"
            error = f"{type(exc).__name__}: {exc}"
        executor.reset()
        if attempts <= policy.retries:
            delay = min(policy.backoff_s * (2 ** (attempts - 1)),
                        policy.backoff_cap_s)
            _emit(on_event, "experiment_retry", spec=item.spec.name,
                  index=item.index, attempt=attempts, reason=reason,
                  delay_s=delay, error=error)
            time.sleep(delay)
            continue
        outcome = (Outcome.INFRA_TIMEOUT if reason == "timeout"
                   else Outcome.INFRA_CRASH)
        _emit(on_event, "spec_quarantined", spec=item.spec.name,
              index=item.index, spec_id=item.spec.identity(),
              seed=item.spec.seed, scenario=item.spec.scenario.value,
              attempts=attempts, reason=reason, error=error)
        return item.index, infra_result(item.spec, outcome,
                                        attempts=attempts, error=error)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means one per CPU."""
    if jobs is None or jobs == 0:
        return max(os.cpu_count() or 1, 1)
    if jobs < 0:
        raise CampaignError(f"jobs must be positive (or 0 for auto), got {jobs}")
    return jobs


def _pool_context() -> "BaseContext":
    # Imported here, where a pool is built: a --jobs 1 run never loads it.
    import multiprocessing

    # fork is only trusted on Linux: macOS lists it as available but CPython
    # made spawn the default there for a reason (forking a threaded process
    # can crash/deadlock workers).
    if (sys.platform == "linux"
            and "fork" in multiprocessing.get_all_start_methods()):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


def execute_serial(items: Sequence[WorkItem],
                   sut_factory: "SutFactory | str" = default_sut_factory,
                   classifier: Optional[OutcomeClassifier] = None,
                   policy: RunPolicy = RunPolicy(),
                   on_event: Optional[EventCallback] = None,
                   ) -> Iterator[IndexedResult]:
    """Run every item in this process (the ``jobs=1`` backend).

    The queue runs family-contiguously through a :class:`FamilyExecutor`
    (results carry their plan index, so consumers are order-agnostic).

    ``policy`` is the serial flavour of supervision: a ``SIGALRM`` deadline
    per experiment, retries with backoff, and quarantine with synthesized
    infrastructure results. A lockstep batch does the work of all its lanes
    in one pass, so its deadline is ``timeout_s`` per lane; a batch that
    fails re-runs its members through that per-item supervision.
    """
    executor = FamilyExecutor(sut_factory, classifier)
    for family, step in executor.steps(items):
        if len(step) > 1:
            timeout_s = (policy.timeout_s * len(step)
                         if policy.timeout_s else None)
            results = executor.try_batch(family, step, timeout_s)
            if results is not None:
                yield from results
                continue
        for item in step:
            yield _run_item_with_policy(executor, family, item, policy,
                                        on_event)


def execute_pool(items: Sequence[WorkItem],
                 jobs: int,
                 sut_factory: "SutFactory | str" = default_sut_factory,
                 classifier: Optional[OutcomeClassifier] = None,
                 policy: RunPolicy = RunPolicy(),
                 on_event: Optional[EventCallback] = None,
                 ) -> Iterator[IndexedResult]:
    """Run items across ``jobs`` supervised worker processes, streaming.

    Results are yielded as experiments finish (arbitrary order); callers that
    need plan order re-assemble by index. Execution is supervised under
    ``policy`` (:class:`~repro.engine.supervisor.SupervisedPool`): each
    worker owns a private pipe, dead workers are respawned with their
    untouched shard requeued, hung experiments are killed by the parent
    watchdog, and specs that fail every retry are quarantined with a
    synthesized infrastructure result.

    On clean exhaustion workers are asked to stop and joined; an early exit
    or exception kills busy workers instead, so a consumer that stops
    mid-stream still releases them promptly (and no shared queues or
    semaphores are left for the resource tracker to complain about — every
    worker's pipe dies with its two endpoints).

    Each pool task is one prefix family
    (:func:`~repro.engine.scheduler.shard_families`), so the worker that
    pulls a family pays its prefix once and runs it through its own
    :class:`FamilyExecutor`. Streaming (and checkpoint) granularity is the
    family — a run killed mid-family re-executes that family's completed
    members on resume. A retried spec re-runs as a singleton shard.
    """
    jobs = resolve_jobs(jobs)
    sut_factory = resolve_sut_factory(sut_factory)
    if jobs == 1 or len(items) <= 1:
        yield from execute_serial(items, sut_factory, classifier,
                                  policy=policy, on_event=on_event)
        return
    families = group_by_prefix(items, sut_token=sut_token(sut_factory))
    # min_shards keeps the pool busy when there are fewer families than
    # workers: oversized families are sliced, each slice re-paying the
    # prefix once in its worker.
    pool = SupervisedPool(
        shard_families(families, min_shards=jobs),
        jobs=jobs,
        context=_pool_context(),
        init_args=(sut_factory, classifier),
        policy=policy,
        on_event=on_event,
    )
    yield from pool.run()
