"""Execution of experiment specs: one family executor, two backends.

Each experiment's outcome is a pure function of its spec and seed, so a
campaign may be executed in any order and in any process, as long as every
record comes out byte-identical to running each spec on a freshly built
system under test. :class:`FamilyExecutor` is the one place that exploits
this: it builds one system under test per prefix family
(:func:`~repro.engine.scheduler.group_by_prefix`) and forks a family's other
members from its snapshot. Results stream out as ``(plan index,
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
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Tuple

from repro.core.experiment import (
    Experiment,
    ExperimentResult,
    SutFactory,
    default_sut_factory,
)
from repro.core.outcomes import Outcome, OutcomeClassifier
from repro.core.policy import RunPolicy
from repro.core.registry import resolve_sut_factory
from repro.engine.scheduler import (
    PrefixFamily,
    WorkItem,
    group_by_prefix,
    shard_families,
)
from repro.engine.supervisor import EventCallback, SupervisedPool, infra_result
from repro.errors import CampaignError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from multiprocessing.context import BaseContext

#: One streamed unit of completed work: (position in the plan, its result).
IndexedResult = Tuple[int, ExperimentResult]


def _can_fork(sut: object) -> bool:
    return (getattr(sut, "snapshot", None) is not None
            and getattr(sut, "fork_from_snapshot", None) is not None)


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
    one object. The first member of every family builds a fresh system
    under test through the resolved factory; while a larger family runs,
    the executor keeps that SUT and its post-prefix snapshot:

    * a singleton family runs as a plain :meth:`Experiment.run`, leaving
      ``prefix_cache_hit`` as ``None``;
    * a larger family runs its pre-injection prefix once and forks every
      other member from the snapshot (``prefix_cache_hit`` ``False`` for the
      member that ran the prefix, ``True`` for the forks).

    Supervision stays with the backends, which run each item of
    :meth:`steps` under their own policy.
    """

    def __init__(self, sut_factory: "SutFactory | str",
                 classifier: Optional[OutcomeClassifier] = None) -> None:
        self.sut_factory = resolve_sut_factory(sut_factory)
        self.classifier = classifier or OutcomeClassifier()
        #: The running family's (SUT, post-prefix snapshot), once captured.
        #: Every schedule runs a family contiguously, so one slot suffices.
        self._shared: Optional[Tuple[object, object]] = None

    def steps(self, items: Sequence[WorkItem]
              ) -> Iterator[Tuple[PrefixFamily, WorkItem]]:
        """The queue as ``(family, item)`` pairs, one family at a time.

        Each pair runs through :meth:`run_item`. A family's snapshot is
        dropped as soon as its last member has been taken.
        """
        for family in group_by_prefix(items):
            for item in family.items:
                yield family, item
            self._shared = None

    def reset(self) -> None:
        """Drop the family snapshot: a retry builds a fresh SUT."""
        self._shared = None

    def run_item(self, family: PrefixFamily, item: WorkItem) -> IndexedResult:
        """Run one member of ``family``."""
        experiment = Experiment(item.spec, sut_factory=self.sut_factory,
                                classifier=self.classifier)
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

        SUTs that cannot snapshot run every member cold, with
        ``prefix_cache_hit`` left ``None``.
        """
        started = time.perf_counter()
        hit = None
        if self._shared is None:
            sut = experiment.sut_factory(experiment.spec.seed)
        else:
            sut, snapshot = self._shared
            hit = True
        try:
            if hit:
                sut.fork_from_snapshot(snapshot)
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
    infrastructure results.
    """
    executor = FamilyExecutor(sut_factory, classifier)
    for family, item in executor.steps(items):
        yield _run_item_with_policy(executor, family, item, policy, on_event)


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
    families = group_by_prefix(items)
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
