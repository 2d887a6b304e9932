"""Supervised worker pool: liveness, timeouts, retries, quarantine.

Injected faults are *designed* to make the simulated system misbehave, so a
worker that wedges in an infinite trap loop or dies outright is an expected
operating condition of a large campaign, not an exceptional one. The bare
``multiprocessing.Pool`` the engine used before PR 7 had no answer to either:
a hung task stalled ``imap_unordered`` forever and a SIGKILLed worker could
deadlock the whole pool on its shared queues.

This module replaces it with an explicitly supervised pool:

* every worker gets its **own duplex pipe** — there is no shared queue whose
  internal lock a dying worker could take to its grave, so any worker can be
  SIGKILLed at any instant without affecting its siblings;
* the parent multiplexes pipes *and* process sentinels through
  :func:`multiprocessing.connection.wait`, so both results and deaths wake it
  immediately;
* each worker announces every experiment before running it (``start``
  messages double as heartbeats), giving the parent an exact in-flight item
  to time out, retry, or blame when the worker dies;
* dead workers are respawned (bounded by :attr:`RunPolicy.max_worker_restarts`
  for unexpected deaths; deliberate timeout kills are bounded per spec by
  :attr:`RunPolicy.retries` instead) and the untouched remainder of their
  shard is requeued;
* a spec that keeps crashing or timing out is **quarantined**: the campaign
  receives a synthesized infrastructure result
  (:attr:`~repro.core.outcomes.Outcome.INFRA_TIMEOUT` /
  :attr:`~repro.core.outcomes.Outcome.INFRA_CRASH`) so it still completes
  with one result per plan position, and the supervisor reports the spec
  through the event callback so the runner can record it for later re-offer.

Supervision events (``worker_crash``, ``worker_respawn``,
``experiment_retry``, ``experiment_timeout``, ``spec_quarantined``) are
delivered through a plain callback invoked in the parent process; the runner
wires it to the telemetry bus and the quarantine log.
"""

from __future__ import annotations

import os
import time
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.experiment import ExperimentResult
from repro.core.outcomes import Outcome
from repro.core.policy import RunPolicy
from repro.engine.scheduler import Shard, WorkItem
from repro.errors import CampaignError

#: Event callback: ``on_event(kind, **payload)``, invoked in the parent
#: process before the related result (if any) is yielded downstream.
EventCallback = Callable[..., None]

#: How often an idle worker checks that its parent is still alive.
_PARENT_CHECK_S = 0.5


def infra_result(spec, outcome: Outcome, *, attempts: int,
                 error: str) -> ExperimentResult:
    """Synthesize the result recorded for a quarantined spec.

    Fills the spec's plan slot so the campaign completes; carries no
    simulation evidence (``injections=0``, empty availability) because none
    was obtained. The attempt count and last error ride in ``extras`` so
    ``--output`` files and the analysis layer can see why.
    """
    if not outcome.is_infrastructure:
        raise CampaignError(
            f"synthesized results must use an infrastructure outcome, "
            f"got {outcome.value}")
    reason = ("hung past the watchdog timeout"
              if outcome is Outcome.INFRA_TIMEOUT
              else "crashed the worker process")
    return ExperimentResult(
        **spec.record_fields(),
        outcome=outcome,
        rationale=(f"quarantined after {attempts} attempt(s): every attempt "
                   f"{reason} (last error: {error})"),
        injections=0,
        extras={"quarantined": True,
                "infra_attempts": attempts,
                "infra_error": error},
    )


def _supervised_worker(conn, init_args: tuple, parent_pid: int) -> None:
    """Worker process main loop: run shards received over the pipe.

    Each shard runs through the worker's own
    :class:`~repro.engine.workers.FamilyExecutor`. Messages to the parent:
    ``("start", shard_id, index)`` before every experiment (heartbeat +
    timeout anchor), ``("done_item", shard_id, index, result)`` /
    ``("error_item", shard_id, index, error_text)`` per experiment, and
    ``("done_shard", shard_id)`` when the shard is exhausted, at which point
    the worker is idle and waits for the next ``("task", ...)`` or
    ``("stop",)``.

    A worker whose parent dies (SIGKILL) returns instead of waiting forever:
    under ``fork`` it and its siblings hold copies of the parent's pipe
    ends, so ``recv`` would never see EOF. It checks ``os.getppid()``
    against ``parent_pid`` while idle and before every experiment.
    """
    # Imported here, not at module top: workers.py imports this module.
    from repro.engine.workers import FamilyExecutor
    executor = FamilyExecutor(*init_args)
    try:
        while True:
            try:
                while not conn.poll(_PARENT_CHECK_S):
                    if os.getppid() != parent_pid:
                        return
                message = conn.recv()
            except (EOFError, OSError):
                return
            if message[0] == "stop":
                return
            _, shard_id, items = message
            for family, item in executor.steps(items):
                if os.getppid() != parent_pid:
                    return
                conn.send(("start", shard_id, item.index))
                try:
                    index, result = executor.run_item(family, item)
                    conn.send(("done_item", shard_id, index, result))
                except Exception as exc:  # noqa: BLE001 - forwarded
                    executor.reset()
                    conn.send(("error_item", shard_id, item.index,
                               f"{type(exc).__name__}: {exc}"))
            conn.send(("done_shard", shard_id))
    except (BrokenPipeError, OSError):
        return                           # parent went away: just exit
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _Worker:
    """Parent-side handle for one supervised worker process."""

    def __init__(self, context, init_args: tuple) -> None:
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_supervised_worker,
            args=(child_conn, init_args, os.getpid()), daemon=True)
        self.process.start()
        # Close our copy of the child's end so its EOF is observable. (Under
        # fork, siblings spawned later still inherit copies of this end, so
        # death detection never relies on EOF alone — the process sentinel is
        # always watched too.)
        child_conn.close()
        self.conn = parent_conn
        self.shard_id: Optional[int] = None
        self.items_by_index: Dict[int, WorkItem] = {}
        self.current: Optional[WorkItem] = None
        self.started_at: Optional[float] = None
        self.killed_for_timeout = False

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    @property
    def busy(self) -> bool:
        return self.shard_id is not None

    def assign(self, shard_id: int, items: Tuple[WorkItem, ...]) -> bool:
        """Dispatch a shard; ``False`` means the pipe is dead."""
        self.shard_id = shard_id
        self.items_by_index = {item.index: item for item in items}
        self.current = None
        self.started_at = None
        try:
            self.conn.send(("task", shard_id, items))
            return True
        except (BrokenPipeError, OSError):
            return False

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


class SupervisedPool:
    """Streams ``(index, result)`` pairs while supervising worker processes.

    Drive it through :meth:`run`, a generator; closing the generator early
    (consumer abandons the stream) kills busy workers and reaps everything —
    the pipe-per-worker design leaves no shared queues or semaphores behind.
    """

    def __init__(self, shards: Sequence[Shard], *,
                 jobs: int,
                 context,
                 init_args: tuple,
                 policy: RunPolicy,
                 on_event: Optional[EventCallback] = None) -> None:
        self.policy = policy
        self.context = context
        self.init_args = init_args
        self.on_event = on_event
        self._pending: Deque[Tuple[int, Tuple[WorkItem, ...]]] = deque(
            (shard.shard_index, tuple(shard.items)) for shard in shards)
        self._next_shard_id = len(shards)
        self._expected: Set[int] = {
            item.index for shard in shards for item in shard.items}
        self._done: Set[int] = set()
        self._delayed: List[Tuple[float, int, Tuple[WorkItem, ...]]] = []
        self._attempts: Dict[int, int] = {}
        self._workers: List[_Worker] = []
        self._restarts_used = 0
        self._target_workers = max(1, min(jobs, max(len(shards), 1)))

    # -- bookkeeping --------------------------------------------------------------------

    def _emit(self, kind: str, **payload) -> None:
        if self.on_event is not None:
            self.on_event(kind, **payload)

    def _new_shard_id(self) -> int:
        self._next_shard_id += 1
        return self._next_shard_id

    def _spawn(self) -> _Worker:
        worker = _Worker(self.context, self.init_args)
        self._workers.append(worker)
        return worker

    # -- failure handling ---------------------------------------------------------------

    def _register_failure(self, item: WorkItem, reason: str, error: str,
                          out: List[Tuple[int, ExperimentResult]]) -> None:
        """One failed attempt of ``item``: schedule a retry or quarantine."""
        attempts = self._attempts.get(item.index, 0) + 1
        self._attempts[item.index] = attempts
        if attempts <= self.policy.retries:
            delay = min(self.policy.backoff_s * (2 ** (attempts - 1)),
                        self.policy.backoff_cap_s)
            self._emit("experiment_retry", spec=item.spec.name,
                       index=item.index, attempt=attempts, reason=reason,
                       delay_s=delay, error=error)
            self._delayed.append((time.monotonic() + delay,
                                  self._new_shard_id(), (item,)))
            return
        outcome = (Outcome.INFRA_TIMEOUT if reason == "timeout"
                   else Outcome.INFRA_CRASH)
        self._emit("spec_quarantined", spec=item.spec.name, index=item.index,
                   spec_id=item.spec.identity(), seed=item.spec.seed,
                   scenario=item.spec.scenario.value, attempts=attempts,
                   reason=reason, error=error)
        self._done.add(item.index)
        out.append((item.index,
                    infra_result(item.spec, outcome, attempts=attempts,
                                 error=error)))

    def _handle_message(self, worker: _Worker, message,
                        out: List[Tuple[int, ExperimentResult]]) -> None:
        kind = message[0]
        if kind == "start":
            _, _, index = message
            worker.current = worker.items_by_index.get(index)
            worker.started_at = time.monotonic()
        elif kind == "done_item":
            _, _, index, result = message
            worker.current = None
            worker.started_at = None
            if index not in self._done:
                self._done.add(index)
                out.append((index, result))
        elif kind == "error_item":
            _, _, index, error = message
            worker.current = None
            worker.started_at = None
            item = worker.items_by_index.get(index)
            if index in self._done or item is None:
                return
            self._register_failure(item, "error", error, out)
        elif kind == "done_shard":
            worker.shard_id = None
            worker.items_by_index = {}
            worker.current = None
            worker.started_at = None

    def _drain(self, worker: _Worker,
               out: List[Tuple[int, ExperimentResult]]) -> None:
        """Process every message currently readable on a worker's pipe."""
        while True:
            try:
                if not worker.conn.poll(0):
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                return
            except Exception:            # torn pickle from a dying worker
                return
            self._handle_message(worker, message, out)

    def _handle_death(self, worker: _Worker,
                      out: List[Tuple[int, ExperimentResult]]) -> None:
        """A worker process is gone: salvage, requeue, blame, respawn."""
        # Results may be sitting in the pipe buffer (including one for the
        # very item a timeout kill targeted): drain before deciding what
        # failed, so a completed experiment is never retried or duplicated.
        self._drain(worker, out)
        worker.process.join()
        exitcode = worker.process.exitcode
        pid = worker.pid
        worker.close()
        self._workers.remove(worker)

        timeout_kill = worker.killed_for_timeout
        victim: Optional[WorkItem] = None
        if worker.busy:
            remaining = [item for item in worker.items_by_index.values()
                         if item.index not in self._done]
            current = worker.current
            if current is not None and current.index not in self._done:
                victim = current
                remaining = [item for item in remaining
                             if item.index != current.index]
            if remaining:
                # Untouched work is innocent: requeue it (front of the queue,
                # it was already scheduled) with no attempt penalty.
                self._pending.appendleft(
                    (self._new_shard_id(),
                     tuple(sorted(remaining, key=lambda item: item.index))))
        if not timeout_kill:
            self._emit("worker_crash", worker=pid, exitcode=exitcode,
                       spec=victim.spec.name if victim else None,
                       index=victim.index if victim else None,
                       restarts_used=self._restarts_used)
        if victim is not None:
            if timeout_kill:
                self._register_failure(
                    victim, "timeout",
                    f"exceeded the {self.policy.timeout_s:g}s watchdog "
                    f"timeout (worker pid {pid} killed)", out)
            else:
                self._register_failure(
                    victim, "crash",
                    f"worker pid {pid} died (exitcode {exitcode})", out)

        # Respawn: timeout kills are deliberate and bounded per spec by the
        # retry budget, so they always earn a replacement; unexpected deaths
        # draw down the campaign-wide restart budget.
        if timeout_kill:
            replacement = self._spawn()
            self._emit("worker_respawn", worker=replacement.pid,
                       replaced=pid, restarts_used=self._restarts_used)
        elif self._restarts_used < self.policy.max_worker_restarts:
            self._restarts_used += 1
            replacement = self._spawn()
            self._emit("worker_respawn", worker=replacement.pid,
                       replaced=pid, restarts_used=self._restarts_used)

    def _check_timeouts(self,
                        out: List[Tuple[int, ExperimentResult]]) -> None:
        timeout_s = self.policy.timeout_s
        if timeout_s is None:
            return
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.started_at is None or worker.current is None:
                continue
            if now - worker.started_at < timeout_s:
                continue
            item = worker.current
            self._emit("experiment_timeout", spec=item.spec.name,
                       index=item.index, timeout_s=timeout_s,
                       attempt=self._attempts.get(item.index, 0) + 1,
                       worker=worker.pid)
            worker.killed_for_timeout = True
            worker.process.kill()
            self._handle_death(worker, out)

    # -- scheduling ---------------------------------------------------------------------

    def _promote_delayed(self) -> None:
        if not self._delayed:
            return
        now = time.monotonic()
        ready = [entry for entry in self._delayed if entry[0] <= now]
        if not ready:
            return
        self._delayed = [entry for entry in self._delayed if entry[0] > now]
        for _, shard_id, items in sorted(ready):
            self._pending.append((shard_id, items))

    def _dispatch(self, out: List[Tuple[int, ExperimentResult]]) -> None:
        for worker in list(self._workers):
            if not self._pending:
                return
            if worker.busy:
                continue
            shard_id, items = self._pending[0]
            if worker.assign(shard_id, items):
                self._pending.popleft()
            else:
                self._handle_death(worker, out)

    def _wait_timeout(self) -> float:
        timeout = self.policy.poll_s
        now = time.monotonic()
        for ready_at, _, _ in self._delayed:
            timeout = min(timeout, max(0.0, ready_at - now))
        if self.policy.timeout_s is not None:
            for worker in self._workers:
                if worker.started_at is not None:
                    deadline = worker.started_at + self.policy.timeout_s
                    timeout = min(timeout, max(0.0, deadline - now))
        return max(timeout, 0.001)

    def _work_remains(self) -> bool:
        return len(self._done) < len(self._expected)

    def _assert_alive(self) -> None:
        if self._workers or not self._work_remains():
            return
        raise CampaignError(
            f"all workers are dead and the respawn budget "
            f"(max_worker_restarts={self.policy.max_worker_restarts}) is "
            f"exhausted with {len(self._expected) - len(self._done)} "
            f"experiment(s) outstanding")

    # -- main loop ----------------------------------------------------------------------

    def run(self) -> Iterator[Tuple[int, ExperimentResult]]:
        from multiprocessing.connection import wait

        if not self._expected:
            return
        try:
            for _ in range(self._target_workers):
                self._spawn()
            while self._work_remains():
                out: List[Tuple[int, ExperimentResult]] = []
                self._promote_delayed()
                self._dispatch(out)
                self._assert_alive()
                if self._workers:
                    handles = ([worker.conn for worker in self._workers]
                               + [worker.process.sentinel
                                  for worker in self._workers])
                    wait(handles, timeout=self._wait_timeout())
                    for worker in list(self._workers):
                        self._drain(worker, out)
                        if not worker.process.is_alive():
                            self._handle_death(worker, out)
                    self._check_timeouts(out)
                else:
                    # Only backoff-delayed retries remain; sleep until due.
                    time.sleep(self._wait_timeout())
                for indexed in out:
                    yield indexed
        finally:
            self._shutdown()

    def _shutdown(self) -> None:
        for worker in self._workers:
            if worker.busy:
                # Mid-experiment (early exit / error): release it promptly.
                worker.process.kill()
            else:
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + self.policy.shutdown_grace_s
        for worker in self._workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            worker.close()
        self._workers = []
