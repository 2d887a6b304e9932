"""Supervision layer: timeouts, retries, quarantine, worker liveness.

Covers both supervision backends — the serial ``SIGALRM`` path and the
:class:`~repro.engine.supervisor.SupervisedPool` — plus the policy and
quarantine-log plumbing around them, and the default policy every entry
point runs under. The scenarios injected here are the infrastructure faults
the layer exists for: specs that hang forever, specs that raise, and specs
that SIGKILL their own worker process.
"""

import os
import signal
import time

import pytest

from repro.core.campaign import Campaign
from repro.core.outcomes import Outcome
from repro.core.plan import paper_figure3_plan
from repro.core.registry import RegistrySutFactory
from repro.core.sut import JailhouseSUT, SutConfig
from repro.engine.quarantine import QuarantineLog, default_quarantine_path
from repro.engine.runner import CampaignEngine
from repro.engine.scheduler import build_work_queue
from repro.engine.supervisor import RunPolicy, infra_result
from repro.engine.workers import execute_pool, execute_serial
from repro.errors import CampaignError


def fast_policy(**overrides) -> RunPolicy:
    """A RunPolicy with test-friendly backoffs (keeps retries sub-second)."""
    defaults = dict(retries=1, backoff_s=0.01, backoff_cap_s=0.05,
                    poll_s=0.02, shutdown_grace_s=2.0)
    defaults.update(overrides)
    return RunPolicy(**defaults)


class EventRecorder:
    def __init__(self):
        self.events = []

    def __call__(self, kind, **payload):
        self.events.append((kind, payload))

    def kinds(self):
        return [kind for kind, _ in self.events]


class StrikingSut(JailhouseSUT):
    """The paper's deployment, asking its factory to strike at every setup.

    ``setup()`` opens every experiment of a fig3 plan, whose prefix
    families are singletons that each build a fresh SUT, so a fault struck
    there fires once per experiment.
    """

    def __init__(self, seed, strike):
        super().__init__(SutConfig(seed=seed))
        self.strike = strike

    def setup(self):
        self.strike(self.config.seed)
        super().setup()


class FaultyFactory:
    """The real jailhouse deployment, misbehaving on chosen seeds.

    ``mode`` per seed: ``"raise"`` raises RuntimeError every time,
    ``"hang"`` sleeps far past any test timeout, ``"kill"`` SIGKILLs its own
    process. Picklable (plain attributes) so it crosses into pool workers
    under any start method.
    """

    def __init__(self, modes):
        self.modes = dict(modes)

    def __call__(self, seed):
        return StrikingSut(seed, self.strike)

    def strike(self, seed):
        mode = self.modes.get(seed)
        if mode == "raise":
            raise RuntimeError(f"synthetic fault for seed {seed}")
        if mode == "hang":
            time.sleep(300)
        if mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)


class FlakyOnceFactory:
    """Raises on the first experiment of each marked seed, then behaves."""

    def __init__(self, seeds):
        self.remaining = set(seeds)

    def __call__(self, seed):
        return StrikingSut(seed, self.strike)

    def strike(self, seed):
        if seed in self.remaining:
            self.remaining.remove(seed)
            raise RuntimeError(f"transient fault for seed {seed}")


@pytest.fixture
def plan():
    return paper_figure3_plan(num_tests=4, duration=1.0)


@pytest.fixture
def queue(plan):
    return build_work_queue(plan)


class TestRunPolicy:
    def test_defaults_validate(self):
        policy = RunPolicy()
        assert (policy.timeout_s, policy.retries,
                policy.max_worker_restarts) == (None, 1, 8)

    @pytest.mark.parametrize("kwargs", [
        {"timeout_s": 0.0},
        {"timeout_s": -1.0},
        {"retries": -1},
        {"max_worker_restarts": -1},
        {"backoff_s": -0.1},
        {"timeout_s": float("nan")},
        {"timeout_s": float("inf")},
    ])
    def test_invalid_values_are_rejected(self, kwargs):
        with pytest.raises(CampaignError):
            RunPolicy(**kwargs)


class TestInfraResult:
    def test_carries_identity_and_blame(self, plan):
        spec = plan.specs[0]
        result = infra_result(spec, Outcome.INFRA_TIMEOUT, attempts=3,
                              error="hung")
        assert result.spec_name == spec.name
        assert result.seed == spec.seed
        assert result.outcome is Outcome.INFRA_TIMEOUT
        assert result.injections == 0
        assert result.extras["quarantined"] is True
        assert result.extras["infra_attempts"] == 3

    def test_rejects_simulation_outcomes(self, plan):
        with pytest.raises(CampaignError):
            infra_result(plan.specs[0], Outcome.CORRECT, attempts=1,
                         error="nope")


class TestSerialSupervision:
    def test_hang_times_out_and_quarantines(self, queue):
        events = EventRecorder()
        factory = FaultyFactory({queue[1].spec.seed: "hang"})
        results = dict(execute_serial(
            queue, factory, policy=fast_policy(timeout_s=0.2, retries=1),
            on_event=events))
        assert results[1].outcome is Outcome.INFRA_TIMEOUT
        assert results[1].extras["infra_attempts"] == 2
        assert all(not results[i].outcome.is_infrastructure
                   for i in (0, 2, 3))
        assert events.kinds() == ["experiment_timeout", "experiment_retry",
                                  "experiment_timeout", "spec_quarantined"]

    def test_persistent_error_quarantines_as_crash(self, queue):
        events = EventRecorder()
        factory = FaultyFactory({queue[0].spec.seed: "raise"})
        results = dict(execute_serial(
            queue, factory, policy=fast_policy(retries=2), on_event=events))
        assert results[0].outcome is Outcome.INFRA_CRASH
        assert "RuntimeError" in results[0].extras["infra_error"]
        assert events.kinds() == ["experiment_retry", "experiment_retry",
                                  "spec_quarantined"]
        kind, payload = events.events[-1]
        assert payload["spec"] == queue[0].spec.name
        assert payload["attempts"] == 3
        assert payload["spec_id"] == queue[0].spec.identity()

    def test_transient_error_retries_to_the_clean_result(self, queue):
        clean = dict(execute_serial(queue, RegistrySutFactory("jailhouse")))
        events = EventRecorder()
        factory = FlakyOnceFactory([queue[2].spec.seed])
        retried = dict(execute_serial(
            queue, factory, policy=fast_policy(retries=1), on_event=events))
        assert events.kinds() == ["experiment_retry"]
        # The retry re-runs with the original seed: bit-identical outcome.
        assert {i: r.outcome for i, r in retried.items()} == \
               {i: r.outcome for i, r in clean.items()}
        assert retried[2].injections == clean[2].injections


class TestPoolSupervision:
    def test_worker_crash_is_retried_then_quarantined(self, queue):
        events = EventRecorder()
        factory = FaultyFactory({queue[1].spec.seed: "kill"})
        results = dict(execute_pool(
            queue, jobs=2, sut_factory=factory,
            policy=fast_policy(retries=1), on_event=events))
        assert len(results) == 4
        assert results[1].outcome is Outcome.INFRA_CRASH
        assert all(not results[i].outcome.is_infrastructure
                   for i in (0, 2, 3))
        kinds = events.kinds()
        assert kinds.count("worker_crash") == 2       # initial + retry
        assert kinds.count("experiment_retry") == 1
        assert kinds.count("spec_quarantined") == 1
        assert kinds.count("worker_respawn") == 2

    def test_hang_is_killed_by_the_watchdog(self, queue):
        events = EventRecorder()
        factory = FaultyFactory({queue[0].spec.seed: "hang"})
        started = time.monotonic()
        results = dict(execute_pool(
            queue, jobs=2, sut_factory=factory,
            policy=fast_policy(timeout_s=0.5, retries=0), on_event=events))
        assert time.monotonic() - started < 30
        assert results[0].outcome is Outcome.INFRA_TIMEOUT
        kinds = events.kinds()
        assert "experiment_timeout" in kinds
        # A deliberate timeout kill is not a crash and always respawns.
        assert "worker_crash" not in kinds
        assert "worker_respawn" in kinds

    def test_exhausted_restart_budget_aborts(self, queue):
        factory = FaultyFactory(
            {item.spec.seed: "kill" for item in queue})
        with pytest.raises(CampaignError, match="respawn budget"):
            list(execute_pool(
                queue, jobs=2, sut_factory=factory,
                policy=fast_policy(retries=0, max_worker_restarts=0)))


def _in_plan_order(stream):
    indexed = dict(stream)
    return [indexed[index] for index in sorted(indexed)]


#: Every way to run a plan, each called without a policy argument.
ENTRY_POINTS = {
    "Campaign.run": lambda plan, factory:
        Campaign(plan, sut_factory=factory).run().results,
    "CampaignEngine.run": lambda plan, factory:
        CampaignEngine(plan, sut_factory=factory).run().results,
    "execute_serial": lambda plan, factory:
        _in_plan_order(execute_serial(build_work_queue(plan), factory)),
    "execute_pool": lambda plan, factory:
        _in_plan_order(execute_pool(build_work_queue(plan), jobs=2,
                                    sut_factory=factory)),
}


class TestDefaultPolicy:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_raising_spec_is_quarantined_after_one_retry(self, plan, entry):
        # One policy for every caller: with no policy argument the library,
        # serial and pool paths all run RunPolicy() -- one retry, then an
        # infra_crash record -- instead of letting the exception escape.
        factory = FaultyFactory({plan.specs[1].seed: "raise"})
        results = ENTRY_POINTS[entry](plan, factory)
        assert [result.spec_name for result in results] == \
               [spec.name for spec in plan.specs]
        assert [result.outcome.is_infrastructure for result in results] == \
               [False, True, False, False]
        assert results[1].outcome is Outcome.INFRA_CRASH
        assert results[1].extras["infra_attempts"] == 2
        assert "synthetic fault" in results[1].extras["infra_error"]


class TestEngineQuarantineFlow:
    def test_quarantined_spec_is_reoffered_on_resume(self, tmp_path):
        plan = paper_figure3_plan(num_tests=4, duration=1.0)
        checkpoint = tmp_path / "records.jsonl"
        campaign = Campaign(plan)
        bad_seed = plan.specs[2].seed
        campaign.sut_factory = FaultyFactory({bad_seed: "raise"})
        result = campaign.run(jobs=1, checkpoint_path=str(checkpoint),
                              resume=True)
        assert len(result.results) == 4
        assert [r.spec_name for r in result.quarantined()] == \
               [plan.specs[2].name]

        quarantine_path = default_quarantine_path(checkpoint)
        log = QuarantineLog(quarantine_path)
        entries = log.entries()
        assert [entry["spec"] for entry in entries] == [plan.specs[2].name]
        assert entries[0]["reason"] == "error"

        # The quarantined spec was not checkpointed, so a resumed run with a
        # healthy factory re-offers and re-executes exactly that spec.
        campaign.sut_factory = RegistrySutFactory("jailhouse")
        resumed = campaign.run(jobs=1, checkpoint_path=str(checkpoint),
                               resume=True)
        assert len(resumed.results) == 4
        assert resumed.quarantined() == []
        assert QuarantineLog(quarantine_path).entries() == []

    def test_quarantine_log_reoffer_is_selective(self, tmp_path):
        plan = paper_figure3_plan(num_tests=2, duration=1.0)
        log = QuarantineLog(tmp_path / "q.jsonl")
        log.append(spec=plan.specs[0].name, spec_id=plan.specs[0].identity(),
                   seed=plan.specs[0].seed, scenario="steady-state",
                   attempts=2, reason="crash", error="boom")
        log.append(spec="someone-else", spec_id="not-in-this-plan",
                   seed=99, scenario="steady-state",
                   attempts=1, reason="timeout", error="hung")
        assert log.reoffer(plan) == 1
        remaining = log.entries()
        assert [entry["spec"] for entry in remaining] == ["someone-else"]

    def test_quarantine_log_skips_torn_lines(self, tmp_path):
        path = tmp_path / "q.jsonl"
        log = QuarantineLog(path)
        log.append(spec="a", spec_id="id-a", seed=1, scenario="s",
                   attempts=1, reason="crash", error="x")
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"torn": ')
        assert [entry["spec"] for entry in log.entries()] == ["a"]

    def test_quarantine_log_entry_without_its_newline_is_kept(self, tmp_path):
        # A writer killed between an entry and its newline: the next append
        # must not merge into it.
        path = tmp_path / "q.jsonl"
        log = QuarantineLog(path)
        log.append(spec="a", spec_id="id-a", seed=1, scenario="s",
                   attempts=1, reason="crash", error="x")
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        log.append(spec="b", spec_id="id-b", seed=2, scenario="s",
                   attempts=1, reason="crash", error="y")
        assert [entry["spec"] for entry in log.entries()] == ["a", "b"]

    @pytest.mark.parametrize("line", [
        b"\xff\xfe x", b"[" * 100_000, b"1" * 5000,
        b'{"spec": "b", "spec_id": []}',
    ], ids=["not-utf8", "deep-nesting", "long-integer", "unhashable-spec-id"])
    def test_quarantine_log_skips_foreign_lines(self, tmp_path, line):
        """``--resume`` reads the sidecar: a line another tool wrote is
        skipped like a torn one, not a traceback."""
        path = tmp_path / "q.jsonl"
        log = QuarantineLog(path)
        with path.open("ab") as handle:
            handle.write(line + b"\n")
        log.append(spec="a", spec_id="id-a", seed=1, scenario="s",
                   attempts=1, reason="crash", error="x")
        assert [entry["spec"] for entry in log.entries()] == ["a"]
        assert log.reoffer(paper_figure3_plan(num_tests=1,
                                              duration=1.0)) == 0
