"""Chaos tests: the campaign survives the faults it is built to inject.

Two layers of violence:

* **Worker chaos** — a SUT factory that SIGKILLs its own worker process or
  wedges forever for chosen seeds, exactly once each (claimed through token
  files so a retry of the same seed proceeds cleanly). The supervised run
  must finish with records byte-identical to an unfaulted run: retries
  re-execute with the original seed and the simulation is seed-deterministic.
* **Parent chaos** — a real CLI campaign SIGKILLed mid-flight, then resumed
  with ``--resume``. The atomic checkpoint guarantees the surviving file is
  a valid prefix of the campaign: the resumed run completes with exactly one
  record per spec, no losses, no duplicates. The killed campaign's pool
  workers must not outlive it.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.campaign import Campaign
from repro.core.plan import paper_figure3_plan
from repro.core.policy import RunPolicy
from repro.core.recording import ExperimentRecord, RecordStore
from repro.core.sut import JailhouseSUT, SutConfig
from repro.engine.runner import CampaignEngine


class ChaosSut(JailhouseSUT):
    """The paper's deployment, striking chaos at every experiment's setup.

    ``setup()`` opens every experiment whether the engine reuses a pooled
    SUT or builds a fresh one, so the fault fires where the experiment runs.
    """

    def __init__(self, seed, factory):
        super().__init__(SutConfig(seed=seed))
        self.factory = factory

    def setup(self):
        self.factory.strike(self.config.seed)
        super().setup()


class ChaosFactory:
    """Misbehaves exactly once per marked seed, claimed via token files.

    The claim is the ``unlink`` of the token: whichever process removes the
    file owns the fault, so a respawned worker retrying the same seed finds
    no token and runs the experiment for real. Works under the fork *and*
    spawn start methods (state is on disk, not in the object).
    """

    def __init__(self, token_dir):
        self.token_dir = str(token_dir)

    def _claim(self, name: str) -> bool:
        try:
            os.unlink(os.path.join(self.token_dir, name))
            return True
        except FileNotFoundError:
            return False

    def __call__(self, seed):
        return ChaosSut(seed, self)

    def strike(self, seed):
        if self._claim(f"kill-{seed}"):
            os.kill(os.getpid(), signal.SIGKILL)
        if self._claim(f"hang-{seed}"):
            time.sleep(300)


def record_lines(results):
    return [ExperimentRecord.from_result(result).to_json()
            for result in results]


def _stat_fields(pid):
    """``/proc/<pid>/stat`` after the command name: state, ppid, ...

    ``None`` once the process is gone (or on a platform without /proc).
    """
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text.rsplit(")", 1)[1].split()


def children_of(pid):
    """Pids of the live processes whose parent is ``pid``."""
    children = []
    for entry in Path("/proc").glob("[0-9]*"):
        fields = _stat_fields(entry.name)
        if fields is not None and int(fields[1]) == pid:
            children.append(int(entry.name))
    return children


def gone_or_zombie(pid):
    fields = _stat_fields(pid)
    return fields is None or fields[0] == "Z"


class TestWorkerChaos:
    def test_chaos_run_is_byte_identical_to_clean_run(self, tmp_path):
        plan = paper_figure3_plan(num_tests=10, duration=2.0)
        clean = Campaign(plan).run()

        seeds = [spec.seed for spec in plan.specs]
        (tmp_path / f"kill-{seeds[2]}").touch()
        (tmp_path / f"kill-{seeds[6]}").touch()
        (tmp_path / f"hang-{seeds[4]}").touch()

        engine = CampaignEngine(
            plan, jobs=3, sut_factory=ChaosFactory(tmp_path),
            policy=RunPolicy(timeout_s=2.0, retries=2),
        )
        chaotic = engine.run()

        assert engine.infra_counts.get("worker_crash") == 2
        assert engine.infra_counts.get("experiment_timeout") == 1
        assert engine.infra_counts.get("worker_respawn", 0) >= 3
        assert "spec_quarantined" not in engine.infra_counts
        # Every faulted seed was retried and re-ran deterministically: the
        # persisted records of both campaigns match byte for byte.
        assert record_lines(chaotic.results) == record_lines(clean.results)

    def test_serial_chaos_hang_recovers(self, tmp_path):
        plan = paper_figure3_plan(num_tests=4, duration=1.0)
        clean = Campaign(plan).run()
        (tmp_path / f"hang-{plan.specs[1].seed}").touch()
        engine = CampaignEngine(
            plan, jobs=1, sut_factory=ChaosFactory(tmp_path),
            policy=RunPolicy(timeout_s=1.0, retries=2),
        )
        chaotic = engine.run()
        assert engine.infra_counts.get("experiment_timeout") == 1
        assert record_lines(chaotic.results) == record_lines(clean.results)


class TestParentChaos:
    def test_sigkilled_campaign_resumes_losslessly(self, tmp_path):
        checkpoint = tmp_path / "records.jsonl"
        tests = 30
        env = dict(os.environ)
        repo_src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        command = [
            sys.executable, "-m", "repro.cli", "fig3",
            "--tests", str(tests), "--duration", "60",
            "--jobs", "2", "--resume", str(checkpoint),
        ]

        process = subprocess.Popen(command, env=env,
                                   stdout=subprocess.DEVNULL,
                                   stderr=subprocess.DEVNULL)
        workers = []
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    break                # finished before we got the knife in
                if (checkpoint.exists()
                        and checkpoint.read_bytes().count(b"\n") >= 2):
                    break
                time.sleep(0.02)
            else:
                pytest.fail("campaign never wrote its first records")
        finally:
            if process.poll() is None:
                workers = children_of(process.pid)
                process.send_signal(signal.SIGKILL)
            process.wait()

        # The pool workers notice their parent is gone and exit instead of
        # blocking forever on a pipe that never reaches EOF.
        deadline = time.monotonic() + 10
        while (time.monotonic() < deadline
               and not all(gone_or_zombie(pid) for pid in workers)):
            time.sleep(0.1)
        orphans = [pid for pid in workers if not gone_or_zombie(pid)]
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        assert orphans == [], f"workers outlived the killed campaign: {orphans}"

        completed = subprocess.run(command, env=env, capture_output=True,
                                   text=True, timeout=120)
        assert completed.returncode == 0, completed.stderr

        records = list(RecordStore(checkpoint).iter_records())
        plan = paper_figure3_plan(num_tests=tests, duration=60.0)
        names = [record.spec_name for record in records]
        assert len(records) == tests
        assert len(set(names)) == tests              # no duplicates
        assert set(names) == {spec.name for spec in plan.specs}
        identities = {spec.name: spec.identity() for spec in plan.specs}
        for record in records:
            assert record.spec_id == identities[record.spec_name]
