"""Batched lockstep core: records must be byte-identical to cold runs.

The contract of :mod:`repro.engine.batch` is *eviction, not emulation*: all
lanes of a steady-state prefix family advance on one shared simulation until
a lane's injector fires, and that lane is then replayed scalar from the last
sync boundary. Because the replay is a real scalar execution (same seed,
same injector state, same boundary snapshot), every persisted record —
outcome, injection count, availability lines, everything — must match the
per-spec cold reference byte for byte, for every campaign shape: the whole
paper catalog, grids with forced mid-batch evictions, sliced families, and
every engine composition (jobs, supervision, resume, telemetry).
"""

import json

import pytest

from repro.core.campaign import Campaign
from repro.core.config import (
    CampaignConfig,
    PartRef,
    catalog_config,
    catalog_keys,
)
from repro.core.experiment import Experiment
from repro.core.policy import RunPolicy
from repro.engine import workers
from repro.engine.batch import (
    BatchDivergenceError,
    BatchStepper,
    batchable_spec,
    supports_batching,
)
from repro.engine.scheduler import WorkItem, plan_family_batches
from repro.errors import CampaignError
from repro.hw.memory import AccessType
from repro.hw.registers import Register


def _campaign_for(config: CampaignConfig) -> Campaign:
    return Campaign(config.compile(), sut_factory=config.sut_factory(),
                    classifier=config.build_classifier())


def _record_lines(result) -> list:
    return [record.to_json() for record in result.to_records()]


def _reference_lines(config: CampaignConfig, cold_reference) -> list:
    return _record_lines(cold_reference(config.compile(), config.sut_factory(),
                                        config.build_classifier()))


def _evicting_grid(tests: int = 3, duration: float = 2.0) -> CampaignConfig:
    """A family grid whose fast triggers force every lane to evict."""
    return CampaignConfig(
        name="batch-evict-grid",
        targets=[PartRef("nonroot-trap"), PartRef("hvc+trap", {"cpus": [1]})],
        triggers=[PartRef("every-n-calls", {"n": 5}, tag="fast"),
                  PartRef("every-n-calls", {"n": 10}, tag="mid")],
        fault_models=[PartRef("single-bit-flip")],
        scenarios=["steady-state"],
        intensity="custom",
        tests=tests,
        duration=duration,
    )


def _mixed_grid() -> CampaignConfig:
    """Some lanes evict mid-batch, some stay in lockstep to the end."""
    return CampaignConfig(
        name="batch-mixed-grid",
        targets=[PartRef("nonroot-trap"), PartRef("hvc+trap", {"cpus": [1]})],
        triggers=[PartRef("every-n-calls", {"n": 8}, tag="early"),
                  PartRef("one-shot", {"n": 10 ** 7}, tag="never")],
        fault_models=[PartRef("single-bit-flip")],
        scenarios=["steady-state"],
        intensity="custom",
        tests=2,
        duration=2.0,
    )


class TestCatalogParity:
    """Every paper campaign: engine == cold reference, record for record."""

    @pytest.mark.parametrize("key", catalog_keys())
    def test_batched_records_match_scalar(self, key, cold_reference):
        config = catalog_config(key, num_tests=3, duration=2.0)
        batched = _campaign_for(config).run(jobs=1)
        assert _record_lines(batched) == _reference_lines(config,
                                                          cold_reference)
        stats = batched.batch_stats()
        assert stats["batched"] + stats["scalar"] == len(batched)

    def test_spec_identities_are_untouched_by_batching(self):
        # The batch layer is pure execution strategy: identity() (and with
        # it checkpoint compatibility) must not depend on it.
        config = catalog_config("fig3", num_tests=3, duration=1.0)
        identities = [spec.identity() for spec in config.compile()]
        campaign = _campaign_for(config)
        campaign.run(jobs=1)
        assert [spec.identity() for spec in config.compile()] == identities


class TestForcedEvictions:
    def test_every_lane_evicting_still_matches_scalar(self, cold_reference):
        config = _evicting_grid()
        batched = _campaign_for(config).run(jobs=1)
        assert _record_lines(batched) == _reference_lines(config,
                                                          cold_reference)
        stats = batched.batch_stats()
        assert stats["batched"] == len(batched)
        assert stats["evicted"] == len(batched)      # fast triggers all fire

    def test_mixed_eviction_and_lockstep_matches_scalar(self, cold_reference):
        config = _mixed_grid()
        batched = _campaign_for(config).run(jobs=1)
        assert _record_lines(batched) == _reference_lines(config,
                                                          cold_reference)
        stats = batched.batch_stats()
        assert 0 < stats["evicted"] < stats["batched"]

    def test_small_batch_size_splits_families(self, cold_reference,
                                              monkeypatch):
        # A batch size of 2 slices each 4-lane family into two batches;
        # records must be independent of how the family was sliced.
        monkeypatch.setattr(workers, "BATCH_SIZE", 2)
        config = _evicting_grid()
        reference = _reference_lines(config, cold_reference)
        for jobs in (1, 2):
            batched = _campaign_for(config).run(jobs=jobs)
            assert _record_lines(batched) == reference
            assert {result.batch_lanes for result in batched.results} == {2}
            assert len({result.batch_id for result in batched.results}) == 6


class TestComposition:
    def test_pool_execution_matches_scalar(self, cold_reference):
        config = _evicting_grid()
        pooled = _campaign_for(config).run(jobs=2)
        assert _record_lines(pooled) == _reference_lines(config,
                                                         cold_reference)
        assert pooled.batch_stats()["batched"] > 0

    def test_supervised_execution_matches_scalar(self, cold_reference):
        config = _evicting_grid(tests=2)
        reference = _reference_lines(config, cold_reference)
        campaign = _campaign_for(config)
        for jobs in (1, 2):
            supervised = campaign.run(
                jobs=jobs, policy=RunPolicy(timeout_s=300.0, retries=1))
            assert _record_lines(supervised) == reference
            assert supervised.batch_stats()["batched"] == len(supervised)

    def test_checkpoint_and_resume(self, tmp_path, cold_reference):
        checkpoint = str(tmp_path / "ckpt.jsonl")
        config = _evicting_grid(tests=2)
        reference = _reference_lines(config, cold_reference)
        campaign = _campaign_for(config)
        first = campaign.run(jobs=1, checkpoint_path=checkpoint)
        assert _record_lines(first) == reference
        resumed = campaign.run(jobs=1, checkpoint_path=checkpoint,
                               resume=True)
        assert _record_lines(resumed) == reference
        # Everything was restored, nothing re-batched.
        assert resumed.batch_stats()["batched"] == 0

    def test_batch_telemetry_events_match_stats(self, tmp_path):
        from repro.obs.telemetry import Telemetry, validate_events_file

        sink = tmp_path / "events.jsonl"
        campaign = _campaign_for(_evicting_grid(tests=2))
        with Telemetry(sink) as bus:
            result = campaign.run(jobs=1, telemetry=bus)
        validate_events_file(sink)
        kinds = {}
        with sink.open() as handle:
            for line in handle:
                event = json.loads(line)
                kinds.setdefault(event["kind"], []).append(event["payload"])
        stats = result.batch_stats()
        assert sum(p["lanes"] for p in kinds["batch_formed"]) == \
            stats["batched"]
        assert len(kinds["lane_evicted"]) == stats["evicted"]


class TestFallbacks:
    def test_divergence_falls_back_to_scalar(self, monkeypatch,
                                             cold_reference):
        config = _evicting_grid(tests=2)

        def explode(self):
            raise BatchDivergenceError("induced for the test")

        monkeypatch.setattr(BatchStepper, "run", explode)
        batched = _campaign_for(config).run(jobs=1)
        assert _record_lines(batched) == _reference_lines(config,
                                                          cold_reference)
        assert batched.batch_stats()["batched"] == 0

    def test_lifecycle_specs_are_not_batchable(self):
        config = catalog_config("high-root", num_tests=2, duration=2.0)
        for spec in config.compile():
            assert not batchable_spec(spec)

    def test_cold_boot_specs_are_not_batchable(self):
        config = _evicting_grid(tests=1)
        spec = next(iter(config.compile()))
        assert batchable_spec(spec)
        object.__setattr__(spec, "cold_boot", True)
        assert not batchable_spec(spec)

    def test_sut_without_fork_support_runs_scalar(self):
        # The no-isolation SUT family supports snapshots only if it defines
        # them; supports_batching is the worker-side gate.
        class Minimal:
            pass

        assert not supports_batching(Minimal())


class TestRestoreGuard:
    """The eviction replay's restore guard: registers and stack-top words."""

    def _stepper(self):
        config = _evicting_grid(tests=1)
        experiment = Experiment(next(iter(config.compile())),
                                sut_factory=config.sut_factory())
        sut = experiment.sut_factory(experiment.spec.seed)
        experiment.run_prefix(sut)
        return sut, BatchStepper(sut, [experiment])

    def test_unchanged_state_passes(self):
        _, stepper = self._stepper()
        stepper._verify_restore(stepper._capture_guard())

    def test_register_drift_is_a_divergence(self):
        sut, stepper = self._stepper()
        guard = stepper._capture_guard()
        sut.board.cpus[-1].registers.flip(Register.R0, 0)
        with pytest.raises(BatchDivergenceError):
            stepper._verify_restore(guard)

    def test_stack_top_drift_is_a_divergence(self):
        sut, stepper = self._stepper()
        guard = stepper._capture_guard()
        memory = sut.board.memory
        for cpu in sut.board.cpus:
            stack_pointer = cpu.registers.read(Register.SP)
            region = memory.find_region(stack_pointer)
            if (region is not None and region.contains(stack_pointer, 4)
                    and region.permits(AccessType.WRITE)):
                memory.write(stack_pointer,
                             memory.read(stack_pointer, 4) ^ 1, 4)
                break
        else:
            pytest.fail("no CPU's stack top lies in writable RAM")
        with pytest.raises(BatchDivergenceError):
            stepper._verify_restore(guard)


class TestBatchPlanning:
    def _family(self, specs):
        from repro.engine.scheduler import PrefixFamily
        items = tuple(WorkItem(index=i, spec=s) for i, s in enumerate(specs))
        return PrefixFamily(key="k", items=items)

    def test_single_eligible_member_stays_scalar(self):
        config = _evicting_grid(tests=1)
        specs = list(config.compile())[:1]
        batches, scalar = plan_family_batches(
            self._family(specs), 8, batchable_spec)
        assert batches == []
        assert [item.spec for item in scalar] == specs

    def test_trailing_singleton_batch_joins_scalar(self):
        config = _evicting_grid(tests=2)
        specs = [s for s in config.compile()][:5]
        batches, scalar = plan_family_batches(
            self._family(specs), 2, batchable_spec)
        assert [len(batch) for batch in batches] == [2, 2]
        assert len(scalar) == 1

    def test_invalid_batch_size_raises(self):
        with pytest.raises(CampaignError):
            plan_family_batches(self._family([]), 0, batchable_spec)
