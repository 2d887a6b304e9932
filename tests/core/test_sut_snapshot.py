"""Snapshot/restore of the Jailhouse system under test.

The engine's prefix forks rely on two properties proven here: a restore
brings the *entire* deployment (board RAM, CPU/GIC/timer state, hypervisor
cell registry, guest kernel state, RNG streams) back to the captured
instant, and an experiment run against a restored SUT produces exactly the
outcome a cold-booted SUT produces.
"""

from repro.core.experiment import (
    Experiment,
    ExperimentSpec,
    Scenario,
    park_provoking_spec,
)
from repro.core.faultmodels import SingleBitFlip
from repro.core.sut import JailhouseSUT, SutConfig
from repro.core.targets import InjectionTarget
from repro.core.triggers import EveryNCalls


def result_fingerprint(result):
    """Everything observable about a result except wall-clock time."""
    return (
        result.spec_name, result.outcome, result.rationale, result.injections,
        result.register_class_counts, result.target_cell_lines,
        result.root_cell_lines, result.extras,
        None if result.management is None else vars(result.management),
    )


class TestSnapshotRestore:
    def test_restore_rewinds_clock_cpus_and_logs(self):
        sut = JailhouseSUT(SutConfig(seed=3))
        sut.setup()
        sut.perform_cell_lifecycle()
        sut.run(1.0)
        snapshot = sut.snapshot()
        now = sut.now
        uart_lines = sut.board.uart.output_count()
        trap_calls = sut.hypervisor.handlers.call_count("arch_handle_trap")

        sut.run(2.0)
        assert sut.now > now
        assert sut.board.uart.output_count() > uart_lines

        sut.restore(snapshot)
        assert sut.now == now
        assert sut.board.uart.output_count() == uart_lines
        assert sut.hypervisor.handlers.call_count("arch_handle_trap") == trap_calls
        assert sut.inmate_cell_exists()

    def test_restored_run_replays_identically(self):
        """Same state + same RNG stream => byte-identical continuation."""
        sut = JailhouseSUT(SutConfig(seed=11))
        sut.setup()
        sut.perform_cell_lifecycle()
        sut.run(0.5)
        snapshot = sut.snapshot()
        sut.run(2.0)
        first = (sut.board.uart.output_count(), sut.freertos.tick_count,
                 sut.linux.jiffies, sut.hypervisor.handlers.call_count(
                     "irqchip_handle_irq"))
        sut.restore(snapshot)
        sut.run(2.0)
        second = (sut.board.uart.output_count(), sut.freertos.tick_count,
                  sut.linux.jiffies, sut.hypervisor.handlers.call_count(
                      "irqchip_handle_irq"))
        assert first == second

    def test_restore_drops_cells_created_after_snapshot(self):
        sut = JailhouseSUT(SutConfig(seed=4))
        sut.setup()
        snapshot = sut.snapshot()
        sut.perform_cell_lifecycle()
        assert sut.inmate_cell_exists()
        sut.restore(snapshot)
        assert not sut.inmate_cell_exists()
        # The lifecycle can be replayed cleanly afterwards.
        management = sut.perform_cell_lifecycle()
        assert management.create_succeeded and management.start_succeeded


def spec_with_seed(seed):
    return ExperimentSpec(
        name=f"snap-parity-{seed}",
        target=InjectionTarget.nonroot_cpu_trap(),
        trigger=EveryNCalls(60),
        fault_model=SingleBitFlip(),
        scenario=Scenario.STEADY_STATE,
        duration=5.0,
        seed=seed,
    )


def forked_result(spec, sut, snapshot):
    """Run ``spec``'s suffix on ``sut`` forked from its prefix ``snapshot``."""
    experiment = Experiment(spec)
    sut.fork_from_snapshot(snapshot)
    try:
        return experiment.run_from_snapshot(sut)
    finally:
        sut.teardown()


def prefix_snapshot(spec):
    """A fresh SUT for ``spec`` and its snapshot at the injection point."""
    sut = JailhouseSUT(SutConfig(seed=spec.seed))
    Experiment(spec).run_prefix(sut)
    return sut, sut.snapshot()


class TestRestoredVsColdBootOutcomes:
    def test_forked_sut_reproduces_cold_boot_outcomes(self):
        """The parity requirement: forked == cold-booted, exactly."""
        for spec in (spec_with_seed(seed) for seed in (0, 1, 2)):
            cold = Experiment(spec).run()
            sut, snapshot = prefix_snapshot(spec)
            first = forked_result(spec, sut, snapshot)
            # A second fork rewinds over the first one's end state.
            again = forked_result(spec, sut, snapshot)
            assert result_fingerprint(first) == result_fingerprint(cold)
            assert result_fingerprint(again) == result_fingerprint(cold)

    def test_parity_survives_a_cpu_park(self):
        spec = park_provoking_spec(seed=5, duration=8.0)
        cold = Experiment(spec).run()
        assert cold.extras["park_observed"]
        sut, snapshot = prefix_snapshot(spec)
        first = forked_result(spec, sut, snapshot)
        # The second fork restores over the parked/failed end state.
        second = forked_result(spec, sut, snapshot)
        assert result_fingerprint(first) == result_fingerprint(cold)
        assert result_fingerprint(second) == result_fingerprint(cold)
