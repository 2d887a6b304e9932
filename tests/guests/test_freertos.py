"""Tests for the FreeRTOS model: queue, tasks, scheduler, workload."""

from math import sin, sqrt

import pytest

from repro.errors import SchedulerError
from repro.guests.base import GuestState
from repro.guests.freertos.kernel import FreeRTOSKernel, KernelConfig
from repro.guests.freertos.queue import MessageQueue
from repro.guests.freertos.task import EffectKind, Task, TaskEffect, TaskState
from repro.guests.freertos.workloads import (
    NUM_FLOAT_TASKS,
    NUM_INTEGER_TASKS,
    build_paper_workload,
)
from repro.hypervisor.traps import TrapCode


class TestMessageQueue:
    def test_fifo_order(self):
        queue = MessageQueue("q", capacity=4)
        for value in (1, 2, 3):
            assert queue.send(value)
        assert [queue.receive().payload for _ in range(3)] == [1, 2, 3]
        assert queue.receive() is None

    def test_capacity_and_drop_counting(self):
        queue = MessageQueue("q", capacity=2)
        assert queue.send("a") and queue.send("b")
        assert queue.full
        assert not queue.send("c")
        assert queue.dropped == 1
        assert len(queue) == 2

    def test_counters_and_watermark(self):
        queue = MessageQueue("q", capacity=8)
        for value in range(5):
            queue.send(value)
        queue.receive()
        assert queue.sent == 5
        assert queue.received == 1
        assert queue.high_watermark == 5

    def test_peek_does_not_consume(self):
        queue = MessageQueue("q")
        queue.send("x")
        assert queue.peek().payload == "x"
        assert len(queue) == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(SchedulerError):
            MessageQueue("q", capacity=0)

    def test_clear_empties_queue(self):
        queue = MessageQueue("q")
        queue.send(1)
        queue.clear()
        assert queue.empty


class TestTask:
    @staticmethod
    def noop_body(task, now):
        return [TaskEffect(kind=EffectKind.PRINT, text="ran")]

    def test_validation(self):
        with pytest.raises(SchedulerError):
            Task(name="", priority=1, period=1.0, body=self.noop_body)
        with pytest.raises(SchedulerError):
            Task(name="t", priority=-1, period=1.0, body=self.noop_body)
        with pytest.raises(SchedulerError):
            Task(name="t", priority=1, period=0.0, body=self.noop_body)

    def test_release_and_run_cycle(self):
        task = Task(name="t", priority=1, period=1.0, body=self.noop_body)
        assert task.release_if_due(0.0)
        assert task.state is TaskState.READY
        effects = task.run(0.0)
        assert effects[0].text == "ran"
        assert task.state is TaskState.BLOCKED
        assert task.run_count == 1
        assert not task.release_if_due(0.5)
        assert task.release_if_due(1.0)

    def test_run_requires_ready_state(self):
        task = Task(name="t", priority=1, period=1.0, body=self.noop_body)
        with pytest.raises(SchedulerError):
            task.run(0.0)

    def test_missed_deadline_detection(self):
        task = Task(name="t", priority=1, period=1.0, body=self.noop_body)
        task.release_if_due(0.0)
        task.run(0.0)
        # Released a whole period late.
        assert task.release_if_due(2.5)
        assert task.missed_deadlines == 1

    def test_suspend_resume_delete(self):
        task = Task(name="t", priority=1, period=1.0, body=self.noop_body)
        task.suspend()
        assert not task.release_if_due(10.0)
        task.resume(10.0)
        assert task.release_if_due(10.0)
        task.delete()
        assert not task.release_if_due(20.0)


class TestKernelScheduler:
    def make_kernel(self) -> FreeRTOSKernel:
        return FreeRTOSKernel("FreeRTOS", seed=1)

    def test_duplicate_task_names_rejected(self):
        kernel = self.make_kernel()
        kernel.create_task(Task("a", 1, 1.0, TestTask.noop_body))
        with pytest.raises(SchedulerError):
            kernel.create_task(Task("a", 2, 1.0, TestTask.noop_body))

    def test_duplicate_queue_names_rejected(self):
        kernel = self.make_kernel()
        kernel.create_queue("q")
        with pytest.raises(SchedulerError):
            kernel.create_queue("q")

    def test_ready_tasks_sorted_by_priority(self):
        kernel = self.make_kernel()
        low = Task("low", 1, 1.0, TestTask.noop_body)
        high = Task("high", 5, 1.0, TestTask.noop_body)
        kernel.create_task(low)
        kernel.create_task(high)
        ready = kernel._ready_tasks(0.0)
        assert [task.name for task in ready] == ["high", "low"]

    def test_task_by_name(self):
        kernel = self.make_kernel()
        task = Task("x", 1, 1.0, TestTask.noop_body)
        kernel.create_task(task)
        assert kernel.task_by_name("x") is task
        assert kernel.task_by_name("y") is None

    def test_step_requires_running_state(self):
        kernel = self.make_kernel()
        assert kernel.step(1, 0.0, 0.02) == []


class TestPaperWorkload:
    def test_task_set_matches_the_paper_description(self):
        kernel = build_paper_workload()
        names = [task.name for task in kernel.tasks]
        assert "blink" in names
        assert "sender" in names and "receiver" in names
        assert sum(1 for name in names if name.startswith("float-")) == NUM_FLOAT_TASKS
        assert sum(1 for name in names if name.startswith("integer-")) == NUM_INTEGER_TASKS
        assert len(names) == 3 + NUM_FLOAT_TASKS + NUM_INTEGER_TASKS
        assert NUM_INTEGER_TASKS == 15 and NUM_FLOAT_TASKS == 2

    def test_workload_produces_output_and_traps(self, booted_sut):
        booted_sut.run(5.0)
        kernel = booted_sut.freertos
        assert kernel.state is GuestState.RUNNING
        assert kernel.stats.uart_lines > 0
        assert kernel.stats.traps_generated > 0
        runs = kernel.runs_per_task()
        assert runs["blink"] >= 8                     # 0.5 s period over 5 s
        assert runs["sender"] >= 40                   # 0.1 s period
        assert all(count > 0 for count in runs.values())

    def test_blink_task_toggles_the_board_led(self, booted_sut):
        booted_sut.run(3.0)
        assert booted_sut.board.led.blink_count >= 4

    def test_send_receive_tasks_use_the_queue_and_ivshmem(self, booted_sut):
        booted_sut.run(3.0)
        kernel = booted_sut.freertos
        assert kernel.queues["tx"].sent > 0
        assert kernel.queues["tx"].received > 0
        assert kernel.ivshmem is not None
        # Messages sent to the root cell side are pending there (nobody reads
        # them in the default workload).
        assert kernel.ivshmem.pending("BananaPi-Linux") > 0

    def test_status_heartbeat_appears_on_the_uart(self, booted_sut):
        booted_sut.run(3.0)
        lines = booted_sut.board.uart.lines("FreeRTOS")
        assert any("tick=" in line for line in lines)

    def test_arithmetic_tasks_print_their_values(self, booted_sut):
        # 6.5 s reaches the floats' 50th and 100th releases and the
        # integers' 100th: every print iteration of both kinds, in
        # dispatch order, and no arithmetic line anywhere else.
        booted_sut.run(6.5)
        lines = booted_sut.board.uart.lines("FreeRTOS")
        printed = [line for line in lines if "] fp[" in line or "] int[" in line]
        expected = [
            f"[float-{i}] fp[{i}] iteration {run} value "
            f"{sin(run * 0.1 + i) * sqrt(run + 1.5):.4f}"
            for run in (50, 100) for i in range(NUM_FLOAT_TASKS)
        ] + [
            f"[integer-{i}] int[{i}] iteration 100 value "
            f"{(100 * 2654435761 + 97 * i) % 104729}"
            for i in range(NUM_INTEGER_TASKS)
        ]
        assert printed == expected

    def test_trap_mix_includes_wfi_cp15_and_mmio(self):
        kernel = build_paper_workload(seed=7)
        # Drive the trap generator directly (no board needed for this check).
        kinds = set()
        import numpy as np
        for _ in range(400):
            for event in kernel._generate_traps(1, 0.0, idle=True):
                kinds.add(event.trap)
        assert TrapCode.WFI in kinds
        assert TrapCode.CP15_ACCESS in kinds


class TestSnapshotDispatchOrder:
    """Regression: the precomputed dispatch order is part of the snapshot.

    ``_priority_order`` used to be rebuilt only by ``create_task``; a
    snapshot taken before a task was added and restored afterwards kept the
    *post*-addition order, so the restored fork scheduled a task that did
    not exist in the captured state.
    """

    def make_kernel(self) -> FreeRTOSKernel:
        kernel = FreeRTOSKernel("FreeRTOS", seed=1)
        kernel.create_task(Task("low", 1, 1.0, TestTask.noop_body))
        kernel.create_task(Task("high", 5, 1.0, TestTask.noop_body))
        return kernel

    def test_restore_rewinds_the_dispatch_order(self):
        kernel = self.make_kernel()
        state = kernel.snapshot_state()
        kernel.create_task(Task("mid", 3, 1.0, TestTask.noop_body))
        assert [task.name for task in kernel._priority_order] == [
            "high", "mid", "low"]
        kernel.restore_state(state)
        assert [task.name for task in kernel._priority_order] == [
            "high", "low"]
        ready = kernel._ready_tasks(0.0)
        assert "mid" not in [task.name for task in ready]

    def test_snapshot_owns_its_order_list(self):
        kernel = self.make_kernel()
        state = kernel.snapshot_state()
        kernel.create_task(Task("mid", 3, 1.0, TestTask.noop_body))
        # The captured list must not see the post-snapshot rebuild.
        assert [task.name for task in state["priority_order"]] == [
            "high", "low"]
