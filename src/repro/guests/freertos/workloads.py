"""The paper's FreeRTOS workload.

Section III of the paper describes the non-root cell's task set: "a task to
blink an onboard led, a couple of send/receive tasks, two floating-point
arithmetic tasks, and fifteen integer ones". This module builds exactly that
task set on top of :class:`~repro.guests.freertos.kernel.FreeRTOSKernel`.
"""

from __future__ import annotations

from math import sin, sqrt
from typing import List, Optional

from repro.core.registry import WORKLOADS
from repro.guests.freertos.kernel import FreeRTOSKernel, KernelConfig
from repro.guests.freertos.queue import MessageQueue
from repro.guests.freertos.task import EffectKind, Task, TaskEffect

#: Number of integer arithmetic tasks in the paper's workload.
NUM_INTEGER_TASKS = 15
#: Number of floating-point arithmetic tasks in the paper's workload.
NUM_FLOAT_TASKS = 2

# The arithmetic bodies run 340 times per simulated second: bind the enum
# member once (a class attribute lookup on an enum is slow on CPython 3.11).
_COMPUTE = EffectKind.COMPUTE


def _blink_body(task: Task, now: float) -> List[TaskEffect]:
    """Toggle the onboard LED and report every few blinks."""
    effects = [TaskEffect(kind=EffectKind.LED_TOGGLE)]
    if task.run_count % 10 == 0:
        effects.append(
            TaskEffect(kind=EffectKind.PRINT, text=f"blink #{task.run_count}")
        )
    return effects


def _sender_body(task: Task, now: float) -> List[TaskEffect]:
    """Push a message onto the tx queue and over the inter-cell channel."""
    payload = f"msg-{task.run_count}"
    effects = [
        TaskEffect(kind=EffectKind.QUEUE_SEND, queue_name="tx", payload=payload),
        TaskEffect(kind=EffectKind.IVSHMEM_SEND, payload=payload),
    ]
    if task.run_count % 20 == 0:
        effects.append(
            TaskEffect(kind=EffectKind.PRINT, text=f"sent {task.run_count} messages")
        )
    return effects


def _receiver_body(task: Task, now: float) -> List[TaskEffect]:
    """Drain the tx queue (the paired receive task)."""
    effects = [TaskEffect(kind=EffectKind.QUEUE_RECEIVE, queue_name="tx")]
    if task.run_count % 20 == 0:
        effects.append(
            TaskEffect(kind=EffectKind.PRINT, text=f"received batch {task.run_count}")
        )
    return effects


def _make_float_body(index: int):
    def body(task: Task, now: float) -> List[TaskEffect]:
        run_count = task.run_count
        value = sin(run_count * 0.1 + index) * sqrt(run_count + 1.5)
        effects = [TaskEffect(_COMPUTE, value=value)]
        if run_count % 50 == 0:
            effects.append(
                TaskEffect(kind=EffectKind.PRINT,
                           text=f"fp[{index}] iteration {run_count} value {value:.4f}")
            )
        return effects

    return body


def _make_integer_body(index: int):
    offset = index * 97

    def body(task: Task, now: float) -> List[TaskEffect]:
        run_count = task.run_count
        value = (run_count * 2654435761 + offset) % 104729
        effects = [TaskEffect(_COMPUTE, value=float(value))]
        if run_count % 100 == 0:
            effects.append(
                TaskEffect(kind=EffectKind.PRINT,
                           text=f"int[{index}] iteration {run_count} value {value}")
            )
        return effects

    return body


@WORKLOADS.register("paper", "freertos-paper")
def build_paper_workload(name: str = "FreeRTOS", *, seed: int = 0,
                         config: Optional[KernelConfig] = None) -> FreeRTOSKernel:
    """Build the FreeRTOS kernel loaded with the paper's task set."""
    kernel = FreeRTOSKernel(name, seed=seed, config=config)
    kernel.create_queue("tx", capacity=32)
    kernel.create_queue("rx", capacity=32)

    kernel.create_task(
        Task(name="blink", priority=3, period=0.5, body=_blink_body)
    )
    kernel.create_task(
        Task(name="sender", priority=4, period=0.1, body=_sender_body)
    )
    kernel.create_task(
        Task(name="receiver", priority=4, period=0.1, body=_receiver_body)
    )
    for index in range(NUM_FLOAT_TASKS):
        kernel.create_task(
            Task(name=f"float-{index}", priority=2, period=0.05,
                 body=_make_float_body(index))
        )
    for index in range(NUM_INTEGER_TASKS):
        kernel.create_task(
            Task(name=f"integer-{index}", priority=1, period=0.05,
                 body=_make_integer_body(index))
        )
    return kernel
