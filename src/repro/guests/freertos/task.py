"""FreeRTOS-style task model.

Tasks are periodic: each has a priority, a release period, and a body that
runs when the scheduler picks it. Bodies return :class:`TaskEffect` objects —
console prints, LED toggles, queue operations, ivshmem messages — which the
kernel turns into observable behaviour and, for some of them, into hypervisor
traps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import SchedulerError


class TaskState(enum.Enum):
    """FreeRTOS task states."""

    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    SUSPENDED = "suspended"
    DELETED = "deleted"


class EffectKind(enum.Enum):
    """Kinds of observable effects a task body may produce."""

    PRINT = "print"
    LED_TOGGLE = "led_toggle"
    QUEUE_SEND = "queue_send"
    QUEUE_RECEIVE = "queue_receive"
    IVSHMEM_SEND = "ivshmem_send"


@dataclass(slots=True)
class TaskEffect:
    """One effect produced by a task body."""

    kind: EffectKind
    text: str = ""
    queue_name: str = ""
    payload: Any = None


#: Signature of a task body: ``body(task, now) -> sequence of effects``.
TaskBody = Callable[["Task", float], Sequence[TaskEffect]]


@dataclass
class Task:
    """A periodic FreeRTOS task."""

    name: str
    priority: int
    period: float
    body: TaskBody
    state: TaskState = TaskState.BLOCKED
    next_release: float = 0.0
    run_count: int = 0
    missed_deadlines: int = 0
    stack_words: int = 128

    def __post_init__(self) -> None:
        if not self.name:
            raise SchedulerError("task name must not be empty")
        if self.priority < 0:
            raise SchedulerError(f"task {self.name!r} must have priority >= 0")
        if self.period <= 0:
            raise SchedulerError(f"task {self.name!r} must have a positive period")

    def release_if_due(self, now: float) -> bool:
        """Move the task to READY if its period has elapsed."""
        if self.state in (TaskState.SUSPENDED, TaskState.DELETED):
            return False
        if self.state is TaskState.READY:
            return False
        if now + 1e-12 >= self.next_release:
            # Detect overruns: if we are a whole period late, a deadline was missed.
            if self.run_count and now - self.next_release >= self.period:
                self.missed_deadlines += 1
            self.state = TaskState.READY
            return True
        return False

    def run(self, now: float) -> Sequence[TaskEffect]:
        """Execute the task body once and block until the next period."""
        if self.state is not TaskState.READY:
            raise SchedulerError(
                f"task {self.name!r} cannot run from state {self.state.value}"
            )
        self.state = TaskState.RUNNING
        self.run_count += 1
        effects = self.body(self, now)
        self.state = TaskState.BLOCKED
        self.next_release = now + self.period
        return effects

    def snapshot_state(self) -> tuple:
        """Capture the scheduler-visible state of the task."""
        return (self.state, self.next_release, self.run_count,
                self.missed_deadlines)

    def restore_state(self, state: tuple) -> None:
        """Restore a prior :meth:`snapshot_state` in place."""
        (self.state, self.next_release, self.run_count,
         self.missed_deadlines) = state

    def suspend(self) -> None:
        self.state = TaskState.SUSPENDED

    def resume(self, now: float) -> None:
        if self.state is TaskState.SUSPENDED:
            self.state = TaskState.BLOCKED
            self.next_release = now

    def delete(self) -> None:
        self.state = TaskState.DELETED
