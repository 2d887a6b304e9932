"""Injection triggers.

A trigger decides *when* an armed injector fires. The paper's test plan uses
call-count triggers: "once every given number of calls to the target
functions" — one per 100 calls at medium intensity, one per 50 at high
intensity. Probabilistic and one-shot triggers support the ablations and the
targeted isolation experiments.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional

from repro.core.registry import TRIGGERS
from repro.errors import InjectionError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np


class Trigger(abc.ABC):
    """Decides whether an injection fires for a given handler call."""

    @abc.abstractmethod
    def should_fire(self, call_index: int, rng: np.random.Generator) -> bool:
        """``call_index`` is the 1-based count of *matching* handler calls."""

    def reset(self) -> None:
        """Reset internal state between experiments (default: nothing)."""

    def prefix_component(self) -> Optional[str]:
        """What the pre-injection prefix depends on for this trigger.

        ``None`` (the default, and correct for every call-count trigger)
        means the trigger only observes handler calls made *after* the
        injector is armed, so any trigger of any class can fork from the same
        pre-injection snapshot — the trigger contributes nothing to
        :meth:`~repro.core.experiment.ExperimentSpec.prefix_key`. A trigger
        that instead requires the prefix to be fast-forwarded to a specific
        point (say, an absolute arm time) must return that fast-forwardable
        coordinate here so specs differing in it land in different prefix
        families.
        """
        return None

    def describe(self) -> str:
        return type(self).__name__


class EveryNCalls(Trigger):
    """Fire once every ``n`` matching calls (the paper's rate-based trigger)."""

    def __init__(self, n: int, *, offset: int = 0) -> None:
        if n <= 0:
            raise InjectionError(f"call interval must be positive, got {n}")
        if offset < 0:
            raise InjectionError(f"offset must be non-negative, got {offset}")
        self.n = n
        self.offset = offset

    def should_fire(self, call_index: int, rng: np.random.Generator) -> bool:
        adjusted = call_index - self.offset
        return adjusted > 0 and adjusted % self.n == 0

    def describe(self) -> str:
        return f"every {self.n} calls"


class ProbabilisticTrigger(Trigger):
    """Fire independently with probability ``p`` on each matching call."""

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise InjectionError(
                f"probability must be within [0, 1], got {probability}"
            )
        self.probability = probability

    def should_fire(self, call_index: int, rng: np.random.Generator) -> bool:
        return bool(rng.random() < self.probability)

    def describe(self) -> str:
        return f"probability {self.probability:.3f} per call"


class OneShotAtCall(Trigger):
    """Fire exactly once, at the ``n``-th matching call."""

    def __init__(self, n: int = 1) -> None:
        if n <= 0:
            raise InjectionError(f"call index must be positive, got {n}")
        self.n = n
        self._fired = False

    def should_fire(self, call_index: int, rng: np.random.Generator) -> bool:
        if self._fired:
            return False
        if call_index >= self.n:
            self._fired = True
            return True
        return False

    def reset(self) -> None:
        self._fired = False

    def describe(self) -> str:
        return f"once at call {self.n}"


class BurstTrigger(Trigger):
    """Fire for ``burst`` consecutive calls every ``n`` calls (extension)."""

    def __init__(self, n: int, burst: int) -> None:
        if n <= 0 or burst <= 0:
            raise InjectionError("interval and burst length must be positive")
        if burst > n:
            raise InjectionError("burst length cannot exceed the interval")
        self.n = n
        self.burst = burst

    def should_fire(self, call_index: int, rng: np.random.Generator) -> bool:
        position = call_index % self.n
        return 0 < position <= self.burst

    def describe(self) -> str:
        return f"burst of {self.burst} every {self.n} calls"


# -- registry builders ----------------------------------------------------------------

@TRIGGERS.register("every-n-calls")
def build_every_n_calls(n: int, offset: int = 0) -> EveryNCalls:
    """Fire once every ``n`` matching calls (the paper's rate-based trigger)."""
    return EveryNCalls(n, offset=offset)


@TRIGGERS.register("probabilistic")
def build_probabilistic(probability: float) -> ProbabilisticTrigger:
    """Fire independently with ``probability`` on each matching call."""
    return ProbabilisticTrigger(probability)


@TRIGGERS.register("one-shot")
def build_one_shot(n: int = 1) -> OneShotAtCall:
    """Fire exactly once, at the ``n``-th matching call."""
    return OneShotAtCall(n)


@TRIGGERS.register("burst")
def build_burst(n: int, burst: int) -> BurstTrigger:
    """Fire for ``burst`` consecutive calls every ``n`` calls."""
    return BurstTrigger(n, burst)
