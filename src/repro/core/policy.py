"""The execution policy every campaign runs under.

Injected faults are *designed* to make the simulated system misbehave, so an
experiment that hangs, raises, or takes its worker process down with it is an
expected operating condition of a campaign, not an exceptional one. Every
caller — ``Campaign.run``, :class:`~repro.engine.runner.CampaignEngine`, each
CLI campaign subcommand and the fleet worker — therefore runs supervised,
under one :class:`RunPolicy`: a failing spec is retried, and a spec that
fails every attempt becomes an ``infra_*`` record instead of aborting the
campaign.

The policy lives in ``core`` rather than next to the supervisor because
campaign configs (:mod:`repro.core.config`) and ``Campaign.run`` carry it as
plain data; :mod:`repro.engine` enforces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import CampaignError


@dataclass(frozen=True)
class RunPolicy:
    """Fault-tolerance policy for campaign execution.

    ``timeout_s`` is the per-experiment wall-clock budget (``None``: no
    watchdog). ``retries`` is the number of *additional* attempts a spec gets
    after its first failure (crash, hang, or in-experiment exception) before
    it is quarantined; retried specs re-run with their original seed, so a
    retry that succeeds is bit-identical to a run that never failed.
    ``max_worker_restarts`` is the campaign-wide budget of unexpected worker
    respawns. The remaining fields tune retry backoff and the pool's polling
    and shutdown.

    Values are checked once, at construction: a bad one raises
    :class:`~repro.errors.CampaignError`.
    """

    timeout_s: Optional[float] = None
    retries: int = 1
    backoff_s: float = 0.25
    backoff_cap_s: float = 5.0
    max_worker_restarts: int = 8
    poll_s: float = 0.05
    shutdown_grace_s: float = 5.0

    def __post_init__(self) -> None:
        if self.timeout_s is not None and not 0 < self.timeout_s < math.inf:
            raise CampaignError(
                f"timeout_s must be a positive number of seconds, "
                f"got {self.timeout_s}")
        if self.retries < 0:
            raise CampaignError(
                f"retries must be >= 0, got {self.retries}")
        if self.max_worker_restarts < 0:
            raise CampaignError(
                f"max_worker_restarts must be >= 0, "
                f"got {self.max_worker_restarts}")
        if self.backoff_s < 0:
            raise CampaignError(
                f"backoff_s must be >= 0, got {self.backoff_s}")
