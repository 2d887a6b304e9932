"""Bao-like static partitioning baseline.

Bao (Martins et al., NG-RES 2020) is the other open-source static partitioning
hypervisor the paper discusses: a small codebase that does not depend on Linux
to boot and manage partitions. For the isolation comparison, the property that
matters is its containment policy: a guest that takes an unrecoverable fault
is stopped without bringing down the other partitions.

The baseline reuses the same board, guests, and workload as the Jailhouse
system under test — only the containment policy differs — so outcome
differences in the comparison bench are attributable to that policy alone.
The "no Linux root dependency" difference is out of scope for these
experiments and is documented rather than modeled.
"""

from __future__ import annotations

from typing import Optional

from repro.core.registry import SUTS
from repro.core.sut import JailhouseSUT, SutConfig, SystemUnderTest
from repro.hypervisor.cli import JailhouseCli
from repro.hypervisor.core import Hypervisor


class BaoLikeSUT(JailhouseSUT):
    """Static partitioning hypervisor with per-cell fault containment."""

    name = "bao-like"

    def __init__(self, config: Optional[SutConfig] = None) -> None:
        super().__init__(config)
        # Replace the hypervisor with one configured for containment; the
        # management front-end must point at the new instance.
        self.hypervisor = Hypervisor(self.board, contains_guest_faults=True)
        self.cli = JailhouseCli(self.hypervisor)


def bao_sut_factory(seed: int) -> SystemUnderTest:
    """SUT factory for campaigns against the Bao-like baseline."""
    return BaoLikeSUT(SutConfig(seed=seed))


@SUTS.register("bao-like", "bao")
def build_bao_like_sut(seed: int = 0, **config_params) -> BaoLikeSUT:
    """Bao-like containment baseline: guest faults kill only the offending cell."""
    return BaoLikeSUT(SutConfig(seed=seed, **config_params))
