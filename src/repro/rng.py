"""Seeded random generators, the one place that imports numpy.

Every draw an experiment makes comes from a generator :func:`seeded_rng`
creates: the guests' streams (``GuestOS.rng``, re-seeded by
``JailhouseSUT.reset_for_seed``), the fault injector's, and random sampling
in ``CampaignConfig.compile``. numpy is imported by the first call, not by
``import repro``: reading records (``analyze``, ``report``, ``compare``),
``list`` and ``check`` never draw, so they run without numpy installed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import DependencyError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from numpy.random import Generator


def seeded_rng(seed) -> "Generator":
    """``numpy.random.default_rng(seed)``, importing numpy on the first call."""
    try:
        from numpy.random import default_rng
    except ImportError as exc:
        raise DependencyError(
            f"running experiments needs numpy, which cannot be imported "
            f"({exc}); install numpy, or use analyze, report, compare, list "
            f"and check, which work without it") from None
    return default_rng(seed)

