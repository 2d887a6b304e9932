"""Physical memory map of the board.

The board exposes a flat 32-bit physical address space laid out as named
:class:`MemoryRegion` objects (DRAM, MMIO windows, boot SRAM), each with its
permission flags. The map holds the layout only: no region stores data.
Cell isolation is decided by each cell's stage-2 map
(:mod:`repro.hypervisor.paging`), which reuses :class:`MemoryFlags`,
:class:`AccessType` and :data:`ACCESS_BIT` from here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import RegionOverlapError


class MemoryFlags(enum.IntFlag):
    """Access permissions and attributes of a memory region."""

    READ = 1
    WRITE = 2
    EXECUTE = 4
    IO = 8
    RW = READ | WRITE
    RWX = READ | WRITE | EXECUTE


class AccessType(enum.Enum):
    """Kind of memory access being performed."""

    READ = "read"
    WRITE = "write"
    EXECUTE = "execute"

    def required_flag(self) -> MemoryFlags:
        if self is AccessType.READ:
            return MemoryFlags.READ
        if self is AccessType.WRITE:
            return MemoryFlags.WRITE
        return MemoryFlags.EXECUTE


#: Plain-int permission bit per access type; ``IntFlag.__and__`` goes through
#: the enum machinery, which is far too slow for the per-access hot path.
ACCESS_BIT: Dict[AccessType, int] = {
    AccessType.READ: int(MemoryFlags.READ),
    AccessType.WRITE: int(MemoryFlags.WRITE),
    AccessType.EXECUTE: int(MemoryFlags.EXECUTE),
}


@dataclass(frozen=True)
class MemoryRegion:
    """A contiguous region of the physical address space."""

    name: str
    start: int
    size: int
    flags: MemoryFlags = MemoryFlags.RW

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"region {self.name!r} must have positive size")
        if self.start < 0:
            raise ValueError(f"region {self.name!r} must have non-negative start")

    @property
    def end(self) -> int:
        """First address *after* the region."""
        return self.start + self.size

    def overlaps(self, other: "MemoryRegion") -> bool:
        """Whether this region shares any address with ``other``."""
        return self.start < other.end and other.start < self.end

    def describe(self) -> str:
        perm = "".join(
            letter if self.flags & flag else "-"
            for letter, flag in (
                ("r", MemoryFlags.READ),
                ("w", MemoryFlags.WRITE),
                ("x", MemoryFlags.EXECUTE),
                ("i", MemoryFlags.IO),
            )
        )
        return f"{self.name:<24} 0x{self.start:08x}-0x{self.end - 1:08x} {perm}"


class PhysicalMemory:
    """The board's named regions, sorted by start address."""

    def __init__(self, regions: Optional[Iterable[MemoryRegion]] = None) -> None:
        self._regions: List[MemoryRegion] = []
        # Both counters stay 0: no region holds pages to copy or share.
        # perfbench's tracer wraps snapshot_state/restore_state and reads
        # them, so they go together with those two methods.
        self.snapshot_pages_copied = 0
        self.snapshot_pages_reused = 0
        if regions:
            for region in regions:
                self.add_region(region)

    def add_region(self, region: MemoryRegion) -> None:
        """Register a region; overlapping regions are rejected."""
        for existing in self._regions:
            if existing.overlaps(region):
                raise RegionOverlapError(
                    f"region {region.name!r} overlaps {existing.name!r}"
                )
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.start)

    @property
    def regions(self) -> Tuple[MemoryRegion, ...]:
        return tuple(self._regions)

    def find_region_by_name(self, name: str) -> Optional[MemoryRegion]:
        for region in self._regions:
            if region.name == name:
                return region
        return None

    def snapshot_state(self) -> dict:
        """Capture the region list."""
        return {"regions": tuple(self._regions)}

    def restore_state(self, state: dict) -> None:
        """Restore a prior :meth:`snapshot_state` in place."""
        self._regions = list(state["regions"])

    def describe_map(self) -> str:
        """Render the memory map as a table (one region per line)."""
        return "\n".join(region.describe() for region in self._regions)
