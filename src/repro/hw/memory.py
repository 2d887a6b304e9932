"""Physical memory map with permission-checked access.

The board exposes a flat 32-bit physical address space populated with
:class:`MemoryRegion` objects (DRAM, MMIO windows, boot ROM). Reads and writes
are checked against region boundaries and permission flags; violations raise
:class:`~repro.errors.MemoryAccessError`, which is how the hypervisor model
detects stage-2 faults and how the guest models detect wild pointers after a
register corruption.

Storage is sparse (page-granular dictionaries) so a 1 GB DRAM region costs
nothing until it is touched.

Dispatch is indexed: region lookup bisects over the sorted region starts
instead of scanning the region list, and the ``(region, mmio handler,
flags)`` resolution of each page is cached so repeated accesses to the same
page skip the permission re-checks. The dominant 1/2/4-byte aligned accesses
take a single-page fast path that avoids the generic chunked page walk and
its intermediate ``bytearray`` allocations. ``add_region``/``remove_region``
invalidate the caches.

:meth:`PhysicalMemory.snapshot_state` copies every resident page and
:meth:`PhysicalMemory.restore_state` rebuilds every page from the copy.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import MemoryAccessError, RegionOverlapError

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
_PAGE_MASK = PAGE_SIZE - 1


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

_READ_BIT = int(MemoryFlags.READ)
_WRITE_BIT = int(MemoryFlags.WRITE)
_EXECUTE_BIT = int(MemoryFlags.EXECUTE)
_IO_BIT = int(MemoryFlags.IO)


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

    def contains(self, address: int, size: int = 1) -> bool:
        """Whether ``[address, address+size)`` lies entirely inside the region."""
        return self.start <= address and address + size <= self.start + self.size

    def overlaps(self, other: "MemoryRegion") -> bool:
        """Whether this region shares any address with ``other``."""
        return self.start < other.end and other.start < self.end

    def permits(self, access: AccessType) -> bool:
        """Whether the region's flags allow ``access``."""
        return bool(int(self.flags) & ACCESS_BIT[access])

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


#: Cache sentinel for pages not fully owned by a single region (region
#: boundary inside the page, or no region at all): such pages always take the
#: generic checked path.
_UNCACHEABLE = None


class PhysicalMemory:
    """Sparse physical memory backed by named regions."""

    def __init__(self, regions: Optional[Iterable[MemoryRegion]] = None) -> None:
        self._regions: List[MemoryRegion] = []
        self._pages: Dict[int, bytearray] = {}
        self._mmio_handlers: Dict[str, "MmioHandler"] = {}
        #: Sorted region start addresses, parallel to ``self._regions``.
        # repro: allow[snapshot-complete] -- derived region index; restore_state rebuilds it via _reindex()
        self._starts: List[int] = []
        #: page index -> (region, handler-or-None, flags int) for pages fully
        #: inside one region, or ``_UNCACHEABLE`` for boundary/unmapped pages.
        # repro: allow[snapshot-complete] -- derived page lookup cache; restore_state rebuilds it via _reindex()
        self._page_cache: Dict[int, Optional[Tuple[MemoryRegion, Optional["MmioHandler"], int]]] = {}
        #: Pages copied by snapshots and restores (cumulative).
        self.snapshot_pages_copied = 0
        #: Pages a snapshot or restore shared instead of copying: always 0,
        #: since every page is copied; ``perfbench/tracer.py`` reads it.
        self.snapshot_pages_reused = 0
        if regions:
            for region in regions:
                self.add_region(region)

    # -- region management ---------------------------------------------------

    def _reindex(self) -> None:
        self._regions.sort(key=lambda r: r.start)
        self._starts = [r.start for r in self._regions]
        self._page_cache.clear()

    def add_region(self, region: MemoryRegion) -> None:
        """Register a region; overlapping regions are rejected."""
        for existing in self._regions:
            if existing.overlaps(region):
                raise RegionOverlapError(
                    f"region {region.name!r} overlaps {existing.name!r}"
                )
        self._regions.append(region)
        self._reindex()

    def remove_region(self, name: str) -> None:
        """Remove a region by name (its contents are dropped).

        Only pages fully owned by the removed region are evicted from the
        sparse store. A boundary page shared with an adjacent region (regions
        need not be page-aligned) is kept so the neighbour's bytes survive;
        the removed region's own bytes within such a page are zeroed instead.
        """
        region = self.find_region_by_name(name)
        if region is None:
            raise KeyError(f"no region named {name!r}")
        self._regions.remove(region)
        first_page = region.start >> PAGE_SHIFT
        last_page = (region.end - 1) >> PAGE_SHIFT
        for page in range(first_page, last_page + 1):
            page_start = page << PAGE_SHIFT
            page_end = page_start + PAGE_SIZE
            fully_owned = region.start <= page_start and page_end <= region.end
            if not fully_owned:
                # Another region may own part of this page; keep the page if
                # so, but zero out the removed region's slice of it.
                shared = any(
                    other.start < page_end and page_start < other.end
                    for other in self._regions
                )
                if shared:
                    stored = self._pages.get(page)
                    if stored is not None:
                        lo = max(region.start, page_start) - page_start
                        hi = min(region.end, page_end) - page_start
                        stored[lo:hi] = bytes(hi - lo)
                    continue
            self._pages.pop(page, None)
        self._reindex()

    @property
    def regions(self) -> Tuple[MemoryRegion, ...]:
        return tuple(self._regions)

    def find_region(self, address: int) -> Optional[MemoryRegion]:
        """Region containing ``address``, or ``None`` (bisect over starts)."""
        index = bisect_right(self._starts, address) - 1
        if index < 0:
            return None
        region = self._regions[index]
        if address < region.start + region.size:
            return region
        return None

    def find_region_by_name(self, name: str) -> Optional[MemoryRegion]:
        for region in self._regions:
            if region.name == name:
                return region
        return None

    def is_mapped(self, address: int, size: int = 1) -> bool:
        """Whether the whole access window lies inside a single region."""
        region = self.find_region(address)
        return region is not None and region.contains(address, size)

    # -- MMIO ------------------------------------------------------------------

    def attach_mmio(self, region_name: str, handler: "MmioHandler") -> None:
        """Attach an MMIO handler to an IO region."""
        region = self.find_region_by_name(region_name)
        if region is None:
            raise KeyError(f"no region named {region_name!r}")
        if not region.flags & MemoryFlags.IO:
            raise ValueError(f"region {region_name!r} is not an IO region")
        self._mmio_handlers[region_name] = handler
        self._page_cache.clear()

    # -- access ----------------------------------------------------------------

    def _check(self, address: int, size: int, access: AccessType) -> MemoryRegion:
        region = self.find_region(address)
        if region is None or not region.contains(address, size):
            raise MemoryAccessError(address, size, access.value, "address not mapped")
        if not int(region.flags) & ACCESS_BIT[access]:
            raise MemoryAccessError(
                address, size, access.value,
                f"permission denied in region {region.name!r}",
            )
        return region

    def _resolve_page(self, page: int):
        """Cache the (region, handler, flags) resolution of one page.

        Only pages lying entirely inside a single region are cached; pages
        crossing a region boundary (or outside every region) resolve to the
        ``_UNCACHEABLE`` sentinel and always take the generic path.
        """
        page_start = page << PAGE_SHIFT
        region = self.find_region(page_start)
        if region is None or region.end < page_start + PAGE_SIZE:
            entry = _UNCACHEABLE
        else:
            entry = (region, self._mmio_handlers.get(region.name), int(region.flags))
        self._page_cache[page] = entry
        return entry

    def read(self, address: int, size: int = 4) -> int:
        """Read ``size`` bytes as a little-endian integer."""
        # Single-page fast path for the dominant small aligned accesses.
        offset = address & _PAGE_MASK
        if offset + size <= PAGE_SIZE:
            page_index = address >> PAGE_SHIFT
            entry = self._page_cache.get(page_index, False)
            if entry is False:
                entry = self._resolve_page(page_index)
            if entry is not None:
                region, handler, flags = entry
                if not flags & _READ_BIT:
                    raise MemoryAccessError(
                        address, size, "read",
                        f"permission denied in region {region.name!r}",
                    )
                if handler is not None:
                    return handler.mmio_read(address - region.start, size)
                page = self._pages.get(page_index)
                if page is None:
                    return 0
                return int.from_bytes(page[offset:offset + size], "little")
        region = self._check(address, size, AccessType.READ)
        handler = self._mmio_handlers.get(region.name)
        if handler is not None:
            return handler.mmio_read(address - region.start, size)
        return int.from_bytes(self._read_bytes(address, size), "little")

    def write(self, address: int, value: int, size: int = 4) -> None:
        """Write ``size`` bytes of a little-endian integer."""
        offset = address & _PAGE_MASK
        if offset + size <= PAGE_SIZE:
            page_index = address >> PAGE_SHIFT
            entry = self._page_cache.get(page_index, False)
            if entry is False:
                entry = self._resolve_page(page_index)
            if entry is not None:
                region, handler, flags = entry
                if not flags & _WRITE_BIT:
                    raise MemoryAccessError(
                        address, size, "write",
                        f"permission denied in region {region.name!r}",
                    )
                if handler is not None:
                    handler.mmio_write(address - region.start, value, size)
                    return
                page = self._pages.get(page_index)
                if page is None:
                    page = self._pages[page_index] = bytearray(PAGE_SIZE)
                page[offset:offset + size] = int(value).to_bytes(
                    size, "little", signed=False
                )
                return
        region = self._check(address, size, AccessType.WRITE)
        handler = self._mmio_handlers.get(region.name)
        if handler is not None:
            handler.mmio_write(address - region.start, value, size)
            return
        self._write_bytes(address, int(value).to_bytes(size, "little", signed=False))

    def fetch(self, address: int, size: int = 4) -> int:
        """Instruction fetch: like read but requires EXECUTE permission.

        Fetching from an MMIO window is always an error: executing a device
        window is a wild-jump symptom the outcome classifier must see, so it
        raises :class:`MemoryAccessError` instead of silently reading the
        backing pages.
        """
        offset = address & _PAGE_MASK
        if offset + size <= PAGE_SIZE:
            page_index = address >> PAGE_SHIFT
            entry = self._page_cache.get(page_index, False)
            if entry is False:
                entry = self._resolve_page(page_index)
            if entry is not None:
                region, handler, flags = entry
                if not flags & _EXECUTE_BIT:
                    raise MemoryAccessError(
                        address, size, "execute",
                        f"permission denied in region {region.name!r}",
                    )
                if handler is not None or flags & _IO_BIT:
                    raise MemoryAccessError(
                        address, size, "execute",
                        f"instruction fetch from MMIO region {region.name!r}",
                    )
                page = self._pages.get(page_index)
                if page is None:
                    return 0
                return int.from_bytes(page[offset:offset + size], "little")
        region = self._check(address, size, AccessType.EXECUTE)
        if (region.name in self._mmio_handlers
                or int(region.flags) & _IO_BIT):
            raise MemoryAccessError(
                address, size, "execute",
                f"instruction fetch from MMIO region {region.name!r}",
            )
        return int.from_bytes(self._read_bytes(address, size), "little")

    def read_bytes(self, address: int, size: int) -> bytes:
        """Read a raw byte string."""
        self._check(address, size, AccessType.READ)
        return bytes(self._read_bytes(address, size))

    def write_bytes(self, address: int, data: bytes) -> None:
        """Write a raw byte string."""
        self._check(address, len(data), AccessType.WRITE)
        self._write_bytes(address, data)

    # -- sparse page storage -----------------------------------------------------

    def _read_bytes(self, address: int, size: int) -> bytearray:
        out = bytearray(size)
        offset = 0
        while offset < size:
            page_index = (address + offset) >> PAGE_SHIFT
            page_offset = (address + offset) & _PAGE_MASK
            chunk = min(size - offset, PAGE_SIZE - page_offset)
            page = self._pages.get(page_index)
            if page is not None:
                out[offset:offset + chunk] = page[page_offset:page_offset + chunk]
            offset += chunk
        return out

    def _write_bytes(self, address: int, data: bytes) -> None:
        offset = 0
        size = len(data)
        while offset < size:
            page_index = (address + offset) >> PAGE_SHIFT
            page_offset = (address + offset) & _PAGE_MASK
            chunk = min(size - offset, PAGE_SIZE - page_offset)
            page = self._pages.setdefault(page_index, bytearray(PAGE_SIZE))
            page[page_offset:page_offset + chunk] = data[offset:offset + chunk]
            offset += chunk

    # -- snapshot / restore --------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Capture regions, handler bindings and a copy of every page."""
        pages = {index: bytes(page) for index, page in self._pages.items()}
        self.snapshot_pages_copied += len(pages)
        return {
            "regions": tuple(self._regions),
            "handlers": dict(self._mmio_handlers),
            "pages": pages,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a prior :meth:`snapshot_state` in place, rebuilding every
        page from its copy."""
        self._regions = list(state["regions"])
        self._mmio_handlers = dict(state["handlers"])
        pages = state["pages"]
        self._pages = {index: bytearray(data) for index, data in pages.items()}
        self.snapshot_pages_copied += len(pages)
        self._reindex()

    # -- introspection -------------------------------------------------------------

    def resident_pages(self) -> int:
        """Number of pages actually allocated by sparse storage."""
        return len(self._pages)

    def describe_map(self) -> str:
        """Render the memory map as a table (one region per line)."""
        return "\n".join(region.describe() for region in self._regions)


class MmioHandler:
    """Protocol for devices mapped into IO regions."""

    def mmio_read(self, offset: int, size: int) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def mmio_write(self, offset: int, value: int, size: int) -> None:  # pragma: no cover
        raise NotImplementedError
