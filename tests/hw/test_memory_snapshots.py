"""Snapshots of :class:`PhysicalMemory`.

A snapshot must always read back as a full page image and a restore must
always reproduce it exactly, no matter how snapshots and writes interleave.
"""

import pytest

from repro.errors import MemoryAccessError
from repro.hw.memory import (
    MemoryFlags,
    MemoryRegion,
    PhysicalMemory,
)

BASE = 0x4000_0000


def make_memory() -> PhysicalMemory:
    return PhysicalMemory([
        MemoryRegion("dram", BASE, 1 << 24, MemoryFlags.RWX),
        MemoryRegion("sram", 0x0, 0x4000, MemoryFlags.RW),
    ])


class TestSnapshotCorrectness:
    def test_snapshot_restore_round_trip(self):
        memory = make_memory()
        for page in range(8):
            memory.write(BASE + page * 4096, 0x1111 * (page + 1), 4)
        state = memory.snapshot_state()
        for page in range(8):
            memory.write(BASE + page * 4096, 0xDEAD_BEEF, 4)
        memory.restore_state(state)
        for page in range(8):
            assert memory.read(BASE + page * 4096, 4) == 0x1111 * (page + 1)

    def test_interleaved_snapshots_stay_independent(self):
        memory = make_memory()
        memory.write(BASE, 0xAAAA, 4)
        snap_a = memory.snapshot_state()
        memory.write(BASE, 0xBBBB, 4)
        memory.write(BASE + 4096, 0xCCCC, 4)
        snap_b = memory.snapshot_state()
        memory.write(BASE + 8192, 0xDDDD, 4)

        memory.restore_state(snap_a)
        assert memory.read(BASE, 4) == 0xAAAA
        assert memory.read(BASE + 4096, 4) == 0
        assert memory.read(BASE + 8192, 4) == 0

        memory.restore_state(snap_b)
        assert memory.read(BASE, 4) == 0xBBBB
        assert memory.read(BASE + 4096, 4) == 0xCCCC
        assert memory.read(BASE + 8192, 4) == 0

        # Restoring the older snapshot again after the newer one.
        memory.restore_state(snap_a)
        assert memory.read(BASE, 4) == 0xAAAA
        assert memory.read(BASE + 4096, 4) == 0

    def test_write_bytes_across_pages_is_restored(self):
        memory = make_memory()
        memory.write_bytes(BASE + 4090, bytes(range(16)))   # straddles a page
        state = memory.snapshot_state()
        memory.write_bytes(BASE + 4090, b"\xff" * 16)
        memory.restore_state(state)
        assert memory.read_bytes(BASE + 4090, 16) == bytes(range(16))

    def test_pages_created_after_a_snapshot_are_dropped_on_restore(self):
        memory = make_memory()
        memory.write(BASE, 1, 4)
        state = memory.snapshot_state()
        memory.write(BASE + 16 * 4096, 2, 4)
        assert memory.resident_pages() == 2
        memory.restore_state(state)
        assert memory.resident_pages() == 1
        assert memory.read(BASE + 16 * 4096, 4) == 0

    def test_remove_region_interplay(self):
        memory = PhysicalMemory([
            MemoryRegion("left", 0x0, 0x1800, MemoryFlags.RW),
            MemoryRegion("right", 0x1800, 0x800, MemoryFlags.RW),
        ])
        memory.write(0x1000, 0xAB, 1)        # page shared by both regions
        memory.write(0x1C00, 0xCD, 1)
        memory.snapshot_state()
        memory.remove_region("right")        # zeroes its slice of the page
        state = memory.snapshot_state()
        assert state["pages"][1][0xC00] == 0
        assert state["pages"][1][0x000] == 0xAB

    def test_snapshot_is_immune_to_later_writes(self):
        memory = make_memory()
        memory.write(BASE, 0x1234, 4)
        state = memory.snapshot_state()
        memory.write(BASE, 0x9999, 4)
        # The captured image must not alias the live page.
        page = state["pages"][BASE >> 12]
        assert int.from_bytes(page[0:4], "little") == 0x1234

    def test_permissions_still_enforced_after_restore(self):
        memory = make_memory()
        memory.write(BASE, 1, 4)
        state = memory.snapshot_state()
        memory.restore_state(state)
        with pytest.raises(MemoryAccessError):
            memory.fetch(0x100, 4)           # sram is RW, not executable


class TestSnapshotCounters:
    def test_copy_counter_counts_every_page(self):
        memory = make_memory()
        for page in range(16):
            memory.write(BASE + page * 4096, page, 4)
        state = memory.snapshot_state()
        assert memory.snapshot_pages_copied == 16
        memory.write(BASE + 4096, 7, 4)
        memory.snapshot_state()
        assert memory.snapshot_pages_copied == 32
        memory.restore_state(state)
        assert memory.snapshot_pages_copied == 48
        assert memory.snapshot_pages_reused == 0
