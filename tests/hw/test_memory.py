"""Tests for the physical memory map."""

import pytest

from repro.errors import RegionOverlapError
from repro.hw.memory import (
    ACCESS_BIT,
    AccessType,
    MemoryFlags,
    MemoryRegion,
    PhysicalMemory,
)


def make_memory() -> PhysicalMemory:
    return PhysicalMemory(
        [
            MemoryRegion("ram", 0x1000, 0x4000, MemoryFlags.RWX),
            MemoryRegion("rom", 0x8000, 0x1000, MemoryFlags.READ | MemoryFlags.EXECUTE),
            MemoryRegion("io", 0x10000, 0x100, MemoryFlags.RW | MemoryFlags.IO),
        ]
    )


class TestMemoryRegion:
    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            MemoryRegion("bad", 0, 0)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            MemoryRegion("bad", -4, 16)

    def test_overlap_detection(self):
        a = MemoryRegion("a", 0x100, 0x100)
        b = MemoryRegion("b", 0x180, 0x100)
        c = MemoryRegion("c", 0x200, 0x100)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_end_is_the_first_address_after_the_region(self):
        region = MemoryRegion("r", 0x100, 0x10)
        assert region.end == 0x110

    def test_adjacent_regions_do_not_overlap(self):
        low = MemoryRegion("low", 0x100, 0x100)
        high = MemoryRegion("high", 0x200, 0x100)
        assert not low.overlaps(high)
        assert not high.overlaps(low)

    def test_a_contained_region_overlaps_its_container(self):
        outer = MemoryRegion("outer", 0x1000, 0x1000)
        inner = MemoryRegion("inner", 0x1400, 0x10)
        assert outer.overlaps(inner)
        assert inner.overlaps(outer)

    def test_describe_contains_name_and_range(self):
        text = MemoryRegion("dram", 0x1000, 0x1000, MemoryFlags.RWX).describe()
        assert "dram" in text
        assert "0x00001000" in text

    @pytest.mark.parametrize("flags, letters", [
        (MemoryFlags.RWX, "rwx-"),
        (MemoryFlags.READ | MemoryFlags.EXECUTE, "r-x-"),
        (MemoryFlags.RW | MemoryFlags.IO, "rw-i"),
        (MemoryFlags.READ, "r---"),
    ])
    def test_describe_renders_the_permission_letters(self, flags, letters):
        text = MemoryRegion("r", 0x10, 0x10, flags).describe()
        assert text.endswith(f"0x00000010-0x0000001f {letters}")


class TestAccessType:
    @pytest.mark.parametrize("access, flag", [
        (AccessType.READ, MemoryFlags.READ),
        (AccessType.WRITE, MemoryFlags.WRITE),
        (AccessType.EXECUTE, MemoryFlags.EXECUTE),
    ])
    def test_access_bit_is_the_required_flag(self, access, flag):
        # Stage-2 checks test ACCESS_BIT on plain ints; it must agree with
        # the flag each access type requires.
        assert access.required_flag() is flag
        assert ACCESS_BIT[access] == int(flag)


class TestRegionManagement:
    def test_overlapping_regions_are_rejected(self):
        memory = make_memory()
        with pytest.raises(RegionOverlapError):
            memory.add_region(MemoryRegion("clash", 0x2000, 0x100))

    def test_regions_are_sorted_by_start_whatever_the_insertion_order(self):
        memory = PhysicalMemory()
        memory.add_region(MemoryRegion("io", 0x10000, 0x100, MemoryFlags.RW | MemoryFlags.IO))
        memory.add_region(MemoryRegion("ram", 0x1000, 0x4000, MemoryFlags.RWX))
        memory.add_region(MemoryRegion("rom", 0x8000, 0x1000, MemoryFlags.READ))
        assert [region.start for region in memory.regions] == [0x1000, 0x8000, 0x10000]

    def test_a_rejected_region_leaves_the_map_unchanged(self):
        memory = make_memory()
        before = memory.regions
        with pytest.raises(RegionOverlapError):
            memory.add_region(MemoryRegion("clash", 0x8800, 0x10000))
        assert memory.regions == before
        assert memory.find_region_by_name("clash") is None

    def test_a_region_may_start_where_another_ends(self):
        memory = make_memory()
        memory.add_region(MemoryRegion("tail", 0x5000, 0x1000))
        assert [region.name for region in memory.regions] == ["ram", "tail", "rom", "io"]

    def test_find_region_by_name(self):
        memory = make_memory()
        assert memory.find_region_by_name("rom").start == 0x8000
        assert memory.find_region_by_name("nope") is None

    def test_restore_drops_a_region_added_after_the_snapshot(self):
        memory = make_memory()
        state = memory.snapshot_state()
        memory.add_region(MemoryRegion("late", 0x20000, 0x100))
        memory.restore_state(state)
        assert memory.find_region_by_name("late") is None
        assert [region.name for region in memory.regions] == ["ram", "rom", "io"]
        # The restored map accepts the region again: nothing of it remains.
        memory.add_region(MemoryRegion("late", 0x20000, 0x100))

    def test_snapshot_is_immune_to_later_additions(self):
        memory = make_memory()
        state = memory.snapshot_state()
        memory.add_region(MemoryRegion("late", 0x20000, 0x100))
        assert [region.name for region in state["regions"]] == ["ram", "rom", "io"]

    def test_interleaved_snapshots_stay_independent(self):
        memory = make_memory()
        snap_a = memory.snapshot_state()
        memory.add_region(MemoryRegion("b", 0x20000, 0x100))
        snap_b = memory.snapshot_state()
        memory.add_region(MemoryRegion("c", 0x30000, 0x100))

        memory.restore_state(snap_a)
        assert [region.name for region in memory.regions] == ["ram", "rom", "io"]
        memory.restore_state(snap_b)
        assert [region.name for region in memory.regions] == ["ram", "rom", "io", "b"]
        # Restoring the older snapshot again after the newer one.
        memory.restore_state(snap_a)
        assert memory.find_region_by_name("b") is None

    def test_snapshot_page_counters_stay_zero(self):
        # No region holds pages, so a snapshot or restore never copies or
        # shares one; the counters stay for the benchmark tracer to read.
        memory = make_memory()
        state = memory.snapshot_state()
        memory.restore_state(state)
        memory.snapshot_state()
        assert memory.snapshot_pages_copied == 0
        assert memory.snapshot_pages_reused == 0

    def test_describe_map_lists_all_regions(self):
        text = make_memory().describe_map()
        assert "ram" in text and "rom" in text and "io" in text

    def test_describe_map_has_one_line_per_region_in_address_order(self):
        memory = make_memory()
        lines = memory.describe_map().splitlines()
        assert lines == [region.describe() for region in memory.regions]
        assert [line.split()[0] for line in lines] == ["ram", "rom", "io"]
        assert PhysicalMemory().describe_map() == ""
