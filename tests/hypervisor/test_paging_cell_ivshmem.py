"""Tests for stage-2 paging, the cell state machine, and ivshmem."""

import pytest

from repro.errors import CellStateError, ConfigurationError, HypervisorError, IsolationViolationError
from repro.hw.gic import Gic
from repro.hw.memory import AccessType, MemoryFlags
from repro.hypervisor.cell import Cell, CellState, LoadedImage
from repro.hypervisor.config import MemoryAssignment, freertos_cell_config
from repro.hypervisor.ivshmem import IvshmemChannel
from repro.hypervisor.paging import (
    CellMemoryMap,
    Stage2Mapping,
    check_host_exclusivity,
)


def make_map(name: str = "cell", base: int = 0x7800_0000,
             shared: bool = False) -> CellMemoryMap:
    return CellMemoryMap(
        name,
        [
            Stage2Mapping("ram", 0x0, base, 1 << 20, MemoryFlags.RWX),
            Stage2Mapping("shm", 0x3000_0000, 0x7BF0_0000, 0x10_0000,
                          MemoryFlags.RW, shared=shared),
        ],
    )


class TestStage2:
    def test_translate_applies_offset(self):
        mapping = Stage2Mapping("ram", 0x0, 0x7800_0000, 0x1000, MemoryFlags.RWX)
        assert mapping.translate(0x100) == 0x7800_0100

    def test_translate_outside_mapping_raises(self):
        mapping = Stage2Mapping("ram", 0x0, 0x7800_0000, 0x1000, MemoryFlags.RWX)
        with pytest.raises(IsolationViolationError):
            mapping.translate(0x2000)

    def test_contains_virt_is_end_exclusive(self):
        mapping = Stage2Mapping("ram", 0x100, 0x7800_0000, 0x10, MemoryFlags.RW)
        assert mapping.contains_virt(0x100)
        assert mapping.contains_virt(0x10F)
        assert not mapping.contains_virt(0x110)
        assert not mapping.contains_virt(0x0FF)
        assert not mapping.contains_virt(0x10C, size=8)   # crosses the end

    def test_permits_follows_the_mapping_flags(self):
        mapping = Stage2Mapping("ro", 0x0, 0x7800_0000, 0x10, MemoryFlags.READ)
        assert mapping.permits(AccessType.READ)
        assert not mapping.permits(AccessType.WRITE)
        assert not mapping.permits(AccessType.EXECUTE)

    def test_from_assignment_copies_fields(self):
        assignment = MemoryAssignment("ram", 0x10, 0x20, 0x30,
                                      MemoryFlags.RW, shared=True)
        mapping = Stage2Mapping.from_assignment(assignment)
        assert (mapping.virt_start, mapping.phys_start, mapping.size) == (0x10, 0x20, 0x30)
        assert mapping.shared

    def test_overlapping_mappings_rejected(self):
        cell_map = make_map()
        with pytest.raises(ConfigurationError):
            cell_map.add(Stage2Mapping("dup", 0x800, 0x9000_0000, 0x1000,
                                       MemoryFlags.RW))

    def test_is_mapped_checks_permissions(self):
        cell_map = make_map()
        assert cell_map.is_mapped(0x100, 4, AccessType.WRITE)
        assert cell_map.is_executable(0x100)
        assert not cell_map.is_executable(0x3000_0000)   # shm is not executable
        assert not cell_map.is_mapped(0x5000_0000, 4)

    def test_find_returns_the_containing_mapping(self):
        cell_map = make_map()
        assert cell_map.find(0x10).name == "ram"
        assert cell_map.find(0x3000_0000, 8).name == "shm"
        assert cell_map.find(0x2000_0000) is None

    def test_is_mapped_rejects_a_window_crossing_a_mapping_end(self):
        cell_map = CellMemoryMap("c", [
            Stage2Mapping("low", 0x0, 0x7800_0000, 0x1000, MemoryFlags.RW),
            Stage2Mapping("high", 0x1000, 0x7900_0000, 0x1000, MemoryFlags.RW),
        ])
        assert cell_map.is_mapped(0xFFC, 4)
        assert cell_map.is_mapped(0x1000, 4)
        # Adjacent mappings are two windows, not one: no access spans both.
        assert not cell_map.is_mapped(0xFFE, 4)
        assert cell_map.find(0xFFE, 4) is None
        assert not cell_map.is_mapped(0x1FFE, 4)

    def test_a_read_only_mapping_refuses_writes_and_fetches(self):
        cell_map = CellMemoryMap("c", [
            Stage2Mapping("rom", 0x0, 0x7800_0000, 0x1000, MemoryFlags.READ),
        ])
        assert cell_map.is_mapped(0x10, 4, AccessType.READ)
        assert not cell_map.is_mapped(0x10, 4, AccessType.WRITE)
        assert not cell_map.is_mapped(0x10, 4, AccessType.EXECUTE)
        assert not cell_map.is_executable(0x10)

    def test_is_executable_needs_the_whole_word_inside_the_mapping(self):
        cell_map = make_map()
        assert cell_map.is_executable((1 << 20) - 4)
        assert not cell_map.is_executable((1 << 20) - 2)

    def test_a_stage2_fault_names_the_cell_and_the_address(self):
        with pytest.raises(IsolationViolationError) as excinfo:
            make_map("freertos").translate(0xDEAD_0000)
        assert "'freertos'" in str(excinfo.value)
        assert "0xdead0000" in str(excinfo.value)

    def test_mappings_are_sorted_by_guest_address(self):
        cell_map = CellMemoryMap("c", [
            Stage2Mapping("b", 0x2000, 0x7900_0000, 0x1000, MemoryFlags.RW),
            Stage2Mapping("a", 0x0, 0x7800_0000, 0x1000, MemoryFlags.RW),
        ])
        cell_map.add(Stage2Mapping("m", 0x1000, 0x7A00_0000, 0x1000, MemoryFlags.RW))
        assert [m.name for m in cell_map.mappings] == ["a", "m", "b"]

    def test_ram_view_follows_add_and_remove(self):
        cell_map = make_map()
        assert [m.name for m in cell_map.ram_mappings()] == ["ram", "shm"]
        cell_map.add(Stage2Mapping("uart", 0x01C2_8000, 0x01C2_8000, 0x400,
                                   MemoryFlags.RW | MemoryFlags.IO))
        cell_map.add(Stage2Mapping("extra", 0x4000_0000, 0x7A00_0000, 0x1000,
                                   MemoryFlags.RW))
        assert [m.name for m in cell_map.ram_mappings()] == ["ram", "shm", "extra"]
        assert [m.name for m in cell_map.io_mappings()] == ["uart"]
        cell_map.remove("shm")
        assert [m.name for m in cell_map.ram_mappings()] == ["ram", "extra"]
        assert not cell_map.is_mapped(0x3000_0000, 4)

    def test_translate_through_the_map(self):
        cell_map = make_map()
        assert cell_map.translate(0x10) == 0x7800_0010
        with pytest.raises(IsolationViolationError):
            cell_map.translate(0xFFFF_0000)

    def test_ram_and_io_mapping_views(self):
        cell_map = CellMemoryMap.from_assignments("c", freertos_cell_config().memory)
        assert any(m.name == "uart0" for m in cell_map.io_mappings())
        assert all(not (m.flags & MemoryFlags.IO) for m in cell_map.ram_mappings())

    def test_remove_mapping(self):
        cell_map = make_map()
        cell_map.remove("shm")
        assert cell_map.find_by_name("shm") is None
        with pytest.raises(KeyError):
            cell_map.remove("shm")

    def test_host_exclusivity_accepts_disjoint_cells(self):
        check_host_exclusivity([make_map("a", 0x7800_0000, shared=True),
                                make_map("b", 0x7900_0000, shared=True)])

    def test_host_exclusivity_rejects_unshared_overlap(self):
        with pytest.raises(IsolationViolationError):
            check_host_exclusivity([make_map("a", 0x7800_0000),
                                    make_map("b", 0x7800_0000)])

    def test_host_exclusivity_allows_mutually_shared_overlap(self):
        check_host_exclusivity([make_map("a", 0x7800_0000, shared=True),
                                make_map("b", 0x7900_0000, shared=True)])


class TestCellStateMachine:
    def make_cell(self) -> Cell:
        return Cell(1, freertos_cell_config())

    def test_new_cell_is_shut_down(self):
        cell = self.make_cell()
        assert cell.state is CellState.SHUT_DOWN
        assert not cell.state.is_running
        assert cell.is_consistent()

    def test_mark_running_and_double_start_rejected(self):
        cell = self.make_cell()
        cell.mark_running()
        assert cell.state.is_running
        with pytest.raises(CellStateError):
            cell.mark_running()

    def test_state_history_tracks_transitions(self):
        cell = self.make_cell()
        cell.mark_running()
        cell.mark_shut_down()
        assert cell.state_history == [
            CellState.SHUT_DOWN, CellState.RUNNING, CellState.SHUT_DOWN,
        ]
        assert cell.stats.state_transitions == 2

    def test_load_image_into_loadable_region(self):
        cell = self.make_cell()
        cell.load_image(LoadedImage("ram", entry_point=0x0, size=4096))
        assert cell.entry_point() == 0x0

    def test_load_rejects_running_cell(self):
        cell = self.make_cell()
        cell.mark_running()
        with pytest.raises(CellStateError):
            cell.load_image(LoadedImage("ram", 0x0, 4096))

    def test_load_rejects_unknown_or_non_loadable_region(self):
        cell = self.make_cell()
        with pytest.raises(CellStateError):
            cell.load_image(LoadedImage("ghost", 0x0, 16))
        with pytest.raises(CellStateError):
            cell.load_image(LoadedImage("uart0", 0x0, 16))

    def test_load_rejects_oversized_image(self):
        cell = self.make_cell()
        with pytest.raises(CellStateError):
            cell.load_image(LoadedImage("ram", 0x0, 10 << 20))

    def test_cpu_online_tracking_and_consistency(self):
        cell = self.make_cell()
        cell.mark_running()
        assert not cell.is_consistent()     # running with no online CPUs
        cell.cpu_online(1)
        assert cell.is_consistent()
        cell.cpu_offline(1)
        assert not cell.is_consistent()

    def test_cpu_online_rejects_foreign_cpu(self):
        with pytest.raises(CellStateError):
            self.make_cell().cpu_online(0)

    def test_shut_down_clears_online_cpus(self):
        cell = self.make_cell()
        cell.mark_running()
        cell.cpu_online(1)
        cell.mark_shut_down()
        assert not cell.online_cpus
        assert cell.is_consistent()

    def test_describe_lists_name_state_cpus(self):
        text = self.make_cell().describe()
        assert "FreeRTOS" in text
        assert "shut down" in text
        assert "1" in text


class TestIvshmem:
    def make_channel(self, gic: Gic | None = None) -> IvshmemChannel:
        return IvshmemChannel("chan", "root", "inmate", capacity=2,
                              doorbell_irq=155, gic=gic)

    def test_peers_must_differ_and_capacity_positive(self):
        with pytest.raises(HypervisorError):
            IvshmemChannel("x", "a", "a")
        with pytest.raises(HypervisorError):
            IvshmemChannel("x", "a", "b", capacity=0)

    def test_send_receive_fifo_order(self):
        channel = self.make_channel()
        channel.send("root", b"one")
        channel.send("root", b"two")
        first = channel.receive("inmate")
        second = channel.receive("inmate")
        assert (first.payload, second.payload) == (b"one", b"two")
        assert first.sequence < second.sequence
        assert channel.receive("inmate") is None

    def test_capacity_limit_drops_excess_messages(self):
        channel = self.make_channel()
        assert channel.send("root", b"1")
        assert channel.send("root", b"2")
        assert not channel.send("root", b"3")
        assert channel.dropped == 1
        assert channel.pending("inmate") == 2

    def test_non_peer_access_is_rejected(self):
        channel = self.make_channel()
        with pytest.raises(HypervisorError):
            channel.send("stranger", b"x")
        with pytest.raises(HypervisorError):
            channel.receive("stranger")

    def test_doorbell_raises_irq_for_configured_target(self):
        gic = Gic(2)
        gic.enable_irq(155, targets={1})
        channel = self.make_channel(gic)
        channel.set_doorbell_target("inmate", 1)
        channel.send("root", b"ping")
        assert 155 in gic.pending_for(1)

    def test_other_peer_resolution(self):
        channel = self.make_channel()
        assert channel.other_peer("root") == "inmate"
        assert channel.other_peer("inmate") == "root"

    def test_reset_clears_pending_messages(self):
        channel = self.make_channel()
        channel.send("root", b"x")
        channel.reset()
        assert channel.pending("inmate") == 0
