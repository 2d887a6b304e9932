"""Property-based tests for the hardware substrate invariants."""

from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, IsolationViolationError, RegionOverlapError
from repro.hw.memory import AccessType, MemoryFlags, MemoryRegion, PhysicalMemory
from repro.hw.registers import (
    ARCHITECTURAL_REGISTERS,
    Register,
    RegisterFile,
    TrapContext,
    WORD_BITS,
    WORD_MASK,
    flip_bit,
)
from repro.hypervisor.paging import CellMemoryMap, Stage2Mapping

registers_strategy = st.sampled_from(list(ARCHITECTURAL_REGISTERS))
words = st.integers(min_value=0, max_value=WORD_MASK)
bits = st.integers(min_value=0, max_value=WORD_BITS - 1)


class TestBitFlipAlgebra:
    @given(value=words, bit=bits)
    def test_flip_is_an_involution(self, value, bit):
        assert flip_bit(flip_bit(value, bit), bit) == value

    @given(value=words, bit=bits)
    def test_flip_changes_exactly_one_bit(self, value, bit):
        flipped = flip_bit(value, bit)
        assert bin(value ^ flipped).count("1") == 1
        assert 0 <= flipped <= WORD_MASK

    @given(value=words, first=bits, second=bits)
    def test_flips_commute(self, value, first, second):
        assert flip_bit(flip_bit(value, first), second) == \
            flip_bit(flip_bit(value, second), first)


class TestRegisterFileProperties:
    @given(register=registers_strategy, value=words)
    def test_write_read_round_trip(self, register, value):
        regs = RegisterFile()
        regs.write(register, value)
        assert regs.read(register) == value

    @given(values=st.dictionaries(registers_strategy, words, min_size=1))
    def test_snapshot_load_round_trip(self, values):
        regs = RegisterFile()
        regs.load(values)
        snapshot = regs.snapshot()
        other = RegisterFile()
        other.load(snapshot)
        assert other == regs

    @given(register=registers_strategy, value=words, bit=bits)
    def test_context_flip_matches_flip_bit(self, register, value, bit):
        context = TrapContext(cpu_id=0, registers={register: value})
        context.flip(register, bit)
        assert context.read(register) == flip_bit(value, bit)

    @given(values=st.dictionaries(registers_strategy, words))
    def test_diff_is_empty_iff_contexts_equal(self, values):
        context = TrapContext(cpu_id=0, registers=dict(values))
        clone = context.copy()
        assert context.diff(clone) == []
        if values:
            register = next(iter(values))
            clone.flip(register, 3)
            assert len(context.diff(clone)) == 1


region_specs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1 << 20),
              st.integers(min_value=1, max_value=1 << 12)),
    min_size=1, max_size=8,
)


class TestMemoryProperties:
    @given(specs=region_specs)
    @settings(max_examples=60)
    def test_regions_never_overlap_after_construction(self, specs):
        memory = PhysicalMemory()
        added = []
        for index, (start, size) in enumerate(specs):
            region = MemoryRegion(f"r{index}", start, size, MemoryFlags.RW)
            try:
                memory.add_region(region)
                added.append(region)
            except RegionOverlapError:
                # The invariant is that rejection happens exactly when the
                # candidate overlaps something already accepted.
                assert any(region.overlaps(existing) for existing in added)
        for region in added:
            others = [other for other in added if other is not region]
            assert not any(region.overlaps(other) for other in others)


mapping_specs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1 << 16),
              st.integers(min_value=1, max_value=1 << 12),
              st.sampled_from([MemoryFlags.READ, MemoryFlags.RW, MemoryFlags.RWX,
                               MemoryFlags.READ | MemoryFlags.EXECUTE,
                               MemoryFlags.RW | MemoryFlags.IO])),
    min_size=1, max_size=6,
)
probe_addresses = st.integers(min_value=0, max_value=(1 << 16) + (1 << 12))


def build_cell_map(specs):
    """A stage-2 map of every spec that does not overlap an earlier one."""
    cell_map = CellMemoryMap("cell")
    for index, (start, size, flags) in enumerate(specs):
        try:
            cell_map.add(Stage2Mapping(f"m{index}", start, 0x4000_0000 + start,
                                       size, flags))
        except ConfigurationError:
            pass
    return cell_map


class TestStage2Properties:
    """The stage-2 map's flat span index agrees with its mappings.

    ``is_mapped``, ``is_executable`` and ``translate`` answer from plain-int
    spans; the oracle asks each :class:`Stage2Mapping` directly.
    """

    @given(specs=mapping_specs, address=probe_addresses,
           size=st.integers(min_value=1, max_value=8),
           access=st.sampled_from(list(AccessType)))
    @settings(max_examples=80)
    def test_is_mapped_agrees_with_the_mappings(self, specs, address, size, access):
        cell_map = build_cell_map(specs)
        expected = any(mapping.contains_virt(address, size) and mapping.permits(access)
                       for mapping in cell_map.mappings)
        assert cell_map.is_mapped(address, size, access) == expected

    @given(specs=mapping_specs, address=probe_addresses)
    @settings(max_examples=60)
    def test_is_executable_agrees_with_the_mappings(self, specs, address):
        cell_map = build_cell_map(specs)
        expected = any(mapping.contains_virt(address, 4)
                       and mapping.permits(AccessType.EXECUTE)
                       for mapping in cell_map.mappings)
        assert cell_map.is_executable(address) == expected

    @given(specs=mapping_specs, address=probe_addresses)
    @settings(max_examples=60)
    def test_translate_faults_exactly_outside_every_mapping(self, specs, address):
        cell_map = build_cell_map(specs)
        owners = [mapping for mapping in cell_map.mappings
                  if mapping.contains_virt(address)]
        if owners:
            (owner,) = owners
            assert cell_map.translate(address) == \
                owner.phys_start + (address - owner.virt_start)
        else:
            try:
                cell_map.translate(address)
                assert False, "expected a stage-2 fault"
            except IsolationViolationError as error:
                assert f"0x{address:08x}" in str(error)
