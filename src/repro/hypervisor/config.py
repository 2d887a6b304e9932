"""Cell and system configuration structures.

Jailhouse cells are configured statically with C structures compiled into a
binary blob that the root cell passes to the ``CELL_CREATE`` hypercall. This
module models those structures in Python: a :class:`SystemConfig` describing
the root cell and hypervisor memory, and :class:`CellConfig` objects
describing each non-root cell (assigned CPUs, guest-physical memory
assignments, interrupt lines, console). Configurations validate themselves
and serialize to a binary blob with a magic signature, so the hypervisor's
``cell_create`` path can reject corrupted/unreadable configs with
``-EINVAL`` exactly as the real hypervisor does.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.errors import ConfigurationError
from repro.hw.memory import MemoryFlags

#: Signature bytes at the start of a serialized cell configuration
#: (the real Jailhouse uses "JHCELL"/"JHSYST").
CELL_CONFIG_MAGIC = b"JHCELL"
SYSTEM_CONFIG_MAGIC = b"JHSYST"
CONFIG_REVISION = 13


@dataclass(frozen=True)
class MemoryAssignment:
    """One guest-physical memory assignment of a cell."""

    name: str
    virt_start: int
    phys_start: int
    size: int
    flags: MemoryFlags = MemoryFlags.RW
    shared: bool = False     # shared regions (ivshmem) may appear in two cells
    loadable: bool = False   # root cell may load an image here before start

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigurationError(
                f"memory assignment {self.name!r} must have positive size"
            )
        if self.virt_start < 0 or self.phys_start < 0:
            raise ConfigurationError(
                f"memory assignment {self.name!r} must have non-negative addresses"
            )

    @property
    def virt_end(self) -> int:
        return self.virt_start + self.size

    @property
    def phys_end(self) -> int:
        return self.phys_start + self.size

    def overlaps_phys(self, other: "MemoryAssignment") -> bool:
        return self.phys_start < other.phys_end and other.phys_start < self.phys_end

    def overlaps_virt(self, other: "MemoryAssignment") -> bool:
        return self.virt_start < other.virt_end and other.virt_start < self.virt_end


@dataclass(frozen=True)
class ConsoleConfig:
    """Which UART (if any) a cell may write its console output to."""

    uart_name: str = "uart0"
    enabled: bool = True


@dataclass
class CellConfig:
    """Static configuration of one cell."""

    name: str
    cpus: Set[int] = field(default_factory=set)
    memory: List[MemoryAssignment] = field(default_factory=list)
    irqs: Set[int] = field(default_factory=set)
    console: ConsoleConfig = field(default_factory=ConsoleConfig)
    is_root: bool = False

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` for structural problems."""
        if not self.name or len(self.name) > 31:
            raise ConfigurationError("cell name must be 1..31 characters")
        if not self.cpus:
            raise ConfigurationError(f"cell {self.name!r} must own at least one CPU")
        if any(cpu < 0 for cpu in self.cpus):
            raise ConfigurationError(f"cell {self.name!r} has negative CPU ids")
        if not self.memory:
            raise ConfigurationError(
                f"cell {self.name!r} must have at least one memory assignment"
            )
        for index, assignment in enumerate(self.memory):
            for other in self.memory[index + 1:]:
                if assignment.overlaps_virt(other):
                    raise ConfigurationError(
                        f"cell {self.name!r}: regions {assignment.name!r} and "
                        f"{other.name!r} overlap in guest-physical space"
                    )
        if any(irq < 0 for irq in self.irqs):
            raise ConfigurationError(f"cell {self.name!r} has negative IRQ ids")

    # -- convenience ------------------------------------------------------------

    def ram_assignments(self) -> List[MemoryAssignment]:
        """Assignments that are plain RAM (not IO)."""
        return [m for m in self.memory if not m.flags & MemoryFlags.IO]

    def total_ram(self) -> int:
        return sum(m.size for m in self.ram_assignments())

    def find_assignment(self, name: str) -> Optional[MemoryAssignment]:
        for assignment in self.memory:
            if assignment.name == name:
                return assignment
        return None

    # -- serialization -----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to the binary blob passed to ``CELL_CREATE``."""
        name_bytes = self.name.encode("ascii", errors="replace")[:31]
        header = struct.pack(
            "<6sH32sIII",
            CELL_CONFIG_MAGIC,
            CONFIG_REVISION,
            name_bytes.ljust(32, b"\0"),
            len(self.cpus),
            len(self.memory),
            len(self.irqs),
        )
        body = b""
        for cpu in sorted(self.cpus):
            body += struct.pack("<I", cpu)
        for assignment in self.memory:
            region_name = assignment.name.encode("ascii", errors="replace")[:31]
            body += struct.pack(
                "<32sQQQIBB2x",
                region_name.ljust(32, b"\0"),
                assignment.virt_start,
                assignment.phys_start,
                assignment.size,
                int(assignment.flags),
                int(assignment.shared),
                int(assignment.loadable),
            )
        for irq in sorted(self.irqs):
            body += struct.pack("<I", irq)
        return header + body

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CellConfig":
        """Parse a serialized configuration; raises on bad magic/truncation."""
        header_size = struct.calcsize("<6sH32sIII")
        if len(blob) < header_size:
            raise ConfigurationError("configuration blob is truncated")
        magic, revision, raw_name, n_cpus, n_mem, n_irqs = struct.unpack(
            "<6sH32sIII", blob[:header_size]
        )
        if magic != CELL_CONFIG_MAGIC:
            raise ConfigurationError("configuration blob has a bad signature")
        if revision != CONFIG_REVISION:
            raise ConfigurationError(
                f"configuration revision {revision} != {CONFIG_REVISION}"
            )
        name = raw_name.rstrip(b"\0").decode("ascii", errors="replace")
        offset = header_size
        cpus: Set[int] = set()
        for _ in range(n_cpus):
            (cpu,) = struct.unpack_from("<I", blob, offset)
            cpus.add(cpu)
            offset += 4
        memory: List[MemoryAssignment] = []
        mem_size = struct.calcsize("<32sQQQIBB2x")
        for index in range(n_mem):
            raw_region_name, virt, phys, size, flags, shared, loadable = struct.unpack_from(
                "<32sQQQIBB2x", blob, offset
            )
            region_name = raw_region_name.rstrip(b"\0").decode("ascii", errors="replace")
            memory.append(
                MemoryAssignment(
                    name=region_name or f"mem{index}",
                    virt_start=virt,
                    phys_start=phys,
                    size=size,
                    flags=MemoryFlags(flags),
                    shared=bool(shared),
                    loadable=bool(loadable),
                )
            )
            offset += mem_size
        irqs: Set[int] = set()
        for _ in range(n_irqs):
            (irq,) = struct.unpack_from("<I", blob, offset)
            irqs.add(irq)
            offset += 4
        config = cls(name=name, cpus=cpus, memory=memory, irqs=irqs)
        config.validate()
        return config


@dataclass
class SystemConfig:
    """System-wide configuration: hypervisor memory plus the root cell."""

    root_cell: CellConfig
    hypervisor_memory: MemoryAssignment = field(
        default_factory=lambda: MemoryAssignment(
            name="hypervisor",
            virt_start=0x7C00_0000,
            phys_start=0x7C00_0000,
            size=4 << 20,
            flags=MemoryFlags.RWX,
        )
    )

    def validate(self) -> None:
        if not self.root_cell.is_root:
            raise ConfigurationError("system configuration requires a root cell")
        self.root_cell.validate()
        for assignment in self.root_cell.memory:
            if assignment.overlaps_phys(self.hypervisor_memory):
                raise ConfigurationError(
                    "root cell memory overlaps the hypervisor's reserved region"
                )


# -- canonical Banana Pi configurations ------------------------------------------

#: Physical layout used by the canonical configurations below. The root cell
#: (Linux) keeps most of DRAM; a small window is carved out for the FreeRTOS
#: cell and a shared ivshmem page, mirroring the demo configs shipped with
#: Jailhouse for this board.
BANANAPI_DRAM_BASE = 0x4000_0000
FREERTOS_CELL_RAM_BASE = 0x7800_0000
FREERTOS_CELL_RAM_SIZE = 1 << 20          # 1 MiB
IVSHMEM_BASE = 0x7BF0_0000
IVSHMEM_SIZE = 0x0010_0000                # 1 MiB shared window
IVSHMEM_IRQ = 155
UART0_BASE = 0x01C2_8000
UART0_SIZE = 0x400
UART0_IRQ = 33


def bananapi_root_config(name: str = "BananaPi-Linux") -> CellConfig:
    """Root-cell configuration: Linux owning CPU 0 and most of DRAM."""
    config = CellConfig(
        name=name,
        cpus={0, 1},
        memory=[
            MemoryAssignment(
                name="ram-low",
                virt_start=BANANAPI_DRAM_BASE,
                phys_start=BANANAPI_DRAM_BASE,
                size=FREERTOS_CELL_RAM_BASE - BANANAPI_DRAM_BASE,
                flags=MemoryFlags.RWX,
            ),
            MemoryAssignment(
                name="uart0",
                virt_start=UART0_BASE,
                phys_start=UART0_BASE,
                size=UART0_SIZE,
                flags=MemoryFlags.RW | MemoryFlags.IO,
                shared=True,
            ),
            MemoryAssignment(
                name="ivshmem",
                virt_start=IVSHMEM_BASE,
                phys_start=IVSHMEM_BASE,
                size=IVSHMEM_SIZE,
                flags=MemoryFlags.RW,
                shared=True,
            ),
        ],
        irqs={UART0_IRQ, IVSHMEM_IRQ},
        console=ConsoleConfig(uart_name="uart0", enabled=True),
        is_root=True,
    )
    config.validate()
    return config


def freertos_cell_config(name: str = "FreeRTOS") -> CellConfig:
    """Non-root cell configuration: FreeRTOS on CPU 1 with 1 MiB of RAM."""
    config = CellConfig(
        name=name,
        cpus={1},
        memory=[
            MemoryAssignment(
                name="ram",
                virt_start=0x0,
                phys_start=FREERTOS_CELL_RAM_BASE,
                size=FREERTOS_CELL_RAM_SIZE,
                flags=MemoryFlags.RWX,
                loadable=True,
            ),
            MemoryAssignment(
                name="uart0",
                virt_start=UART0_BASE,
                phys_start=UART0_BASE,
                size=UART0_SIZE,
                flags=MemoryFlags.RW | MemoryFlags.IO,
                shared=True,
            ),
            MemoryAssignment(
                name="ivshmem",
                virt_start=0x3000_0000,
                phys_start=IVSHMEM_BASE,
                size=IVSHMEM_SIZE,
                flags=MemoryFlags.RW,
                shared=True,
            ),
        ],
        irqs={IVSHMEM_IRQ},
        console=ConsoleConfig(uart_name="uart0", enabled=True),
    )
    config.validate()
    return config


def bananapi_system_config() -> SystemConfig:
    """Full system configuration used by the paper's experiments."""
    system = SystemConfig(root_cell=bananapi_root_config())
    system.validate()
    return system
