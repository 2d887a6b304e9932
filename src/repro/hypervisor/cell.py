"""Cell object and state machine.

A *cell* is Jailhouse's unit of partitioning: a static set of CPUs, memory
assignments, and interrupt lines, optionally running a guest OS ("inmate").
The state machine mirrors Jailhouse v0.12: a cell is created in the
``SHUT_DOWN`` state, images are loaded while it is shut down, ``cell start``
moves it to ``RUNNING``, and shutdown/destroy return its resources to the
root cell. The paper's "inconsistent state" finding is precisely a divergence
between this reported state and the actual behaviour of the cell's CPUs.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import List, Optional, Set, TYPE_CHECKING

from repro.errors import CellStateError
from repro.hypervisor.config import CellConfig
from repro.hypervisor.paging import CellMemoryMap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.guests.base import GuestOS


class CellState(enum.Enum):
    """Externally visible cell states (as reported by ``jailhouse cell list``)."""

    SHUT_DOWN = "shut down"
    RUNNING = "running"
    RUNNING_LOCKED = "running/locked"
    FAILED = "failed"

    @property
    def is_running(self) -> bool:
        return self in (CellState.RUNNING, CellState.RUNNING_LOCKED)


@dataclass
class CellStats:
    """Per-cell counters used by the analytics layer."""

    hypercalls: int = 0
    mmio_accesses: int = 0
    uart_lines: int = 0
    state_transitions: int = 0


@dataclass
class LoadedImage:
    """An image loaded into a loadable region of a shut-down cell."""

    region_name: str
    entry_point: int
    size: int
    description: str = ""


class Cell:
    """One Jailhouse cell (root or non-root)."""

    def __init__(self, cell_id: int, config: CellConfig) -> None:
        config.validate()
        self.cell_id = cell_id
        self.config = config
        self.state = CellState.SHUT_DOWN
        self.memory_map = CellMemoryMap.from_assignments(config.name, config.memory)
        self.cpus: Set[int] = set(config.cpus)
        self.irqs: Set[int] = set(config.irqs)
        self.guest: Optional["GuestOS"] = None
        self.loaded_images: List[LoadedImage] = []
        self.stats = CellStats()
        self._state_history: List[CellState] = [self.state]
        #: CPUs of this cell that actually came online; the divergence between
        #: this set and ``self.cpus`` while ``state`` reports RUNNING is the
        #: "inconsistent state" outcome observed by the paper.
        self.online_cpus: Set[int] = set()

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def is_root(self) -> bool:
        return self.config.is_root

    # -- state machine ------------------------------------------------------------

    def _transition(self, new_state: CellState) -> None:
        self.state = new_state
        self._state_history.append(new_state)
        self.stats.state_transitions += 1

    @property
    def state_history(self) -> List[CellState]:
        return list(self._state_history)

    def mark_running(self) -> None:
        """Record that ``cell start`` completed (the hypervisor's view)."""
        if self.state is CellState.RUNNING:
            raise CellStateError(f"cell {self.name!r} is already running")
        self._transition(CellState.RUNNING)

    def mark_shut_down(self) -> None:
        self._transition(CellState.SHUT_DOWN)
        self.online_cpus.clear()

    def mark_failed(self) -> None:
        self._transition(CellState.FAILED)

    # -- images and guests -----------------------------------------------------------

    def load_image(self, image: LoadedImage) -> None:
        """Load an image into a loadable region (cell must be shut down)."""
        if self.state.is_running:
            raise CellStateError(
                f"cannot load an image into running cell {self.name!r}"
            )
        assignment = self.config.find_assignment(image.region_name)
        if assignment is None:
            raise CellStateError(
                f"cell {self.name!r} has no region named {image.region_name!r}"
            )
        if not assignment.loadable and not self.is_root:
            raise CellStateError(
                f"region {image.region_name!r} of cell {self.name!r} is not loadable"
            )
        if image.size > assignment.size:
            raise CellStateError(
                f"image of {image.size} bytes does not fit region "
                f"{image.region_name!r} ({assignment.size} bytes)"
            )
        self.loaded_images.append(image)

    def attach_guest(self, guest: "GuestOS") -> None:
        """Associate a guest OS model with this cell."""
        self.guest = guest

    def entry_point(self) -> Optional[int]:
        """Entry point of the most recently loaded image, if any."""
        if not self.loaded_images:
            return None
        return self.loaded_images[-1].entry_point

    # -- availability ------------------------------------------------------------------

    def cpu_online(self, cpu_id: int) -> None:
        if cpu_id not in self.cpus:
            raise CellStateError(f"CPU {cpu_id} does not belong to cell {self.name!r}")
        self.online_cpus.add(cpu_id)

    def cpu_offline(self, cpu_id: int) -> None:
        self.online_cpus.discard(cpu_id)

    def is_consistent(self) -> bool:
        """Whether the reported state matches the actual CPU availability.

        A RUNNING cell whose CPUs never came online (or all went away) is the
        inconsistent situation the paper flags as "particularly dangerous".
        """
        if self.state.is_running:
            return bool(self.online_cpus)
        return not self.online_cpus

    # -- snapshot / restore -------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Capture the cell's mutable state (config and memory map are static)."""
        return {
            "state": self.state,
            "cpus": set(self.cpus),
            "irqs": set(self.irqs),
            "online_cpus": set(self.online_cpus),
            "guest": self.guest,
            "loaded_images": list(self.loaded_images),
            "stats": dataclasses.replace(self.stats),
            "state_history": list(self._state_history),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a prior :meth:`snapshot_state` in place."""
        self.state = state["state"]
        self.cpus = set(state["cpus"])
        self.irqs = set(state["irqs"])
        self.online_cpus = set(state["online_cpus"])
        self.guest = state["guest"]
        self.loaded_images = list(state["loaded_images"])
        self.stats = dataclasses.replace(state["stats"])
        self._state_history = list(state["state_history"])

    def describe(self) -> str:
        cpu_list = ",".join(str(cpu) for cpu in sorted(self.cpus)) or "-"
        return (
            f"{self.cell_id:>4}  {self.name:<24} {self.state.value:<15} "
            f"cpus: {cpu_list}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cell(id={self.cell_id}, name={self.name!r}, state={self.state.value})"
