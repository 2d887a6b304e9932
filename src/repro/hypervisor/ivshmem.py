"""Inter-cell shared-memory communication (ivshmem device model).

Jailhouse allows controlled communication between otherwise isolated cells
through the ``ivshmem`` device: a shared memory window plus a doorbell
interrupt. The paper's workload uses a send/receive task pair in the FreeRTOS
cell; this channel is what those tasks exchange messages over, and it gives
the integration tests a way to verify that isolation does *not* mean the cells
cannot cooperate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional

from repro.errors import HypervisorError
from repro.hw.gic import Gic


@dataclass(frozen=True)
class IvshmemMessage:
    """One message exchanged over the shared window."""

    sender: str
    payload: bytes
    sequence: int


class IvshmemChannel:
    """Point-to-point shared-memory channel between two cells."""

    def __init__(self, name: str, peer_a: str, peer_b: str, *,
                 capacity: int = 64, doorbell_irq: int = 155,
                 gic: Optional[Gic] = None) -> None:
        if peer_a == peer_b:
            raise HypervisorError("ivshmem peers must be two distinct cells")
        if capacity <= 0:
            raise HypervisorError("ivshmem capacity must be positive")
        self.name = name
        self.peers = (peer_a, peer_b)
        self.capacity = capacity
        self.doorbell_irq = doorbell_irq
        self._gic = gic
        self._queues: Dict[str, Deque[IvshmemMessage]] = {
            peer_a: deque(), peer_b: deque(),
        }
        self._sequence = 0
        self._doorbell_targets: Dict[str, Optional[int]] = {peer_a: None, peer_b: None}
        self.dropped = 0

    def _check_peer(self, cell_name: str) -> None:
        if cell_name not in self.peers:
            raise HypervisorError(
                f"cell {cell_name!r} is not a peer of ivshmem channel {self.name!r}"
            )

    def other_peer(self, cell_name: str) -> str:
        self._check_peer(cell_name)
        return self.peers[1] if cell_name == self.peers[0] else self.peers[0]

    def set_doorbell_target(self, cell_name: str, cpu_id: Optional[int]) -> None:
        """Configure which CPU receives the doorbell when ``cell_name`` is notified."""
        self._check_peer(cell_name)
        self._doorbell_targets[cell_name] = cpu_id

    def send(self, sender: str, payload: bytes) -> bool:
        """Send a message to the other peer. Returns False if the queue is full."""
        self._check_peer(sender)
        receiver = self.other_peer(sender)
        queue = self._queues[receiver]
        if len(queue) >= self.capacity:
            self.dropped += 1
            return False
        self._sequence += 1
        queue.append(
            IvshmemMessage(sender=sender, payload=bytes(payload), sequence=self._sequence)
        )
        self._ring_doorbell(receiver)
        return True

    def receive(self, receiver: str) -> Optional[IvshmemMessage]:
        """Pop the oldest pending message for ``receiver`` (None if empty)."""
        self._check_peer(receiver)
        queue = self._queues[receiver]
        if not queue:
            return None
        return queue.popleft()

    def pending(self, receiver: str) -> int:
        self._check_peer(receiver)
        return len(self._queues[receiver])

    def _ring_doorbell(self, receiver: str) -> None:
        if self._gic is None:
            return
        cpu_id = self._doorbell_targets.get(receiver)
        if cpu_id is None:
            return
        self._gic.raise_irq(self.doorbell_irq, cpu_id=cpu_id)

    def reset(self) -> None:
        """Drop all pending messages (used when a peer cell is destroyed)."""
        for queue in self._queues.values():
            queue.clear()

    # -- snapshot / restore ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Capture queued messages, sequence counter and doorbell routing."""
        return {
            "queues": {peer: list(queue) for peer, queue in self._queues.items()},
            "sequence": self._sequence,
            "doorbell_targets": dict(self._doorbell_targets),
            "dropped": self.dropped,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a prior :meth:`snapshot_state` in place."""
        for peer, queue in self._queues.items():
            queue.clear()
            queue.extend(state["queues"].get(peer, ()))
        self._sequence = state["sequence"]
        self._doorbell_targets = dict(state["doorbell_targets"])
        self.dropped = state["dropped"]
