"""Monitors: how the framework observes the system under test.

The paper's observability is deliberately minimal — a serial log collected
during each one-minute test, later analyzed offline. These monitors model
that: an availability monitor that judges whether a cell kept producing
serial output during the observation window, and a hypervisor-event monitor
that extracts panics, CPU parks and failed management calls from the
hypervisor's event log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.hw.uart import Uart
from repro.hypervisor.core import Hypervisor, HypervisorEventKind


@dataclass(frozen=True)
class AvailabilityReport:
    """Serial-output availability of one cell over an observation window."""

    cell_name: str
    window_start: float
    window_end: float
    lines: int
    lines_per_second: float
    silent_intervals: int
    longest_silence: float
    available: bool

    def describe(self) -> str:
        status = "available" if self.available else "SILENT"
        return (
            f"{self.cell_name}: {self.lines} lines "
            f"({self.lines_per_second:.2f}/s), longest silence "
            f"{self.longest_silence:.2f}s -> {status}"
        )


class AvailabilityMonitor:
    """Judges cell availability from captured UART output."""

    def __init__(self, uart: Uart, cell_name: str, *,
                 min_lines_per_second: float = 0.2,
                 silence_threshold: float = 5.0) -> None:
        self.uart = uart
        self.cell_name = cell_name
        self.min_lines_per_second = min_lines_per_second
        self.silence_threshold = silence_threshold

    def report(self, window_start: float, window_end: float) -> AvailabilityReport:
        """Summarize output of the monitored cell inside the window."""
        duration = max(window_end - window_start, 1e-9)
        records = self.uart.records_between(window_start, window_end, self.cell_name)
        timestamps = [record.timestamp for record in records]
        silent_intervals = 0
        longest_silence = 0.0
        previous = window_start
        for timestamp in timestamps + [window_end]:
            gap = timestamp - previous
            longest_silence = max(longest_silence, gap)
            if gap > self.silence_threshold:
                silent_intervals += 1
            previous = timestamp
        lines_per_second = len(records) / duration
        available = lines_per_second >= self.min_lines_per_second
        return AvailabilityReport(
            cell_name=self.cell_name,
            window_start=window_start,
            window_end=window_end,
            lines=len(records),
            lines_per_second=lines_per_second,
            silent_intervals=silent_intervals,
            longest_silence=longest_silence,
            available=available,
        )


@dataclass(frozen=True)
class HypervisorObservation:
    """Summary of hypervisor events inside an observation window."""

    panicked: bool
    panic_reason: Optional[str]
    parked_cpus: Tuple[Tuple[int, Optional[int]], ...]   # (cpu_id, error_code)
    cpu_online_failures: int
    failed_hypercalls: int
    cell_states: Dict[str, str]
    inconsistent_cells: Tuple[str, ...]


class HypervisorMonitor:
    """Extracts failure indicators from the hypervisor's event log and state."""

    def __init__(self, hypervisor: Hypervisor) -> None:
        self.hypervisor = hypervisor

    def observe(self, window_start: float, window_end: float) -> HypervisorObservation:
        events = self.hypervisor.events_between(window_start, window_end)
        parked: List[Tuple[int, Optional[int]]] = []
        for cpu in self.hypervisor.board.cpus:
            if cpu.is_parked and cpu.park_history:
                last = cpu.park_history[-1]
                if window_start <= last.timestamp <= window_end:
                    parked.append((cpu.cpu_id, last.error_code))
        cell_states = {
            cell.name: cell.state.value for cell in self.hypervisor.cells.values()
        }
        inconsistent = tuple(
            cell.name for cell in self.hypervisor.cells.values()
            if not cell.is_consistent()
        )
        return HypervisorObservation(
            panicked=self.hypervisor.panicked,
            panic_reason=self.hypervisor.panic_reason,
            parked_cpus=tuple(parked),
            cpu_online_failures=sum(
                1 for event in events
                if event.kind is HypervisorEventKind.CPU_ONLINE_FAILED
            ),
            failed_hypercalls=sum(
                1 for event in events
                if event.kind is HypervisorEventKind.HYPERCALL_FAILED
            ),
            cell_states=cell_states,
            inconsistent_cells=inconsistent,
        )


class LogCollector:
    """Collects the serial log of one test into a plain-text blob.

    This mirrors the paper's procedure of piping the board's serial port to a
    log file that is "further analyzed to understand how the hypervisor
    reacted to injected faults".
    """

    def __init__(self, uart: Uart) -> None:
        self.uart = uart
        self._start: Optional[float] = None

    def start(self, timestamp: Optional[float]) -> None:
        self._start = timestamp

    @property
    def start_time(self) -> Optional[float]:
        """When collection started (None before :meth:`start`)."""
        return self._start

    def collect(self, end_timestamp: float) -> str:
        if self._start is None:
            return ""
        records = self.uart.records_between(self._start, end_timestamp)
        return "\n".join(
            f"[{record.timestamp:10.4f}] {record.source}: {record.text}"
            for record in records
        )
