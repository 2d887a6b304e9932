"""UART (serial console) model.

The paper's only observable is the board's serial output: each test sends its
outcome "to an empty shell where the board serial port is connected", and the
non-root cell's availability is judged by whether its FreeRTOS tasks keep
printing. This module models the UART's transmit side only: each line is
captured into a timestamped, source-tagged record list so monitors can ask
"did cell X produce any output in the last N seconds?". The UART has no
registers: the guest models and the hypervisor's debug console write lines
and characters to it directly.

Captured records are indexed as they arrive — a per-source record list plus
bisectable timestamp arrays — so the windowed queries the monitors issue
(every ``evidence()`` call, and once per slice in the park/recover and
repeated-lifecycle scenarios) cost ``O(log n + matches)`` instead of a full
scan of the capture.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class UartRecord:
    """One line of captured serial output."""

    timestamp: float
    source: str
    text: str


class Uart:
    """Serial port with per-source capture.

    Writers either call :meth:`write_line` (the guest models do this, tagging
    output with their cell name) or :meth:`write_char` (the hypervisor's
    debug console), whose characters are accumulated until a newline.
    """

    def __init__(self, name: str = "uart0",
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self._clock = clock or (lambda: 0.0)
        self._records: List[UartRecord] = []
        # repro: allow[snapshot-complete] -- derived index; restore_state rebuilds it by re-appending the captured records
        self._timestamps: List[float] = []
        # repro: allow[snapshot-complete] -- derived index; restore_state rebuilds it by re-appending the captured records
        self._by_source: Dict[str, List[UartRecord]] = {}
        # repro: allow[snapshot-complete] -- derived index; restore_state rebuilds it by re-appending the captured records
        self._source_timestamps: Dict[str, List[float]] = {}
        self._partial: dict[str, str] = {}

    # -- writers ----------------------------------------------------------------

    def _append(self, record: UartRecord) -> None:
        """Add a record to the capture and every derived index."""
        source = record.source
        self._records.append(record)
        self._timestamps.append(record.timestamp)
        per_source = self._by_source.get(source)
        if per_source is None:
            per_source = self._by_source[source] = []
            self._source_timestamps[source] = []
        per_source.append(record)
        self._source_timestamps[source].append(record.timestamp)

    def write_line(self, source: str, text: str) -> UartRecord:
        """Append one full line of output attributed to ``source``."""
        record = UartRecord(timestamp=self._clock(), source=source, text=text)
        self._append(record)
        return record

    def write_char(self, source: str, char: str) -> None:
        """Append a character; a newline flushes the pending line."""
        if char == "\n":
            pending = self._partial.pop(source, "")
            self.write_line(source, pending)
        else:
            self._partial[source] = self._partial.get(source, "") + char

    # -- capture queries ------------------------------------------------------------

    @property
    def records(self) -> Tuple[UartRecord, ...]:
        return tuple(self._records)

    def lines(self, source: Optional[str] = None) -> List[str]:
        """All captured lines, optionally filtered by source."""
        records = self._records if source is None else self._by_source.get(source, [])
        return [record.text for record in records]

    def records_between(self, start: float, end: float,
                        source: Optional[str] = None) -> List[UartRecord]:
        """Records with ``start <= timestamp < end``."""
        if source is None:
            records, timestamps = self._records, self._timestamps
        else:
            records = self._by_source.get(source, [])
            timestamps = self._source_timestamps.get(source, [])
        lo = bisect_left(timestamps, start)
        hi = bisect_left(timestamps, end, lo)
        return records[lo:hi]

    def output_count(self, source: Optional[str] = None) -> int:
        """Number of captured lines (optionally per source)."""
        if source is None:
            return len(self._records)
        return len(self._by_source.get(source, []))

    def sources(self) -> Tuple[str, ...]:
        """Distinct sources that produced output, in first-seen order."""
        return tuple(self._by_source)

    def last_output_time(self, source: Optional[str] = None) -> Optional[float]:
        """Timestamp of the most recent line from ``source`` (or any source)."""
        records = self._records if source is None else self._by_source.get(source, [])
        if not records:
            return None
        return records[-1].timestamp

    def silent_since(self, timestamp: float, source: str) -> bool:
        """Whether ``source`` has produced no output at or after ``timestamp``."""
        last = self.last_output_time(source)
        return last is None or last < timestamp

    def clear(self) -> None:
        """Drop all captured output (used between experiments)."""
        self._records.clear()
        self._timestamps.clear()
        self._by_source.clear()
        self._source_timestamps.clear()
        self._partial.clear()

    def dump(self, sources: Optional[Iterable[str]] = None) -> str:
        """Render the capture as a log-file-style text blob."""
        wanted = set(sources) if sources is not None else None
        lines = []
        for record in self._records:
            if wanted is not None and record.source not in wanted:
                continue
            lines.append(f"[{record.timestamp:10.4f}] {record.source}: {record.text}")
        return "\n".join(lines)

    # -- snapshot / restore ----------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Capture the record log and pending partial lines."""
        return {
            "records": list(self._records),
            "partial": dict(self._partial),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a prior :meth:`snapshot_state` in place (indexes rebuilt)."""
        self.clear()
        for record in state["records"]:
            self._append(record)
        self._partial = dict(state["partial"])
