"""Exception hierarchy for the repro package.

Every error raised by the simulated board, the hypervisor model, the guest
models, and the fault-injection framework derives from :class:`ReproError` so
callers can distinguish library failures from programming errors. The CLI
reports any of them as one ``error:`` line and exits with the class's
:attr:`~ReproError.exit_code`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""

    #: Process exit status ``repro-fi`` returns for this error: 2 for usage
    #: errors (bad keys, configs, protocol versions, checker misuse), 1 for
    #: everything else.
    exit_code = 1


class HardwareError(ReproError):
    """Base class for errors raised by the simulated hardware substrate."""


class MemoryAccessError(HardwareError):
    """A memory access violated the physical memory map or its permissions."""

    def __init__(self, address: int, size: int, kind: str, reason: str) -> None:
        self.address = address
        self.size = size
        self.kind = kind
        self.reason = reason
        super().__init__(
            f"{kind} access of {size} byte(s) at 0x{address:08x} failed: {reason}"
        )


class RegionOverlapError(HardwareError):
    """Two memory regions that must be disjoint overlap."""


class InvalidRegisterError(HardwareError):
    """A register name or index outside the modeled register file was used."""


class CpuStateError(HardwareError):
    """A CPU operation was attempted in an incompatible CPU state."""


class InterruptError(HardwareError):
    """An interrupt id or routing operation was invalid."""


class DeviceError(HardwareError):
    """A device-level operation failed (UART, GPIO, timer)."""


class HypervisorError(ReproError):
    """Base class for errors raised by the partitioning-hypervisor model."""


class ConfigurationError(HypervisorError):
    """A system or cell configuration is structurally invalid."""


class CellStateError(HypervisorError):
    """A cell-management operation was attempted in an incompatible state."""


class HypercallError(HypervisorError):
    """A hypercall could not be dispatched."""


class IsolationViolationError(HypervisorError):
    """A cell attempted to access a resource owned by another cell."""


class HypervisorPanic(HypervisorError):
    """The hypervisor hit an unrecoverable internal error (panic park)."""

    def __init__(self, message: str, cpu_id: int | None = None) -> None:
        self.cpu_id = cpu_id
        super().__init__(message)


class GuestError(ReproError):
    """Base class for errors raised by guest OS models."""


class GuestCrashError(GuestError):
    """A guest OS reached an unrecoverable state."""


class SchedulerError(GuestError):
    """The guest scheduler was misused (duplicate task names, bad priority)."""


class InjectionError(ReproError):
    """Base class for errors raised by the fault-injection framework."""


class CampaignError(InjectionError):
    """A campaign or test plan is invalid or was interrupted."""


class PlanError(CampaignError):
    """A test plan is structurally invalid (empty, duplicate names, ...).

    Subclasses :class:`CampaignError` so existing callers that catch the
    broader class keep working.
    """


class TargetError(InjectionError):
    """An injection target does not exist on the system under test."""


class RegistryError(InjectionError):
    """A plugin registry lookup or registration failed (unknown/duplicate key)."""

    exit_code = 2


class CampaignConfigError(CampaignError):
    """A declarative campaign configuration is malformed or unloadable."""

    exit_code = 2


class AnalysisError(ReproError):
    """Raised when analytics are asked to process malformed records."""


class RecordSchemaError(AnalysisError):
    """Raised for records written by a newer, unsupported record schema.

    Subclasses :class:`AnalysisError` so existing handlers keep working,
    but stays distinguishable from line-level corruption: a version
    mismatch means the whole store needs newer tooling, so salvage paths
    (checkpoint torn-tail recovery, ``--skip-malformed``) must not treat
    it as a damaged line to discard.
    """


class FleetError(ReproError):
    """Raised by the multi-host fleet layer (coordinator, worker agent).

    Covers protocol violations (wrong ``repro-fleet/v1`` schema, malformed
    messages), coordinator state problems (unknown campaign or host,
    un-resumable state directories), and worker-side failures to reach or
    follow the coordinator. Kept distinct from :class:`CampaignError` so a
    fleet transport problem is never mistaken for an invalid campaign.
    """


class FleetProtocolError(FleetError):
    """A ``repro-fleet/v1`` message was malformed or version-mismatched."""

    exit_code = 2


class FleetUnavailableError(FleetError):
    """The fleet coordinator could not be reached (transport failure).

    Distinct from the rest of :class:`FleetError` because it is the one
    failure workers retry through: a coordinator restart or network blip
    heals, so agents back off and try again within their offline grace
    window instead of treating it as fatal.
    """


class MergeConflictError(FleetError):
    """Two record stores disagree about the same spec identity.

    Raised by ``repro merge`` (and the coordinator's result merge) when two
    records share an identity but differ in payload — deterministic
    re-execution must produce byte-identical records, so a conflict means
    the stores came from different campaign definitions or code versions
    and silently picking one would corrupt the merged result.
    """


class SafetyAssessmentError(ReproError):
    """Raised by the ISO 26262 / SEooC assessment layer."""


class CheckError(ReproError):
    """Raised by the static contract checker (``repro-fi check``) for
    usage problems: unknown rule names, unreadable baselines, or a source
    root that cannot be loaded. Findings are *not* errors — they are the
    checker's normal output; this class covers misuse of the tool itself.
    """

    exit_code = 2


class ObservabilityError(ReproError):
    """Raised by the live-observability layer (telemetry, watch, bench-history).

    Covers malformed telemetry event files, watch-server misuse, and
    unreadable ``BENCH_*.json`` trajectories — operational tooling errors,
    kept distinct from :class:`AnalysisError` (experiment record data) so a
    broken dashboard can never be mistaken for broken campaign results.
    """
