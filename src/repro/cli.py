"""Command-line front-end for the fault-injection framework.

Provides the day-to-day workflows as subcommands so a user can drive the
reproduction without writing Python:

* ``repro-fi golden``    — profile a fault-free run (handler call counts, output rates);
* ``repro-fi fig3``      — run the paper's medium-intensity Figure-3 campaign;
* ``repro-fi campaign``  — run a custom campaign (target, intensity, scenario, size);
* ``repro-fi run``       — run a declarative campaign from a TOML/JSON config
  file or a built-in catalog entry (``repro-fi run fig3``);
* ``repro-fi list``      — show every registered part (fault models, triggers,
  targets, scenarios, SUTs, classifiers) and catalog campaign;
* ``repro-fi report``    — re-render reports from a saved ``.jsonl`` record file;
* ``repro-fi analyze``   — streaming analysis of a saved record file: outcome
  distribution with Wilson CIs, availability, management findings,
  ``--group-by`` any record field, ``--convergence`` curves, and
  text/JSON/Markdown export — in one pass and O(1) memory, so
  million-record stores analyze in the same footprint as ten-record ones;
* ``repro-fi compare``   — side-by-side outcome comparison of two or more
  saved campaigns (per-outcome deltas, Figure-3 paper reference);
* ``repro-fi seooc``     — build the ISO 26262 SEooC evidence report from one or
  more saved campaigns;
* ``repro-fi watch``     — live dashboard for a record file another process is
  writing (the detached monitor; ``--watch`` on the campaign subcommands is
  the in-process variant);
* ``repro-fi bench-history`` — the perf trajectory: every committed version
  of the ``BENCH_*.json`` reports rendered per metric, with cross-machine
  entries flagged;
* ``repro-fi serve``        — the fleet coordinator: accepts campaign
  submissions, shards their plans, and leases shards (TTL + heartbeats,
  lost-host requeue, work stealing, host quarantine) to worker agents over
  the versioned ``repro-fleet/v1`` JSON/HTTP protocol; results merge
  idempotently by spec identity into fsynced per-campaign record stores,
  and ``--resume`` recovers a killed coordinator losslessly;
* ``repro-fi fleet-worker`` — one worker agent: joins a coordinator, pulls
  shard leases, runs them through the ordinary campaign engine (``--jobs``
  and the supervision flags compose), and submits the records back;
* ``repro-fi submit``       — send a campaign config to a running
  coordinator (``--wait`` polls until done, ``--output`` downloads the
  merged records);
* ``repro-fi fleet-status`` — one-shot fleet status (campaigns, shards,
  hosts, leases) as text or JSON;
* ``repro-fi merge``        — offline merge of record stores from several
  hosts, deduplicated by spec identity; same-identity records with
  different payloads are a hard error, never a silent pick.

Campaign subcommands grow three observability flags: ``--telemetry PATH``
streams structured ``repro-telemetry/v1`` events (per-experiment timing with
the prefix vs post-injection split, checkpoint flushes, queue depth) to a
JSONL file; ``--watch [PORT]`` serves a live HTML dashboard plus
``/metrics.json`` and an SSE event tail while the campaign runs
(``--watch-linger`` keeps it up afterwards); ``--progress-interval`` throttles
the ``--verbose`` progress lines, which go to stderr so stdout stays clean
for piping.

Every campaign can persist its records with ``--output records.jsonl`` so the
slow part (running experiments) is decoupled from analysis and reporting, the
same way the paper separates test execution from log analysis.

Campaign subcommands execute through the parallel engine: ``--jobs N`` fans
the plan out over N worker processes (``--jobs 0`` = one per CPU) with
results identical to a sequential run, and ``--resume PATH`` streams records
to an append-only checkpoint at PATH, skipping specs already recorded there —
a killed campaign picks up where it left off. ``--sut`` selects the system
under test by registry name (``jailhouse``, ``bao-like``, ``no-isolation``,
or any plugin-registered variant); spec identities do not depend on the SUT,
so the same checkpoint drives campaigns against every variant. The engine
builds one fresh system under test per prefix family and forks the family's
other members from its snapshot, without changing any record — see the
README's Performance guide.

Every campaign runs supervised under one
:class:`~repro.core.policy.RunPolicy`, the same one the library and the
fleet worker use: a spec that crashes, raises or hangs is retried and then
recorded as ``infra_crash``/``infra_timeout`` instead of aborting the run.
``--timeout``, ``--retries`` and ``--max-worker-restarts`` adjust it —
over the config's ``[campaign]`` keys for ``run`` and ``fleet-worker``,
over the defaults (one retry, eight worker restarts, no timeout) for
``fig3`` and ``campaign``.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.streaming import (
    PAPER_FIGURE3_REFERENCE,
    StreamingAnalyzer,
    analyze_records,
    compare_to_dict,
)
from repro.core.outcomes import Outcome
from repro.core.policy import RunPolicy
from repro.core.recording import (
    DECODE_ERRORS,
    ExperimentRecord,
    RecordStore,
    record_lines,
)
from repro.core.registry import (
    CLASSIFIERS,
    FAULT_MODELS,
    GUESTS,
    RegistrySutFactory,
    SCENARIOS,
    SUTS,
    TARGETS,
    TRIGGERS,
    WORKLOADS,
)
from repro.core.analysis import outcome_distribution
from repro.errors import (
    AnalysisError,
    CampaignConfigError,
    FleetError,
    ReproError,
)
from repro.hypervisor.traps import ALL_HANDLERS
from repro.rng import seeded_rng

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.targets import InjectionTarget

# The campaign stack (plans, configs, the engine and the simulator below
# them) is imported inside the functions that use it, so that the commands
# that read records, and ``--help``, load none of it.

#: Figure-3 reference shares used for side-by-side reporting.
PAPER_FIGURE3 = PAPER_FIGURE3_REFERENCE


def _build_target(handler: str, cpu: Optional[int]) -> InjectionTarget:
    from repro.core.targets import InjectionTarget

    cpus = None if cpu is None else {cpu}
    if handler == "all":
        return InjectionTarget(handlers=tuple(ALL_HANDLERS),
                               cpu_filter=frozenset(cpus) if cpus else None)
    return InjectionTarget(handlers=(handler,),
                           cpu_filter=frozenset(cpus) if cpus else None)


def _refuse_directories(*paths: Optional[str]) -> None:
    """Fail before any work starts when a record file path is a directory.

    Opening it would fail only after the campaign ran, the fleet was waited
    for or the ``watch`` dashboard started serving.
    """
    for path in paths:
        if path and Path(path).is_dir():
            raise IsADirectoryError(errno.EISDIR, "Is a directory", path)


def _port(text: str) -> int:
    """argparse type of a TCP port: an integer in 0-65535 (0 = ephemeral)."""
    if not text.isdecimal() or int(text) > 65535:
        raise argparse.ArgumentTypeError(
            f"invalid port {text!r}: not an integer in 0-65535")
    return int(text)


def _seconds(text: str) -> float:
    """argparse type of a duration: a finite number of seconds >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"invalid duration {text!r}: not a finite number of seconds >= 0")
    return value


def _coordinator_url(text: str) -> str:
    """argparse type of a fleet coordinator URL, checked by FleetClient."""
    from repro.fleet.protocol import FleetClient
    try:
        FleetClient(text)
    except FleetError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _save_records(result, output: Optional[str]) -> None:
    if output:
        count = result.save(output)
        print(f"saved {count} records to {output}")


class _ProgressPrinter:
    """Per-experiment progress lines on stderr, optionally throttled.

    Progress goes to stderr so stdout carries only the report — piping
    ``repro-fi analyze --format json`` (or a campaign summary) into ``jq``
    or a file never interleaves live lines into the payload. With
    ``--progress-interval`` only one line per interval prints; the final
    completion always prints so a finished campaign never looks stuck at
    its last throttle window.
    """

    def __init__(self, interval: float = 0.0) -> None:
        self.interval = interval
        self._last_printed = float("-inf")

    def __call__(self, snapshot, result) -> None:
        now = time.monotonic()
        final = snapshot.completed >= snapshot.total
        if (not final and self.interval > 0
                and now - self._last_printed < self.interval):
            return
        self._last_printed = now
        print(f"  {snapshot.format_line()}  {result.outcome.value}",
              file=sys.stderr)


def _sut_factory(args, default: "str | RegistrySutFactory" = "jailhouse"):
    """Resolve the ``--sut`` flag (a registry key) to a picklable factory."""
    key = getattr(args, "sut", None)
    if key is not None:
        return RegistrySutFactory(key)
    if isinstance(default, str):
        return RegistrySutFactory(default)
    return default


def _policy(args, base: RunPolicy = RunPolicy()) -> RunPolicy:
    """``base`` with the ``--timeout``/``--retries``/``--max-worker-restarts``
    flags that were given applied over it.

    ``run`` and ``fleet-worker`` pass the campaign config's policy, ``fig3``
    and ``campaign`` the default. ``RunPolicy`` checks the result, so a bad
    flag value is a :class:`~repro.errors.CampaignError` (exit 1).
    """
    flags = {"timeout_s": args.timeout, "retries": args.retries,
             "max_worker_restarts": args.max_worker_restarts}
    return replace(base, **{key: value for key, value in flags.items()
                            if value is not None})


def _observability(plan, args):
    """Build the telemetry bus, hub and watch server the flags ask for.

    Returns ``(telemetry, hub, server)`` — any of them ``None`` when the
    corresponding flag is absent. ``--watch`` without ``--telemetry`` still
    gets a (sink-less) bus so the SSE event tail works; a bare campaign gets
    ``(None, None, None)`` and the engine's hot path stays untouched.
    """
    telemetry_path = getattr(args, "telemetry", None)
    watch_port = getattr(args, "watch", None)
    if not telemetry_path and watch_port is None:
        return None, None, None
    from repro.obs.telemetry import Telemetry

    telemetry = Telemetry(telemetry_path) if telemetry_path else None
    if watch_port is None:
        return telemetry, None, None
    from repro.obs.rollup import TelemetryHub
    from repro.obs.server import WatchServer

    hub = TelemetryHub()
    hub.set_campaign(plan.name, total=len(plan),
                     jobs=getattr(args, "jobs", 1))
    if telemetry is None:
        telemetry = Telemetry()
    telemetry.subscribe(hub.on_event)
    server = WatchServer(
        hub, host=getattr(args, "watch_host", None) or "127.0.0.1",
        port=watch_port, title=plan.name).start()
    print(f"watch dashboard: {server.url}  "
          f"(metrics: {server.url}/metrics.json)", file=sys.stderr)
    return telemetry, hub, server


def _run_plan(plan, args, sut_factory=None, classifier=None,
              policy: RunPolicy = RunPolicy()):
    """Execute a plan through the engine with the shared campaign flags.

    The supervision flags apply over ``policy`` (:func:`_policy`): a
    crashing or hanging spec is retried and then quarantined rather than
    taking the whole run down.
    """
    from repro.engine import CampaignEngine

    _refuse_directories(args.output, args.resume, args.telemetry)
    policy = _policy(args, policy)
    telemetry, hub, server = _observability(plan, args)
    callbacks = []
    if args.verbose:
        callbacks.append(
            _ProgressPrinter(getattr(args, "progress_interval", 0.0) or 0.0))
    if hub is not None:
        callbacks.append(hub.on_progress)
    if not callbacks:
        progress = None
    elif len(callbacks) == 1:
        progress = callbacks[0]
    else:
        def progress(snapshot, result, _callbacks=tuple(callbacks)):
            for callback in _callbacks:
                callback(snapshot, result)
    try:
        engine = CampaignEngine(
            plan,
            jobs=args.jobs,
            sut_factory=sut_factory if sut_factory is not None else _sut_factory(args),
            classifier=classifier,
            checkpoint_path=args.resume,
            resume=args.resume is not None,
            progress=progress,
            telemetry=telemetry,
            policy=policy,
        )
        result = engine.run()
        if hub is not None:
            hub.mark_done()
        if server is not None:
            linger = getattr(args, "watch_linger", 0.0) or 0.0
            if linger > 0:
                print(f"watch server lingering {linger:g} s at {server.url}",
                      file=sys.stderr)
                time.sleep(linger)
    finally:
        if server is not None:
            server.stop()
        if telemetry is not None:
            telemetry.close()
    stats = result.prefix_cache_stats()
    if stats["hits"] or stats["misses"]:
        executed = stats["hits"] + stats["misses"]
        print(f"prefix cache: {stats['hits']} hits / {stats['misses']} "
              f"misses ({stats['hits'] / executed:.0%} of family "
              f"members forked from a snapshot)", file=sys.stderr)
    if engine.reoffered:
        print(f"re-offered {engine.reoffered} previously quarantined "
              f"spec(s) from {engine.quarantine.path}", file=sys.stderr)
    if engine.infra_counts:
        summary = ", ".join(f"{kind}={count}" for kind, count
                            in sorted(engine.infra_counts.items()))
        print(f"fault tolerance: {summary}", file=sys.stderr)
    quarantined = result.quarantined()
    if quarantined:
        names = ", ".join(entry.spec_name for entry in quarantined)
        where = (f" (details: {engine.quarantine.path})"
                 if engine.quarantine is not None else "")
        print(f"WARNING: {len(quarantined)} spec(s) quarantined without a "
              f"verdict: {names}{where}", file=sys.stderr)
    return result


def cmd_golden(args: argparse.Namespace) -> int:
    from repro.core.campaign import Campaign
    from repro.core.plan import paper_figure3_plan

    plan = paper_figure3_plan(num_tests=1, duration=1.0)
    golden = Campaign(plan, sut_factory=_sut_factory(args)).golden_run(
        duration=args.duration, seed=args.seed)
    print("golden (fault-free) run")
    print(f"  duration          : {golden.duration:.0f} s")
    print(f"  outcome           : {golden.outcome.value}")
    print(f"  handler calls     : {golden.handler_calls}")
    print(f"  non-root cell out : {golden.target_cell_lines} lines")
    print(f"  root cell output  : {golden.root_cell_lines} lines")
    return 0 if golden.healthy else 1


def cmd_fig3(args: argparse.Namespace) -> int:
    from repro.core.plan import paper_figure3_plan
    from repro.core.report import format_figure3

    plan = paper_figure3_plan(num_tests=args.tests, duration=args.duration,
                              base_seed=args.seed)
    result = _run_plan(plan, args)
    print(format_figure3(result.to_records(), paper_reference=PAPER_FIGURE3))
    _save_records(result, args.output)
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.core.plan import IntensityLevel, build_intensity_plan
    from repro.core.report import format_campaign_summary

    intensity = IntensityLevel(args.intensity)
    target = _build_target(args.handler, args.cpu)
    plan = build_intensity_plan(
        intensity, target,
        num_tests=args.tests,
        scenario=SCENARIOS.build(args.scenario),
        duration=args.duration,
        base_seed=args.seed,
        name=args.name or f"cli-{intensity.value}-{target.describe()}",
    )
    result = _run_plan(plan, args)
    print(format_campaign_summary(result))
    _save_records(result, args.output)
    return 0


def _resolve_campaign_config(name_or_path: str, *,
                             tests: Optional[int] = None,
                             duration: Optional[float] = None,
                             seed: Optional[int] = None):
    """Load a campaign config from a file path or the catalog, with the
    shared ``--tests/--duration/--seed`` overrides applied. Used by
    ``run`` (local execution) and ``submit``/``serve`` (fleet execution),
    so a campaign means the same thing on every path."""
    from repro.core.config import catalog_config, load_campaign_config

    if Path(name_or_path).exists():
        config = load_campaign_config(name_or_path)
    else:
        try:
            config = catalog_config(name_or_path)
        except CampaignConfigError as exc:
            raise CampaignConfigError(
                f"{name_or_path!r} is neither a config file nor a catalog "
                f"entry. {exc}"
            ) from None
    if tests is not None:
        # For a random-sampling config the experiment count is sample_size,
        # not tests-per-grid-point; override whichever one sizes the run.
        if config.sampling == "random":
            config.sample_size = tests
        else:
            config.tests = tests
    if duration is not None:
        config.duration = duration
    if seed is not None:
        config.base_seed = seed
    return config


def cmd_run(args: argparse.Namespace) -> int:
    """Run a declarative campaign from a config file or catalog entry."""
    from repro.core.report import format_campaign_summary

    config = _resolve_campaign_config(args.config, tests=args.tests,
                                      duration=args.duration, seed=args.seed)
    plan = config.compile()
    if args.verbose:
        print(config.describe())
        print(plan.describe())
    result = _run_plan(
        plan, args,
        sut_factory=config.sut_factory(override=args.sut),
        classifier=config.build_classifier(),
        policy=config.policy,
    )
    print(format_campaign_summary(result))
    _save_records(result, args.output)
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    """Show every registered campaign part and catalog entry."""
    from repro.core.config import catalog_describe

    sections = [
        ("catalog campaigns (repro-fi run <name>)", catalog_describe()),
        ("SUTs (--sut / [campaign] sut)", SUTS.describe()),
        ("scenarios", SCENARIOS.describe()),
        ("injection targets", TARGETS.describe()),
        ("triggers", TRIGGERS.describe()),
        ("fault models", FAULT_MODELS.describe()),
        ("outcome classifiers", CLASSIFIERS.describe()),
        ("guests", GUESTS.describe()),
        ("workloads", WORKLOADS.describe()),
    ]
    for title, lines in sections:
        print(f"{title}:")
        for line in lines:
            print(f"  {line}")
        print()
    return 0


def _open_record_stream(path: str) -> Optional[Iterator[ExperimentRecord]]:
    """Open one validated streaming iterator over a record file.

    Returns ``None`` when the file is missing or holds no records; emptiness
    is detected by peeking at the first record (re-chained onto the
    iterator), so the file is read exactly once.
    """
    store = RecordStore(path)
    if not store.path.exists():
        return None
    records = store.iter_records()
    first = next(records, None)
    if first is None:
        return None
    return itertools.chain([first], records)


def _open_record_streams(
        paths: Sequence[str],
) -> Tuple[Dict[str, Iterator[ExperimentRecord]], List[str]]:
    """Open one validated stream per campaign file, keyed by a unique name.

    Shared by ``compare`` and ``seooc``: every missing or empty path becomes
    a problem string (callers treat any problem as a hard error — a typo'd
    path must never silently drop a campaign), the same file given twice is
    rejected rather than double-counted, and distinct files whose stems
    collide fall back to their full paths as names.
    """
    streams: Dict[str, Iterator[ExperimentRecord]] = {}
    problems: List[str] = []
    seen_files = set()
    for path in paths:
        resolved = Path(path).resolve()
        if resolved in seen_files:
            problems.append(f"record file given more than once: {path}")
            continue
        seen_files.add(resolved)
        records = _open_record_stream(path)
        if records is None:
            kind = ("does not exist" if not Path(path).exists()
                    else "contains no records")
            problems.append(f"record file {kind}: {path}")
            continue
        name = Path(path).stem
        if name in streams:
            name = path         # stem collision across directories
        streams[name] = records
    return streams, problems


def cmd_report(args: argparse.Namespace) -> int:
    from repro.core.report import (
        format_distribution,
        format_figure3,
        format_management_report,
    )

    records = _open_record_stream(args.records)
    if records is None:
        print(f"no records found in {args.records}", file=sys.stderr)
        return 1
    # One streaming pass: each style consumes the iterator exactly once.
    if args.style == "figure3":
        print(format_figure3(records, paper_reference=PAPER_FIGURE3))
    elif args.style == "management":
        print(format_management_report(records, title=f"records: {args.records}"))
    else:
        print(format_distribution(outcome_distribution(records),
                                  title=f"records: {args.records}"))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    store = RecordStore(args.records)
    if not store.path.exists():
        print(f"error: record file does not exist: {args.records}",
              file=sys.stderr)
        return 1
    analysis = analyze_records(
        store.iter_records(errors="skip" if args.skip_malformed else "strict"),
        group_key=args.group_by,
        convergence_outcome=(Outcome(args.convergence)
                             if args.convergence else None),
        source=args.records,
    )
    skipped = 0
    if args.skip_malformed:
        # count() counts every non-blank line, parsed or not, so the
        # difference is exactly how many lines the skip policy dropped —
        # never silently: the analysis must not look complete when it isn't.
        skipped = store.count() - analysis.total
        if skipped:
            print(f"warning: skipped {skipped} malformed record line(s) "
                  f"in {args.records}", file=sys.stderr)
    if analysis.total == 0:
        print(f"no records found in {args.records}", file=sys.stderr)
        return 1
    if args.format == "json":
        payload = analysis.to_dict()
        if args.skip_malformed:
            payload["skipped_lines"] = skipped
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "markdown":
        from repro.core.report import format_analysis_markdown

        print(format_analysis_markdown(analysis))
    else:
        from repro.core.report import format_analysis

        print(format_analysis(analysis, title=f"records: {args.records}"))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    if len(args.records) < 2:
        print("error: compare needs at least two record files",
              file=sys.stderr)
        return 2
    streams, problems = _open_record_streams(args.records)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    analyses = {name: StreamingAnalyzer().extend(records)
                for name, records in streams.items()}
    if args.format == "json":
        print(json.dumps(
            compare_to_dict(analyses, paper_reference=PAPER_FIGURE3),
            indent=2, sort_keys=True))
    else:
        from repro.core.report import format_campaign_comparison

        print(format_campaign_comparison(analyses,
                                         paper_reference=PAPER_FIGURE3))
    return 0


def _tail_lines(path: Path, *, poll_s: float, deadline: float,
                on_rotate=None):
    """Yield complete lines appended to ``path`` until ``deadline``.

    Reads from a remembered byte offset and only yields newline-terminated
    lines, without their newline and blank ones included (the caller reads
    them through ``record_lines``), so a record the campaign is mid-way
    through writing is never parsed half-done; the partial tail stays
    buffered until its newline arrives. The file may not exist yet — the
    tailer waits for it. Bytes that are not UTF-8 decode as
    ``DECODE_ERRORS`` stand-ins, so the caller's
    ``ExperimentRecord.from_json`` rejects that one line.

    The file shrinking under the reader (rotation, truncation, or a
    checkpoint that its torn-tail repair or stale-record pruning rewrote
    shorter) is tolerated: the tailer re-seeks to offset 0, drops its
    partial-line buffer, and calls ``on_rotate(previous_offset, new_size)``
    so the caller can log it.
    """
    offset = 0
    buffer = b""
    while True:
        if path.exists():
            size = path.stat().st_size
            if size < offset:
                if on_rotate is not None:
                    on_rotate(offset, size)
                offset = 0
                buffer = b""
            with path.open("rb") as handle:
                handle.seek(offset)
                chunk = handle.read()
            if chunk:
                offset += len(chunk)
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    yield line.decode("utf-8", DECODE_ERRORS)
        if time.monotonic() >= deadline:
            return
        time.sleep(poll_s)


def cmd_watch(args: argparse.Namespace) -> int:
    """Serve the live dashboard for a record file another process writes.

    This is the detached-monitor mode: a campaign checkpointing to
    ``records.jsonl`` (via ``--resume`` or ``--output``) can be watched from
    a second terminal — or a CI job — without the campaign knowing. The
    in-process variant is ``--watch`` on the campaign subcommands.
    """
    from repro.engine.aggregate import LiveAggregator
    from repro.obs.rollup import TelemetryHub
    from repro.obs.server import WatchServer
    from repro.obs.telemetry import Telemetry

    _refuse_directories(args.records)
    records_path = Path(args.records)
    hub = TelemetryHub()
    hub.set_campaign(records_path.stem, total=args.total,
                     source=str(records_path))
    bus = Telemetry()
    bus.subscribe(hub.on_event)

    def on_rotate(previous_offset: int, size: int) -> None:
        print(f"warning: {records_path} shrank from {previous_offset} to "
              f"{size} bytes (rotated or truncated); re-tailing from the "
              f"start", file=sys.stderr)
        # repro: allow[telemetry-guard] -- the hub subscribed right above keeps this bus permanently active
        bus.emit("file_rotated", path=str(records_path),
                 previous_offset=previous_offset, size=size)

    aggregator = LiveAggregator(args.total)
    deadline = (time.monotonic() + args.timeout
                if args.timeout is not None else float("inf"))
    with WatchServer(hub, host=getattr(args, "watch_host", None) or "127.0.0.1",
                     port=args.port,
                     title=f"watch: {records_path.name}") as server:
        print(f"watch dashboard: {server.url}  "
              f"(metrics: {server.url}/metrics.json)", file=sys.stderr)
        seen = 0
        try:
            for _, line in record_lines(_tail_lines(
                    records_path, poll_s=args.poll, deadline=deadline,
                    on_rotate=on_rotate)):
                try:
                    record = ExperimentRecord.from_json(line)
                except AnalysisError as exc:
                    # from_json words a JSON error "malformed record
                    # line: ..." itself.
                    reason = str(exc).removeprefix("malformed record line: ")
                    print(f"warning: skipping malformed record line: {reason}",
                          file=sys.stderr)
                    continue
                result = record.to_result()
                hub.on_progress(aggregator.update(result), result)
                seen += 1
                if args.total and seen >= args.total:
                    break
        except KeyboardInterrupt:
            pass
        hub.mark_done()
    if seen == 0:
        print(f"no records observed in {records_path}", file=sys.stderr)
        return 1
    print(aggregator.snapshot().summary())
    return 0


def cmd_bench_history(args: argparse.Namespace) -> int:
    """Render the perf trajectory of the committed ``BENCH_*.json`` files."""
    from repro.obs.bench_history import (
        collect_bench_history,
        format_history_markdown,
        format_history_text,
    )

    history = collect_bench_history(args.root, include_git=not args.no_git)
    if args.format == "json":
        print(json.dumps(history.to_dict(), indent=2, sort_keys=True))
    elif args.format == "markdown":
        print(format_history_markdown(history, metric_filter=args.metric))
    else:
        print(format_history_text(history, metric_filter=args.metric))
    return 0


def cmd_seooc(args: argparse.Namespace) -> int:
    # Every path must exist, contain records, and appear only once: the
    # evidence report backs a certification argument, so a typo'd path
    # silently dropping a whole campaign (with exit 0) — or the same file
    # double-counted under two names — is the worst possible failure mode.
    records_by_campaign, problems = _open_record_streams(args.records)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    from repro.safety.evidence import build_evidence_report

    report = build_evidence_report(records_by_campaign)
    print(report.render())
    return 0 if report.certification_ready else 2


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the fleet coordinator until interrupted (or --until-done)."""
    from repro.fleet.coordinator import FleetCoordinator, FleetServer
    from repro.obs.telemetry import Telemetry

    state_dir = Path(args.state_dir)
    telemetry = Telemetry(args.telemetry) if args.telemetry else None
    hub = watch_server = None
    if args.watch is not None:
        from repro.obs.rollup import TelemetryHub
        from repro.obs.server import WatchServer

        hub = TelemetryHub()
        hub.set_campaign("fleet", total=0, source=str(state_dir))
        if telemetry is None:
            telemetry = Telemetry()
        telemetry.subscribe(hub.on_event)
    coordinator = FleetCoordinator(
        state_dir,
        lease_ttl_s=args.lease_ttl,
        heartbeat_interval_s=args.heartbeat_interval,
        steal_after_s=args.steal_after,
        shard_size=args.shard_size,
        host_failure_limit=args.host_failure_limit,
        telemetry=telemetry,
    )
    if hub is not None:
        # Feed each freshly merged record into the hub's aggregate view, so
        # the fleet dashboard shows live outcome bars, not just merge counts.
        from repro.engine.aggregate import LiveAggregator

        aggregator = LiveAggregator(0)

        def on_record(record: ExperimentRecord) -> None:
            result = record.to_result()
            hub.on_progress(aggregator.update(result), result)

        coordinator.on_record = on_record
    if args.resume:
        recovered = coordinator.resume()
        print(f"resumed {recovered} campaign(s) from "
              f"{coordinator.state_path}", file=sys.stderr)
    elif coordinator.state_path.exists():
        raise FleetError(
            f"{coordinator.state_path} already holds fleet state; pass "
            f"--resume to recover it or point --state-dir somewhere fresh "
            f"(refusing to silently overwrite journaled campaigns)")
    for entry in args.config or []:
        campaign_id = coordinator.submit(_resolve_campaign_config(entry))
        print(f"campaign {campaign_id} queued", file=sys.stderr)
    server = FleetServer(coordinator, host=args.host,
                         port=args.port).start()
    try:
        if hub is not None:
            watch_server = WatchServer(
                hub, host=getattr(args, "watch_host", None) or "127.0.0.1",
                port=args.watch, title="repro-fi fleet").start()
            print(f"watch dashboard: {watch_server.url}  "
                  f"(metrics: {watch_server.url}/metrics.json)",
                  file=sys.stderr)
        print(f"fleet coordinator: {server.url}  (state: {state_dir})",
              file=sys.stderr)
        print(f"workers join with: repro-fi fleet-worker {server.url}",
              file=sys.stderr)
        while True:
            time.sleep(0.2)
            if args.until_done and coordinator.all_done():
                # Keep serving briefly so waiting submitters observe the
                # done state and download their records before we go away.
                print(f"all campaigns complete; lingering "
                      f"{args.linger:g} s for waiting clients",
                      file=sys.stderr)
                time.sleep(args.linger)
                break
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    finally:
        if watch_server is not None:
            watch_server.stop()
        server.stop()
        if telemetry is not None:
            telemetry.close()
    status = coordinator.status()
    for campaign in status["campaigns"]:
        print(f"  {campaign['campaign_id']}: {campaign['merged']}/"
              f"{campaign['total']} merged -> {campaign['records']}")
    return 0


def cmd_fleet_worker(args: argparse.Namespace) -> int:
    """Run one worker agent against a coordinator URL."""
    from repro.fleet.worker import FleetWorkerAgent

    _policy(args)              # reject bad flag values before joining a fleet
    seeded_rng(0)              # ... and refuse to join without numpy
    agent = FleetWorkerAgent(
        args.url,
        host=args.name,
        jobs=args.jobs,
        policy=functools.partial(_policy, args),
        sut=args.sut,
        poll_s=args.poll,
        offline_grace_s=args.offline_grace,
        until_done=args.until_done,
        max_shards=args.max_shards,
        log=(lambda message: print(message, file=sys.stderr))
        if args.verbose else None,
    )
    try:
        stats = agent.run()
    except KeyboardInterrupt:
        agent.stop()
        stats = dict(agent.stats)
        print("interrupted", file=sys.stderr)
    print(f"worker {agent.host}: {stats['shards']} shard(s), "
          f"{stats['records']} record(s) submitted "
          f"({stats['merged']} merged, {stats['duplicates']} duplicate)")
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a campaign to a running coordinator; optionally wait for it."""
    from repro.fleet.protocol import FleetClient

    _refuse_directories(args.output)
    config = _resolve_campaign_config(args.config, tests=args.tests,
                                      duration=args.duration, seed=args.seed)
    client = FleetClient(args.url)
    response = client.submit_campaign(config=config.to_dict())
    campaign_id = response["campaign_id"]
    print(f"campaign {campaign_id} submitted to {args.url}")
    if not args.wait:
        return 0
    last_merged = -1
    while True:
        status = client.status()
        mine = [campaign for campaign in status["campaigns"]
                if campaign["campaign_id"] == campaign_id]
        if not mine:
            raise FleetError(
                f"coordinator no longer reports campaign {campaign_id!r} "
                f"(restarted without --resume?)")
        campaign = mine[0]
        if campaign["merged"] != last_merged:
            last_merged = campaign["merged"]
            print(f"  {campaign['merged']}/{campaign['total']} merged",
                  file=sys.stderr)
        if campaign["done"]:
            break
        time.sleep(args.poll)
    print(f"campaign {campaign_id} complete")
    if args.output:
        count = RecordStore(args.output).replace_all(
            client.records(campaign_id))
        print(f"saved {count} records to {args.output}")
    return 0


def cmd_fleet_status(args: argparse.Namespace) -> int:
    """One-shot fleet status from a running coordinator."""
    from repro.fleet.protocol import FleetClient

    status = FleetClient(args.url).status()
    if args.format == "json":
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    shards = status["shards"]
    print(f"fleet at {args.url}: {status['state']}  "
          f"(lease TTL {status['lease_ttl_s']:g}s, heartbeat "
          f"{status['heartbeat_interval_s']:g}s, shard size "
          f"{status['shard_size']})")
    print(f"shards: {shards['pending']} pending, {shards['leased']} leased, "
          f"{shards['done']} done")
    print("campaigns:")
    for campaign in status["campaigns"]:
        state = "done" if campaign["done"] else "running"
        print(f"  {campaign['campaign_id']}: {campaign['merged']}/"
              f"{campaign['total']} merged  [{state}]")
    if not status["campaigns"]:
        print("  (none submitted)")
    print("hosts:")
    for host in status["hosts"]:
        flags = " QUARANTINED" if host["quarantined"] else ""
        print(f"  {host['host_id']} {host['host']} (pid {host['pid']}): "
              f"{host['shards_done']} shard(s) done, "
              f"{host['failures']} lease(s) lost{flags}")
    if not status["hosts"]:
        print("  (none joined)")
    for lease in status["leases"]:
        print(f"  lease {lease['lease_id']}: shard {lease['shard_id']} -> "
              f"{lease['host']} ({lease['completed']} done)")
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    """Merge record stores from several hosts, deduped by spec identity."""
    from repro.fleet.merge import merge_stores

    for path in args.inputs:
        if not Path(path).exists():
            print(f"error: record file does not exist: {path}",
                  file=sys.stderr)
            return 1
    stats = merge_stores(args.inputs, args.output)
    for path, count in stats.per_input:
        print(f"  {path}: {count} record(s)", file=sys.stderr)
    print(f"merged {stats.read} record(s) from {stats.inputs} file(s) into "
          f"{args.output}: {stats.written} unique, "
          f"{stats.duplicates} duplicate(s) collapsed")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Static contract checker over the source tree (never imports it)."""
    from repro.check import (Project, load_baseline, render_text, run_check,
                             to_payload, write_baseline)
    from repro.check.baseline import DEFAULT_BASELINE_NAME

    root = Path(args.root).resolve() if args.root else None
    project = Project.load(root=root)
    baseline_path = (Path(args.baseline) if args.baseline
                     else Path(project.root) / DEFAULT_BASELINE_NAME)
    rules = args.rule or None
    if args.write_baseline:
        result = run_check(project, rules)
        count = write_baseline(baseline_path, result.active)
        print(f"wrote {count} finding(s) to {baseline_path}")
        return 0
    result = run_check(project, rules, baseline=load_baseline(baseline_path))
    if args.format == "json":
        print(json.dumps(to_payload(result), indent=2))
    else:
        print(render_text(result, verbose=args.verbose))
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fi",
        description="Fault-injection assessment of a partitioning hypervisor "
                    "(reproduction of Cinque et al., DSN 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sut_flag(command: argparse.ArgumentParser) -> None:
        command.add_argument("--sut", metavar="KEY",
                            help="system under test, by registry name "
                                 "(jailhouse, bao-like, no-isolation, ...); "
                                 "see 'repro-fi list'")

    def add_engine_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument("--output", help="write records to this .jsonl file")
        command.add_argument("--jobs", type=int, default=1,
                             help="worker processes (0 = one per CPU)")
        command.add_argument("--resume", metavar="PATH",
                             help="checkpoint records to PATH and skip specs "
                                  "already recorded there")
        command.add_argument("--timeout", type=float, default=None,
                             metavar="SECONDS",
                             help="per-experiment wall-clock watchdog: a "
                                  "hung experiment is killed after SECONDS "
                                  "and retried, then quarantined as "
                                  "infra_timeout (default: the config's "
                                  "timeout_s for run, else no timeout)")
        command.add_argument("--retries", type=int, default=None,
                             metavar="N",
                             help="re-run a crashed/hung/erroring spec up "
                                  "to N times (same seed, exponential "
                                  "backoff) before quarantining it "
                                  "(default: the config's retries for "
                                  "run, else 1)")
        command.add_argument("--max-worker-restarts", type=int, default=None,
                             metavar="N",
                             help="campaign-wide budget of unexpected "
                                  "worker-death respawns (default: the "
                                  "config's max_worker_restarts for run, "
                                  "else 8); deliberate --timeout kills are "
                                  "not counted")
        command.add_argument("--verbose", action="store_true")
        command.add_argument("--progress-interval", type=_seconds, default=0.0,
                             metavar="SECONDS",
                             help="with --verbose: print at most one "
                                  "progress line per SECONDS (default 0: "
                                  "every completion); the final line always "
                                  "prints")
        command.add_argument("--telemetry", metavar="PATH",
                             help="write structured telemetry events "
                                  "(repro-telemetry/v1 JSONL) to PATH: "
                                  "campaign start/end, per-experiment "
                                  "timing with prefix/post-injection "
                                  "split, checkpoint flushes")
        command.add_argument("--watch", nargs="?", const=0, type=_port,
                             default=None, metavar="PORT",
                             help="serve a live dashboard while the "
                                  "campaign runs: / (HTML), /metrics.json, "
                                  "/dashboard.txt, /events (SSE); PORT "
                                  "defaults to an ephemeral one, printed "
                                  "on stderr")
        command.add_argument("--watch-host", metavar="ADDR", default=None,
                             help="bind address for the --watch dashboard "
                                  "(default 127.0.0.1: loopback only; "
                                  "binding 0.0.0.0 exposes the dashboard "
                                  "to the network — it has no auth)")
        command.add_argument("--watch-linger", type=_seconds, default=0.0,
                             metavar="SECONDS",
                             help="keep the --watch server up SECONDS "
                                  "after the campaign finishes (so CI or "
                                  "a slow browser can grab the final "
                                  "state)")

    golden = sub.add_parser("golden", help="profile a fault-free run")
    golden.add_argument("--duration", type=float, default=20.0)
    golden.add_argument("--seed", type=int, default=999_983)
    add_sut_flag(golden)
    golden.set_defaults(func=cmd_golden)

    fig3 = sub.add_parser("fig3", help="run the paper's Figure-3 campaign")
    fig3.add_argument("--tests", type=int, default=40)
    fig3.add_argument("--duration", type=float, default=60.0)
    fig3.add_argument("--seed", type=int, default=0)
    add_sut_flag(fig3)
    add_engine_flags(fig3)
    fig3.set_defaults(func=cmd_fig3)

    campaign = sub.add_parser("campaign", help="run a custom campaign")
    campaign.add_argument("--intensity", choices=["medium", "high"],
                          default="medium")
    campaign.add_argument("--handler",
                          choices=list(ALL_HANDLERS) + ["all"],
                          default="arch_handle_trap")
    campaign.add_argument("--cpu", type=int, default=1,
                          help="CPU filter (omit with --cpu -1 for no filter)")
    campaign.add_argument("--scenario", metavar="KEY",
                          default="steady-state",
                          help="scenario, by registry name (steady-state, "
                               "lifecycle, repeated-lifecycle, "
                               "park-and-recover); see 'repro-fi list'")
    campaign.add_argument("--tests", type=int, default=20)
    campaign.add_argument("--duration", type=float, default=30.0)
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--name")
    add_sut_flag(campaign)
    add_engine_flags(campaign)
    campaign.set_defaults(func=cmd_campaign)

    run = sub.add_parser(
        "run", help="run a declarative campaign from a TOML/JSON config "
                    "file or a catalog entry")
    run.add_argument("config",
                     help="path to a campaign config (.toml/.json) or a "
                          "catalog name (see 'repro-fi list')")
    run.add_argument("--tests", type=int,
                     help="override the config's per-combination test count "
                          "(for random-sampling configs: the sample size)")
    run.add_argument("--duration", type=float,
                     help="override the config's per-test duration")
    run.add_argument("--seed", type=int,
                     help="override the config's base seed")
    add_sut_flag(run)
    add_engine_flags(run)
    run.set_defaults(func=cmd_run)

    listing = sub.add_parser(
        "list", help="show registered fault models, triggers, targets, "
                     "scenarios, SUTs, and catalog campaigns")
    listing.set_defaults(func=cmd_list)

    report = sub.add_parser("report", help="render reports from saved records")
    report.add_argument("records", help="path to a .jsonl record file")
    report.add_argument("--style", choices=["distribution", "figure3", "management"],
                        default="distribution")
    report.set_defaults(func=cmd_report)

    analyze = sub.add_parser(
        "analyze",
        help="streaming analysis of saved records (single pass, O(1) memory)")
    analyze.add_argument("records", help="path to a .jsonl record file")
    analyze.add_argument("--group-by", metavar="FIELD",
                         choices=sorted(ExperimentRecord.__dataclass_fields__),
                         help="break the analysis down by a record field "
                              "(target, intensity, fault_model, scenario, "
                              "seed, ...)")
    analyze.add_argument("--format", choices=["text", "json", "markdown"],
                         default="text",
                         help="text (default; identical to 'repro-fi report' "
                              "when no extra analyses are requested), "
                              "machine-readable JSON, or Markdown")
    analyze.add_argument("--convergence", metavar="OUTCOME",
                         choices=[outcome.value for outcome in Outcome],
                         help="add a convergence curve: the share of OUTCOME "
                              "after the first 10/20/50/100/... records "
                              "(how many tests the campaign needed before "
                              "its shares stabilized)")
    analyze.add_argument("--skip-malformed", action="store_true",
                         help="skip malformed record lines instead of "
                              "failing on the first one (for salvaging "
                              "stores from killed campaigns)")
    analyze.set_defaults(func=cmd_analyze)

    compare = sub.add_parser(
        "compare",
        help="side-by-side outcome comparison of two or more campaigns")
    compare.add_argument("records", nargs="+",
                         help="two or more .jsonl record files (one per "
                              "campaign); deltas are relative to the first")
    compare.add_argument("--format", choices=["text", "json"], default="text")
    compare.set_defaults(func=cmd_compare)

    watch = sub.add_parser(
        "watch",
        help="serve the live dashboard for a record file another process "
             "is writing (detached monitor for --resume/--output campaigns)")
    watch.add_argument("records",
                       help="path to the .jsonl record file to tail "
                            "(may not exist yet)")
    watch.add_argument("--port", type=_port, default=0,
                       help="HTTP port (default: ephemeral, printed on "
                            "stderr)")
    watch.add_argument("--watch-host", metavar="ADDR", default=None,
                       help="bind address (default 127.0.0.1: loopback "
                            "only; binding 0.0.0.0 exposes the dashboard "
                            "to the network — it has no auth)")
    watch.add_argument("--total", type=int, default=0,
                       help="expected experiment count (for progress "
                            "display; watch exits once reached)")
    watch.add_argument("--timeout", type=_seconds, default=None,
                       metavar="SECONDS",
                       help="exit after SECONDS (default: run until "
                            "interrupted or --total is reached)")
    watch.add_argument("--poll", type=_seconds, default=0.5,
                       metavar="SECONDS",
                       help="file poll interval (default 0.5)")
    watch.set_defaults(func=cmd_watch)

    bench_history = sub.add_parser(
        "bench-history",
        help="perf trajectory: every committed version of the BENCH_*.json "
             "reports, per-metric, flagged when entries span machines")
    bench_history.add_argument("--root", default=".",
                               help="repository root holding the "
                                    "BENCH_*.json files (default: .)")
    bench_history.add_argument("--format",
                               choices=["text", "json", "markdown"],
                               default="text")
    bench_history.add_argument("--metric", metavar="SUBSTRING",
                               help="only show metrics whose dotted name "
                                    "contains SUBSTRING")
    bench_history.add_argument("--no-git", action="store_true",
                               help="worktree files only; skip git history")
    bench_history.set_defaults(func=cmd_bench_history)

    seooc = sub.add_parser("seooc", help="build the SEooC evidence report")
    seooc.add_argument("records", nargs="+",
                       help="one or more .jsonl record files (one per campaign)")
    seooc.set_defaults(func=cmd_seooc)

    serve = sub.add_parser(
        "serve",
        help="run the fleet coordinator: accept campaign submissions, "
             "lease plan shards to fleet-worker agents (repro-fleet/v1), "
             "merge results idempotently, survive restarts via --resume")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1: loopback "
                            "only; bind 0.0.0.0 to accept workers from "
                            "other machines — the protocol has no auth, "
                            "so only on trusted networks)")
    serve.add_argument("--port", type=_port, default=0,
                       help="HTTP port (default: ephemeral, printed on "
                            "stderr)")
    serve.add_argument("--state-dir", default="fleet-state", metavar="DIR",
                       help="where campaign journal (state.json) and "
                            "per-campaign record checkpoints live "
                            "(default: fleet-state)")
    serve.add_argument("--resume", action="store_true",
                       help="recover journaled campaigns from --state-dir: "
                            "finished specs stay merged, only unfinished "
                            "work is re-offered")
    serve.add_argument("--config", action="append", metavar="CONFIG",
                       help="queue a campaign at startup (config path or "
                            "catalog name; repeatable); more can be "
                            "submitted later with 'repro-fi submit'")
    serve.add_argument("--shard-size", type=int, default=8, metavar="N",
                       help="max specs per lease shard (default 8); whole "
                            "prefix families stay together so each worker "
                            "runs each family's prefix once")
    serve.add_argument("--lease-ttl", type=_seconds, default=15.0,
                       metavar="SECONDS",
                       help="lease expires if not renewed by a heartbeat "
                            "within SECONDS (default 15); expired shards "
                            "requeue with exponential backoff")
    serve.add_argument("--heartbeat-interval", type=_seconds, default=5.0,
                       metavar="SECONDS",
                       help="heartbeat cadence workers are told to use "
                            "(default 5 = TTL/3: a lease survives two "
                            "dropped heartbeats, not three)")
    serve.add_argument("--steal-after", type=_seconds, default=None,
                       metavar="SECONDS",
                       help="an idle worker may steal a leased shard whose "
                            "holder reported no progress for SECONDS "
                            "(default: the lease TTL)")
    serve.add_argument("--host-failure-limit", type=int, default=2,
                       metavar="N",
                       help="quarantine a host (by name — rejoining does "
                            "not reset it) after it loses the same shard "
                            "N times (default 2)")
    serve.add_argument("--until-done", action="store_true",
                       help="exit once every submitted campaign is "
                            "complete (for CI and scripts; default: serve "
                            "until interrupted)")
    serve.add_argument("--linger", type=_seconds, default=3.0,
                       metavar="SECONDS",
                       help="with --until-done: keep serving SECONDS after "
                            "completion so 'submit --wait' clients can "
                            "fetch their records (default 3)")
    serve.add_argument("--telemetry", metavar="PATH",
                       help="write fleet telemetry events (host_joined, "
                            "lease_granted, lease_expired, host_lost, "
                            "shard_stolen, result_merged) to PATH")
    serve.add_argument("--watch", nargs="?", const=0, type=_port,
                       default=None, metavar="PORT",
                       help="serve the live dashboard (with a fleet card) "
                            "next to the coordinator")
    serve.add_argument("--watch-host", metavar="ADDR", default=None,
                       help="bind address for --watch (default 127.0.0.1)")
    serve.set_defaults(func=cmd_serve)

    fleet_worker = sub.add_parser(
        "fleet-worker",
        help="run one worker agent: join a coordinator, lease shards, run "
             "them through the campaign engine, submit the records back")
    fleet_worker.add_argument("url", type=_coordinator_url,
                              help="coordinator URL, e.g. "
                                   "http://127.0.0.1:8300")
    fleet_worker.add_argument("--name", default=None,
                              help="host label (default: hostname-pid); "
                                   "quarantine keys on it")
    fleet_worker.add_argument("--jobs", type=int, default=1,
                              help="worker processes per shard "
                                   "(0 = one per CPU)")
    fleet_worker.add_argument("--timeout", type=float, default=None,
                              metavar="SECONDS",
                              help="per-experiment watchdog; this, "
                                   "--retries and --max-worker-restarts "
                                   "override the leased config's policy, "
                                   "as they do under 'repro-fi run'")
    fleet_worker.add_argument("--retries", type=int, default=None,
                              metavar="N")
    fleet_worker.add_argument("--max-worker-restarts", type=int,
                              default=None, metavar="N")
    fleet_worker.add_argument("--poll", type=_seconds, default=1.0,
                              metavar="SECONDS",
                              help="how often to re-ask for work when "
                                   "none is offerable (default 1)")
    fleet_worker.add_argument("--offline-grace", type=_seconds,
                              default=60.0, metavar="SECONDS",
                              help="keep retrying an unreachable "
                                   "coordinator for SECONDS before giving "
                                   "up (default 60) — covers coordinator "
                                   "restarts")
    fleet_worker.add_argument("--until-done", action="store_true",
                              help="exit when the coordinator reports all "
                                   "campaigns done (default: keep polling "
                                   "for future campaigns)")
    fleet_worker.add_argument("--max-shards", type=int, default=None,
                              metavar="N",
                              help="exit after completing N shards")
    fleet_worker.add_argument("--verbose", action="store_true",
                              help="log joins, leases, and submissions to "
                                   "stderr")
    add_sut_flag(fleet_worker)
    fleet_worker.set_defaults(func=cmd_fleet_worker)

    submit = sub.add_parser(
        "submit",
        help="submit a campaign config to a running fleet coordinator")
    submit.add_argument("url", type=_coordinator_url, help="coordinator URL")
    submit.add_argument("config",
                        help="path to a campaign config (.toml/.json) or a "
                             "catalog name (see 'repro-fi list')")
    submit.add_argument("--tests", type=int,
                        help="override the config's test count")
    submit.add_argument("--duration", type=float,
                        help="override the config's per-test duration")
    submit.add_argument("--seed", type=int,
                        help="override the config's base seed")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the campaign completes")
    submit.add_argument("--poll", type=_seconds, default=1.0,
                        metavar="SECONDS",
                        help="status poll interval with --wait (default 1)")
    submit.add_argument("--output", metavar="PATH",
                        help="with --wait: download the merged records to "
                             "PATH when the campaign completes")
    submit.set_defaults(func=cmd_submit)

    fleet_status = sub.add_parser(
        "fleet-status",
        help="one-shot status of a running fleet coordinator")
    fleet_status.add_argument("url", type=_coordinator_url,
                              help="coordinator URL")
    fleet_status.add_argument("--format", choices=["text", "json"],
                              default="text")
    fleet_status.set_defaults(func=cmd_fleet_status)

    merge = sub.add_parser(
        "merge",
        help="merge record stores from several hosts into one, "
             "deduplicated by spec identity (same identity + different "
             "payload is a hard error)")
    merge.add_argument("inputs", nargs="+",
                       help="two or more .jsonl record files (one works "
                            "too: the merge is then a canonicalizing copy)")
    merge.add_argument("-o", "--output", required=True, metavar="PATH",
                       help="write the merged store to PATH (atomically)")
    merge.set_defaults(func=cmd_merge)

    check = sub.add_parser(
        "check",
        help="static contract checker: determinism, snapshot completeness, "
             "telemetry guards, lock discipline, wire-schema literals, and "
             "registry resolution, all via stdlib ast (exits nonzero on "
             "non-baselined findings)")
    check.add_argument("--rule", action="append", metavar="RULE",
                       help="run only RULE (repeatable; default: all rules)")
    check.add_argument("--format", choices=["text", "json"], default="text",
                       help="report format (json is the CI artifact)")
    check.add_argument("--baseline", metavar="PATH",
                       help="findings baseline to tolerate (default: "
                            "check_baseline.json at the project root)")
    check.add_argument("--write-baseline", action="store_true",
                       help="snapshot the currently-active findings as the "
                            "new baseline and exit 0")
    check.add_argument("--root", metavar="DIR",
                       help="project root to check (default: the repo this "
                            "package was loaded from)")
    check.add_argument("--verbose", action="store_true",
                       help="also list suppressed and baselined findings")
    check.set_defaults(func=cmd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "campaign" and args.cpu is not None and args.cpu < 0:
        args.cpu = None
    try:
        return args.func(args)
    except ReproError as exc:
        # Bad configs, unknown registry keys, malformed records, invalid
        # engine arguments, unreachable fleets: reported, never a traceback.
        # The class carries the exit code (2 = usage error, 1 = everything
        # else).
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        # A path the command cannot read or write, such as a directory
        # where a record file is expected: one line, like any other error.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via tests of main()
    sys.exit(main())
