"""In-memory span tracer wrapped around the public calls of each layer.

The benchmark never edits the program: :func:`install` replaces selected
public functions and methods with thin wrappers, from this file, inside the
traced process only. Each wrapper keeps a running total per span name —
calls, inclusive time and *self* time (inclusive minus the time of the
wrapped calls it made) — on a stack, so nested layers never count twice.
Spans at the experiment level and above are also kept as a timeline. The
whole record is written once, by :meth:`Tracer.dump`, when the run ends.

Counts that are not call counts come from public state: the campaign's
``prefix_cache_stats()``, ``Checkpoint.flushes`` and the delta-snapshot page
counters of ``PhysicalMemory``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

#: span name -> (module, attribute path) of every wrapped callable. A name
#: listed twice aggregates both callables under one layer.
SPANS = (
    ("config.load", "repro.cli", "load_campaign_config"),
    ("config.load", "repro.cli", "catalog_config"),
    ("config.compile", "repro.core.config", "CampaignConfig.compile"),
    ("engine.run", "repro.engine.runner", "CampaignEngine.run"),
    ("checkpoint.commit", "repro.engine.checkpoint", "Checkpoint.commit"),
    ("recording.replace_all", "repro.core.recording", "RecordStore.replace_all"),
    ("recording.write_all", "repro.core.recording", "RecordStore.write_all"),
    ("recording.to_json", "repro.core.recording", "ExperimentRecord.to_json"),
    ("recording.from_json", "repro.core.recording", "ExperimentRecord.from_json"),
    ("recording.iter_records", "repro.core.recording", "RecordStore.iter_records"),
    ("analysis.fold", "repro.cli", "analyze_records"),
    ("experiment.prefix", "repro.core.experiment", "Experiment.run_prefix"),
    ("experiment.suffix", "repro.core.experiment", "Experiment.run_from_snapshot"),
    ("outcomes.classify", "repro.core.outcomes", "OutcomeClassifier.classify"),
    ("sut.build", "repro.core.sut", "JailhouseSUT.__init__"),
    ("sut.setup", "repro.core.sut", "JailhouseSUT.setup"),
    ("sut.snapshot", "repro.core.sut", "JailhouseSUT.snapshot"),
    ("sut.fork", "repro.core.sut", "JailhouseSUT.fork_from_snapshot"),
    ("sut.run", "repro.core.sut", "JailhouseSUT.run"),
    ("sut.evidence", "repro.core.sut", "JailhouseSUT.evidence"),
    ("sut.lifecycle", "repro.core.sut", "JailhouseSUT.perform_cell_lifecycle"),
    ("sut.lifecycle", "repro.core.sut", "JailhouseSUT.destroy_inmate_cell"),
    ("board.advance", "repro.hw.board", "BananaPiBoard.advance"),
    ("guests.freertos_step", "repro.guests.freertos.kernel", "FreeRTOSKernel.step"),
    ("guests.linux_step", "repro.guests.linux", "LinuxGuest.step"),
    ("guests.resume_from_trap", "repro.guests.base", "GuestOS.resume_from_trap"),
    ("guests.nominal_registers", "repro.guests.base", "GuestOS.nominal_registers"),
    ("handlers.irqchip", "repro.hypervisor.handlers", "ArchHandlers.irqchip_handle_irq"),
    ("handlers.trap", "repro.hypervisor.handlers", "ArchHandlers.arch_handle_trap"),
    ("handlers.hvc", "repro.hypervisor.handlers", "ArchHandlers.arch_handle_hvc"),
    ("hypervisor.cli", "repro.hypervisor.cli", "JailhouseCli.enable"),
    ("hypervisor.cli", "repro.hypervisor.cli", "JailhouseCli.disable"),
    ("hypervisor.cli", "repro.hypervisor.cli", "JailhouseCli.cell_create"),
    ("hypervisor.cli", "repro.hypervisor.cli", "JailhouseCli.cell_load"),
    ("hypervisor.cli", "repro.hypervisor.cli", "JailhouseCli.cell_start"),
    ("hypervisor.cli", "repro.hypervisor.cli", "JailhouseCli.cell_shutdown"),
    ("hypervisor.cli", "repro.hypervisor.cli", "JailhouseCli.cell_destroy"),
    ("hypervisor.cli", "repro.hypervisor.cli", "JailhouseCli.cell_list"),
    ("injection.observe", "repro.core.injection", "FaultInjector.observe_call"),
    ("injection.apply", "repro.core.injection", "FaultInjector.apply_fault"),
)

#: Spans kept on the timeline (one entry per call): the coarse ones only,
#: so per-step spans cost a counter update and no allocation.
TIMELINE = frozenset({
    "cli.import", "cli.main", "config.load", "config.compile", "engine.run",
    "experiment.prefix", "experiment.suffix", "checkpoint.commit",
    "recording.write_all", "analysis.fold",
})


class Tracer:
    """Span totals per name, a timeline of coarse spans, and counters."""

    def __init__(self) -> None:
        # Each frame is [child seconds]; the root frame absorbs top-level spans.
        self.stack = [[0.0]]
        #: name -> [calls, inclusive seconds, self seconds]
        self.stats = {}
        self.timeline = []
        self.counters = {}
        self._checkpoints = []

    def stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, result)`` updates counters."""
        stat = self.stat(name)
        stack = self.stack
        timeline = self.timeline if name in TIMELINE else None
        clock = time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                stack[-1][0] += elapsed
                if timeline is not None:
                    timeline.append((name, started, started + elapsed,
                                     len(stack) - 1))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def iterator_span(self, name: str, fn):
        """Wrap a function returning an iterator: each ``next`` is a span."""
        step = self.span(name, next)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def timed():
                while True:
                    try:
                        yield step(inner)
                    except StopIteration:
                        return

            return timed()

        return wrapper

    def finish_counters(self) -> None:
        """Fold public end-of-run state into the counters."""
        self.counters["checkpoint.flushes"] = sum(
            checkpoint.flushes for checkpoint in self._checkpoints)

    def dump(self, path: str, *, started: float) -> None:
        """Write the trace as JSON, stamped with the process start time."""
        self.finish_counters()
        payload = {
            "started": started,
            "finished": time.monotonic(),
            "layers": {name: {"calls": calls, "total_s": total, "self_s": own}
                       for name, (calls, total, own) in self.stats.items()},
            "counters": self.counters,
            "timeline": [{"name": name, "start": start, "end": end,
                          "depth": depth}
                         for name, start, end, depth in self.timeline],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attribute


def _patch(owner, attribute: str, make) -> None:
    """Replace ``owner.attribute`` by ``make(function)``, keeping its kind."""
    raw = inspect.getattr_static(owner, attribute)
    if isinstance(raw, classmethod):
        setattr(owner, attribute, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attribute, make(raw))


def install(tracer: Tracer) -> list:
    """Wrap every callable in :data:`SPANS`; call after ``import repro.cli``.

    Returns the ``module:path`` of each callable the program no longer has:
    its span reads zero and its time falls to the calling layer, so a later
    refactor degrades the breakdown instead of breaking the benchmark.
    """
    count = tracer.count

    def engine_done(args, result):
        stats = result.prefix_cache_stats()
        count("workers.prefix_hits", stats["hits"])
        count("workers.prefix_misses", stats["misses"])

    def compiled(args, plan):
        count("config.specs", len(plan))

    def store_written(args, result):
        path = args[0].path
        if path.exists():
            count("recording.bytes_written", path.stat().st_size)

    def fault_applied(args, result):
        count("injection.faults_applied", len(args[0].records[-1].faults))

    hooks = {
        "engine.run": engine_done,
        "config.compile": compiled,
        "recording.replace_all": store_written,
        "recording.write_all": store_written,
        "injection.apply": fault_applied,
    }
    missing = []
    for name, module_name, path in SPANS:
        try:
            owner, attribute = _resolve(module_name, path)
            getattr(owner, attribute)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}:{path}")
            continue
        if name == "recording.iter_records":
            _patch(owner, attribute,
                   lambda fn, name=name: tracer.iterator_span(name, fn))
        else:
            _patch(owner, attribute,
                   lambda fn, name=name: tracer.span(name, fn,
                                                     hooks.get(name)))

    from repro.engine.checkpoint import Checkpoint
    from repro.hw.memory import PhysicalMemory

    checkpoint_init = Checkpoint.__init__

    @functools.wraps(checkpoint_init)
    def remember_checkpoint(self, *args, **kwargs):
        checkpoint_init(self, *args, **kwargs)
        tracer._checkpoints.append(self)

    Checkpoint.__init__ = remember_checkpoint

    for attribute in ("snapshot_state", "restore_state"):
        method = getattr(PhysicalMemory, attribute)

        def pages_delta(self, *args, _method=method, **kwargs):
            copied = self.snapshot_pages_copied
            reused = self.snapshot_pages_reused
            result = _method(self, *args, **kwargs)
            count("memory.snapshot_pages_copied",
                  self.snapshot_pages_copied - copied)
            count("memory.snapshot_pages_reused",
                  self.snapshot_pages_reused - reused)
            return result

        setattr(PhysicalMemory, attribute,
                functools.wraps(method)(pages_delta))
    return missing
