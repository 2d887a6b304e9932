"""The repository benchmark: the paper's campaigns, timed end to end.

    python3 perfbench/run.py --workload fig3-steady --seed 0 --seconds 25 --trace 0

Paths resolve from this file, so any working directory works; the program
under test is the checkout's ``src/`` tree. Every workload is a closed loop
with one client: one CLI process at a time (``python -m repro ... --jobs 1``),
the next started when the last has exited, for ``--seconds`` seconds and at
least three times. The seed feeds the CLI's ``--seed`` (campaigns) or the
generator of the record store (``analyze-store``; generation is not timed).

Host speed on a shared machine drifts by a quarter within a minute, and the
drift is shared by all CPU-bound work. This process therefore times
``calibrate()`` (the fixed spin loop of ``benchmarks/bench_hotpath.py``)
after every child process, and every time is reported in reference seconds:
the child's host seconds times ``REFERENCE_S`` over the mean of the two
``calibrate()`` times around it. The host seconds are printed as well.

``--trace 0`` prints the end-to-end metrics, each the median over the loop's
CLI processes:

* ``wall_s`` -- process start to exit, records flushed;
* ``setup_s`` -- process start until the first experiment could start
  (interpreter, ``import repro.cli``, argument parsing, config load and
  compile), from a probe process run before every other CLI process;
* ``throughput_per_s`` -- experiments (or records analysed) per ``wall_s``;
* ``peak_rss_mb`` -- the CLI process's own peak RSS, from ``os.wait4``.

Failed over attempted experiments is the result line's ``failed`` and
``attempted``. An experiment fails when its record is missing, classified
``infra_*``, does not match the compiled plan, or when the record file's
sha256 differs from the one pinned in ``pins.json`` (checked at the default
seed) or from the loop's first process. A non-zero exit fails all of them.

``--trace 1`` alternates untraced CLI processes with traced ones
(``child.py trace``, spans from :mod:`tracer`) and prints per-layer metrics of
the median traced process: the self time of each layer (the rows below add up
to ``trace.wall_s``, the remainder being ``unattributed_s``), the tracing
overhead, and deterministic counts. At the default seed the counts are
compared with ``pins.json`` and the number that differ is ``pins.counter_drift``.

Predicted effects (layer metric -> end-to-end metric, on / not on):

* ``startup.*``, ``cli.import_s`` -> ``setup_s`` on every workload, the
  largest share on the shortest run;
* ``config.compile_s``, ``config.specs`` -> ``setup_s`` on the campaigns,
  not on ``analyze-store``;
* ``engine.overhead_s``, ``workers.prefix_*`` -> ``wall_s`` on
  ``grid-checkpointed``, not on ``fig3-steady`` (0 prefix hits);
* ``checkpoint.*``, ``recording.replace_all_s``, ``recording.to_json_calls``,
  ``recording.bytes_written`` -> ``wall_s``, ``throughput_per_s`` on
  ``grid-checkpointed``; checkpoint flushes are zero elsewhere;
* ``experiment.*``, ``outcomes.classify_s`` -> ``wall_s`` on every campaign;
* ``sut.steps``, ``sut.us_per_step``, ``board.advance_s``, ``guests.*``,
  ``handlers.irqchip_*``, ``handlers.trap_*`` -> ``wall_s`` on
  ``fig3-steady``, less on ``lifecycle-high``;
* ``sut.fork_s``, ``sut.snapshot_s``, ``memory.*`` -> ``wall_s``,
  ``peak_rss_mb`` on ``grid-checkpointed``;
* ``sut.evidence_*``, ``sut.lifecycle_*``, ``handlers.hvc_*``,
  ``hypervisor.cli_*``, ``injection.*`` -> ``wall_s`` on ``lifecycle-high``,
  ``hypervisor.cli_calls`` near zero per experiment on ``fig3-steady``;
* ``recording.iter_records_s``, ``recording.from_json_s``,
  ``analysis.fold_s``, ``records`` -> ``wall_s``, ``throughput_per_s`` on
  ``analyze-store``, not on the campaigns.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
PINS = HERE / "pins.json"
DEFAULT_SEED = 0
#: ``calibrate()`` seconds on the reference host: times are scaled to it.
REFERENCE_S = 0.1

#: End-to-end metric -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer self-time rows of one traced process; they sum to trace.wall_s.
ROWS = (
    "cli.interpreter_s", "cli.import_s", "cli.main_s", "cli.exit_s",
    "config.load_s", "config.compile_s",
    "engine.overhead_s", "checkpoint.commit_s",
    "recording.replace_all_s", "recording.write_all_s", "recording.to_json_s",
    "recording.iter_records_s", "recording.from_json_s", "analysis.fold_s",
    "experiment.prefix_s", "experiment.suffix_s", "outcomes.classify_s",
    "sut.build_s", "sut.setup_s", "sut.snapshot_s", "sut.fork_s", "sut.run_s",
    "sut.evidence_s", "sut.lifecycle_s", "board.advance_s",
    "guests.freertos_step_s", "guests.linux_step_s",
    "guests.resume_from_trap_s", "guests.nominal_registers_s",
    "handlers.irqchip_s", "handlers.trap_s", "handlers.hvc_s",
    "hypervisor.cli_s", "injection.observe_s", "injection.apply_s",
    "unattributed_s",
)

#: Count metric -> the span whose calls it counts.
CALL_COUNTS = {
    "experiments": "experiment.suffix",
    "records": "recording.from_json",
    "recording.to_json_calls": "recording.to_json",
    "sut.builds": "sut.build",
    "sut.forks": "sut.fork",
    "sut.steps": "board.advance",
    "sut.evidence_calls": "sut.evidence",
    "sut.lifecycle_calls": "sut.lifecycle",
    "guests.nominal_registers_calls": "guests.nominal_registers",
    "handlers.irqchip_calls": "handlers.irqchip",
    "handlers.trap_calls": "handlers.trap",
    "handlers.hvc_calls": "handlers.hvc",
    "hypervisor.cli_calls": "hypervisor.cli",
    "injection.observe_calls": "injection.observe",
}

#: Counts the tracer collects from public state, with their units.
STATE_COUNTS = {
    "config.specs": "count",
    "workers.prefix_hits": "count",
    "workers.prefix_misses": "count",
    "checkpoint.flushes": "count",
    "recording.bytes_written": "bytes",
    "memory.snapshot_pages_copied": "count",
    "memory.snapshot_pages_reused": "count",
    "injection.faults_applied": "count",
}

PINNED_COUNTS = tuple(CALL_COUNTS) + tuple(STATE_COUNTS)

#: Per-layer metric -> unit (the --trace 1 result line).
PER_LAYER = {
    **{row: "s" for row in ROWS},
    "engine.run_s": "s",
    "sut.us_per_step": "us",
    "startup.python_s": "s",
    "startup.numpy_import_s": "s",
    "startup.repro_import_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.attributed_frac": "ratio",
    **{name: "count" for name in CALL_COUNTS},
    **STATE_COUNTS,
    "workers.prefix_hit_ratio": "ratio",
    "pins.counter_drift": "count",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Catalog name or config path for ``repro run``; empty for the store.
    config: str
    #: size -> ``--tests``/``--duration`` overrides, or the store's record count.
    sizes: Dict[str, Dict[str, float]]
    checkpointed: bool = False

    @property
    def campaign(self) -> bool:
        return bool(self.config)


WORKLOADS = {workload.name: workload for workload in (
    Workload(
        "fig3-steady",
        "Paper Figure-3 campaign (run fig3): _step is ~99% of time, so "
        "steps, guests, board and irq/trap handlers move wall_s here; prefix "
        "cache, checkpoint and lifecycle layers do not",
        "fig3", {"full": {"tests": 20, "duration": 10.0},
                 "tiny": {"tests": 2, "duration": 2.0}}),
    Workload(
        "lifecycle-high",
        "Paper high-root campaign: cell create/load/start/destroy under "
        "4-bit flips on root hvc+trap; hvc, jailhouse CLI, lifecycle, "
        "evidence and injection layers move wall_s here",
        "high-root", {"full": {"tests": 40, "duration": 5.0},
                      "tiny": {"tests": 2, "duration": 4.0}}),
    Workload(
        "grid-checkpointed",
        "Handler grid with --resume: the only prefix families (92% hits) and "
        "checkpoint flushes, so fork/snapshot, pages, commit and to_json "
        "move wall_s and throughput here and nowhere else",
        "examples/campaign_handler_grid.toml",
        {"full": {"tests": 4, "duration": 1.0},
         "tiny": {"tests": 1, "duration": 1.0}},
        checkpointed=True),
    Workload(
        "analyze-store",
        "analyze --format json over a seeded synthetic store: the read side "
        "(iter_records, from_json, fold) moves wall_s and throughput here "
        "and on no campaign; set-up is imports only",
        "", {"full": {"records": 30000}, "tiny": {"records": 400}}),
)}


# -- processes ----------------------------------------------------------------------


@dataclass
class Process:
    wall: float
    rss_mb: float
    code: int
    started: float
    ended: float
    stdout: Path
    stderr: Path


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def spawn(argv: List[str], out_dir: Path, tag: str) -> Process:
    """Run one child to completion; its peak RSS comes from ``os.wait4``."""
    stdout, stderr = out_dir / f"{tag}.out", out_dir / f"{tag}.err"
    with stdout.open("wb") as out, stderr.open("wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                env=child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(ended - started, usage.ru_maxrss / 1024.0, proc.returncode,
                   started, ended, stdout, stderr)


def stamps_of(probe: Process) -> Dict[str, float]:
    if probe.code != 0:
        raise RuntimeError(f"probe failed: {probe.stderr.read_text()[-2000:]}")
    return json.loads(probe.stdout.read_text())


def setup_seconds(cli_argv: List[str], out_dir: Path) -> float:
    probe = spawn([str(HERE / "child.py"), "setup", "--", *cli_argv],
                  out_dir, "setup")
    return stamps_of(probe)["ready"] - probe.started


def startup_seconds(out_dir: Path) -> Dict[str, float]:
    probe = spawn([str(HERE / "child.py"), "startup"], out_dir, "startup")
    stamps = stamps_of(probe)
    return {
        "startup.python_s": stamps["started"] - probe.started,
        "startup.numpy_import_s": stamps["after_numpy"] - stamps["before_numpy"],
        "startup.repro_import_s": stamps["after_repro"] - stamps["after_numpy"],
    }


# -- inputs and checks --------------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CampaignTarget:
    """A campaign workload: its CLI arguments and its record checks."""

    def __init__(self, workload: Workload, size: str, seed: int,
                 work: Path) -> None:
        from child import resolve_config
        from repro.core.outcomes import Outcome

        params = workload.sizes[size]
        self.records = work / ("checkpoint.jsonl" if workload.checkpointed
                               else "records.jsonl")
        self.argv = ["run", workload.config, "--seed", str(seed),
                     "--jobs", "1"]
        for flag in ("tests", "duration"):
            if flag in params:
                self.argv += [f"--{flag}", f"{params[flag]:g}"]
        self.argv += ["--resume" if workload.checkpointed else "--output",
                      str(self.records.relative_to(ROOT))]
        plan = resolve_config(workload.config, tests=params.get("tests"),
                              duration=params.get("duration"),
                              seed=seed).compile()
        self.units = len(plan)
        self.expected = {
            (spec.name, spec.seed, spec.scenario.value): {
                "duration": spec.duration,
                "target": spec.target.describe(),
                "fault_model": spec.fault_model.describe(),
                "intensity": spec.intensity,
                "spec_id": spec.identity(),
            }
            for spec in plan
        }
        self.classified = {outcome.value for outcome in Outcome
                           if not outcome.is_infrastructure}

    def prepare(self) -> None:
        for path in self.records.parent.glob(self.records.name + "*"):
            path.unlink()

    def check(self, process: Process):
        """(failed experiments, sha256 of the record file)."""
        data = self.records.read_bytes() if self.records.exists() else b""
        valid, extra = set(), 0
        for line in data.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                extra += 1
                continue
            key = (record.get("spec_name"), record.get("seed"),
                   record.get("scenario"))
            want = self.expected.get(key)
            if (want is None or key in valid
                    or record.get("outcome") not in self.classified
                    or any(record.get(field) != value
                           for field, value in want.items()
                           if field != "spec_id")
                    or record.get("extras", {}).get(
                        "spec_id", want["spec_id"]) != want["spec_id"]):
                extra += 1
                continue
            valid.add(key)
        failed = self.units - len(valid) + extra
        if process.code != 0:
            failed = self.units
        return min(failed, self.units), sha256(data)


#: Synthetic store vocabulary: the outcome mix is shaped like Figure 3.
STORE_OUTCOMES = (("correct", 60), ("panic_park", 22), ("cpu_park", 8),
                  ("invalid_arguments", 4), ("inconsistent_state", 4),
                  ("silent_failure", 2))
STORE_TARGETS = ("arch_handle_trap", "arch_handle_hvc", "irqchip_handle_irq")
STORE_SCENARIOS = ("steady_state", "lifecycle_under_fault",
                   "repeated_lifecycle")
STORE_CLASSES = ("gpr", "lr", "pc", "sp", "cpsr")


class StoreTarget:
    """The ``analyze-store`` workload: a seeded store and the expected fold."""

    def __init__(self, workload: Workload, size: str, seed: int,
                 work: Path) -> None:
        from repro.core.recording import ExperimentRecord

        self.units = int(workload.sizes[size]["records"])
        store = work / "store.jsonl"
        self.argv = ["analyze", str(store.relative_to(ROOT)),
                     "--format", "json"]
        rng = random.Random(seed)
        names, weights = zip(*STORE_OUTCOMES)
        outcomes: Dict[str, int] = {}
        classes: Dict[str, int] = {}
        with store.open("w", encoding="utf-8") as handle:
            for index in range(self.units):
                outcome = rng.choices(names, weights)[0]
                counts = {name: rng.randint(1, 3)
                          for name in rng.sample(STORE_CLASSES,
                                                 rng.randint(0, 2))}
                scenario = rng.choice(STORE_SCENARIOS)
                managed = scenario != "steady_state"
                record = ExperimentRecord(
                    spec_name=f"store-{index:06d}", outcome=outcome,
                    rationale=f"synthetic record {index}",
                    injections=sum(counts.values()), duration=60.0,
                    seed=seed * 1_000_003 + index, scenario=scenario,
                    target=rng.choice(STORE_TARGETS),
                    fault_model="single bit flip", intensity="medium",
                    register_class_counts=counts,
                    target_cell_lines=rng.randint(0, 3000),
                    root_cell_lines=rng.randint(0, 3000),
                    create_attempted=managed,
                    create_succeeded=managed and rng.random() < 0.8,
                    start_attempted=managed,
                    start_succeeded=managed and rng.random() < 0.7,
                    extras={"spec_id": f"{rng.getrandbits(64):016x}"})
                handle.write(record.to_json() + "\n")
                outcomes[outcome] = outcomes.get(outcome, 0) + 1
                for name, count in counts.items():
                    classes[name] = classes.get(name, 0) + count
        self.store_sha256 = sha256(store.read_bytes())
        self.outcomes, self.classes = outcomes, classes

    def prepare(self) -> None:
        pass

    def check(self, process: Process):
        """(failed records, sha256 of the analysis JSON)."""
        data = process.stdout.read_bytes()
        try:
            payload = json.loads(data)
            ok = (process.code == 0 and payload["total"] == self.units
                  and all(payload["outcomes"][name]["count"]
                          == self.outcomes.get(name, 0)
                          for name, _ in STORE_OUTCOMES)
                  and payload["register_class_totals"] == self.classes)
        except (ValueError, KeyError, TypeError):
            ok = False
        return (0 if ok else self.units), sha256(data)


# -- measurement --------------------------------------------------------------------


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def layer_metrics(process: Process, trace: dict) -> Dict[str, float]:
    """Self-time rows, inclusive engine time and counts of one traced run."""
    layers = trace["layers"]

    def layer(name: str, key: str = "self_s") -> float:
        return layers.get(name, {}).get(key, 0)

    metrics = {row: layer(row[:-2]) for row in ROWS}
    metrics["engine.overhead_s"] = layer("engine.run")
    metrics["cli.interpreter_s"] = trace["started"] - process.started
    metrics["cli.exit_s"] = process.ended - trace["finished"]
    metrics["unattributed_s"] = process.wall - sum(
        metrics[row] for row in ROWS if row != "unattributed_s")
    metrics["engine.run_s"] = layer("engine.run", "total_s")
    for name, span in CALL_COUNTS.items():
        metrics[name] = layer(span, "calls")
    for name in STATE_COUNTS:
        metrics[name] = trace["counters"].get(name, 0)
    steps = metrics["sut.steps"]
    metrics["sut.us_per_step"] = (
        layer("sut.run", "total_s") / steps * 1e6 if steps else 0.0)
    cached = metrics["workers.prefix_hits"] + metrics["workers.prefix_misses"]
    metrics["workers.prefix_hit_ratio"] = (
        metrics["workers.prefix_hits"] / cached if cached else 0.0)
    metrics["trace.wall_s"] = process.wall
    metrics["trace.attributed_frac"] = 1.0 - metrics["unattributed_s"] / process.wall
    return metrics


def traced_metrics(workload: Workload, traced: List[tuple], walls: List[float],
                   startup: List[Dict[str, float]], pin: Optional[dict]):
    """Per-layer metrics of the median traced process, plus its counts.

    ``traced`` holds (process, trace, reference factor) triples; ``walls``
    and ``startup`` are already in reference seconds.
    """
    traced.sort(key=lambda item: item[0].wall * item[2])
    process, spans, factor = traced[len(traced) // 2]
    metrics = layer_metrics(process, spans)
    for name, value in list(metrics.items()):
        if PER_LAYER[name] in ("s", "us"):
            metrics[name] = value * factor
    for name in startup[0]:
        metrics[name] = statistics.median(probe[name] for probe in startup)
    metrics["trace.untraced_wall_s"] = statistics.median(walls)
    metrics["trace.overhead_s"] = (
        statistics.median(other.wall * scale for other, _, scale in traced)
        - metrics["trace.untraced_wall_s"])
    counts = {name: metrics[name] for name in PINNED_COUNTS}
    if any(layer_metrics(other, other_spans)[name] != counts[name]
           for other, other_spans, _ in traced for name in counts):
        print("  WARNING: counts differ between traced runs of one seed")
    drift = [name for name in PINNED_COUNTS
             if pin is not None and pin["counts"].get(name) != counts[name]]
    for name in drift:
        print(f"  count {name}: {counts[name]} (pinned "
              f"{pin['counts'].get(name)})")
    metrics["pins.counter_drift"] = len(drift)
    (WORK / f"trace-{workload.name}.json").write_text(json.dumps(spans))
    return metrics, counts


def measure(workload: Workload, *, seed: int, seconds: float, trace: bool,
            size: str, write_pins: bool) -> dict:
    from bench_hotpath import calibrate

    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    target = (CampaignTarget if workload.campaign else StoreTarget)(
        workload, size, seed, work)
    pin = load_pins().get(workload.name) if (
        seed == DEFAULT_SEED and size == "full" and not write_pins) else None
    min_runs = 3 if size == "full" else 1

    attempted = failed = 0
    digests: List[str] = []
    walls, host_walls, rss, setups, traced = [], [], [], [], []
    calibration = [calibrate()]

    def bracketed(run, *args):
        """Run one child; returns its result and its reference factor."""
        result = run(*args)
        calibration.append(calibrate())
        return result, 2 * REFERENCE_S / (calibration[-2] + calibration[-1])

    def invoke(argv: List[str], tag: str) -> Process:
        nonlocal attempted, failed
        target.prepare()
        process = spawn(argv, work, tag)
        lost, digest = target.check(process)
        if process.code != 0:
            print(f"{tag}: exit {process.code}\n"
                  f"{process.stderr.read_text()[-2000:]}", file=sys.stderr)
        reference = pin["sha256"] if pin is not None else (
            digests[0] if digests else digest)
        if digest != reference:
            print(f"{tag}: sha256 {digest} differs from {reference}",
                  file=sys.stderr)
            lost = target.units
        digests.append(digest)
        attempted += target.units
        failed += lost
        return process

    startup = []
    for _ in range(3 if trace else 0):
        probe, factor = bracketed(startup_seconds, work)
        startup.append({name: value * factor for name, value in probe.items()})
    deadline = time.monotonic() + seconds
    while len(walls) < min_runs or time.monotonic() < deadline:
        if not trace and len(walls) % 2 == 0:
            setup, factor = bracketed(setup_seconds, target.argv, work)
            setups.append(setup * factor)
        process, factor = bracketed(invoke, ["-m", "repro", *target.argv],
                                    "cli")
        host_walls.append(process.wall)
        walls.append(process.wall * factor)
        rss.append(process.rss_mb)
        if trace:
            out = work / "trace.json"
            process, factor = bracketed(
                invoke, [str(HERE / "child.py"), "trace", str(out), "--",
                         *target.argv], "traced")
            if process.code == 0:
                traced.append((process, json.loads(out.read_text()), factor))

    noun = "experiments" if workload.campaign else "records"
    print(f"workload {workload.name}: seed {seed}, {len(walls)} CLI "
          f"processes, {attempted} {noun} attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.4f})")
    print(f"  command: python -m repro {' '.join(target.argv)}")
    if isinstance(target, StoreTarget):
        print(f"  store sha256: {target.store_sha256}")
    print(f"  output sha256: {digests[0]}")
    print(f"  CLI wall samples (host s): "
          f"{' '.join(f'{wall:.3f}' for wall in host_walls)}")
    print(f"  calibrate(): median {statistics.median(calibration):.4f} s over "
          f"{len(calibration)} samples; times below are reference seconds")
    if not trace:
        units = END_TO_END
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "throughput_per_s": statistics.median(
                target.units / wall for wall in walls),
            "peak_rss_mb": statistics.median(rss),
        }
    elif traced:
        units = PER_LAYER
        metrics, counts = traced_metrics(workload, traced, walls, startup, pin)
        print_layers(metrics)
        if write_pins:
            pins = load_pins()
            pins[workload.name] = {"seed": seed, "sha256": digests[0],
                                   "counts": counts}
            PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
            print(f"  pinned sha256 and {len(counts)} counts to {PINS.name}")
    else:
        return {"correct": False, "attempted": attempted,
                "failed": max(failed, 1), "metrics": {}}
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:14.6f} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def print_layers(metrics: Dict[str, float]) -> None:
    wall = metrics["trace.wall_s"]
    print(f"  layer self time of the median traced process "
          f"(wall {wall:.4f} s, untraced {metrics['trace.untraced_wall_s']:.4f}"
          f" s, overhead {metrics['trace.overhead_s']:+.4f} s):")
    for row in sorted(ROWS, key=lambda row: -metrics[row]):
        if metrics[row]:
            print(f"    {row:32s} {metrics[row]:10.4f} s "
                  f"{metrics[row] / wall:7.2%}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: one quick process per loop (self-test)")
    parser.add_argument("--write-pins", action="store_true",
                        help="with --trace 1: pin this run's record sha256 "
                             "and counts as the default-seed reference")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    from _common import machine_info

    print("host: " + json.dumps(machine_info(), sort_keys=True))
    result = measure(WORKLOADS[args.workload], seed=args.seed,
                     seconds=args.seconds, trace=bool(args.trace),
                     size=args.size, write_pins=args.write_pins)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
