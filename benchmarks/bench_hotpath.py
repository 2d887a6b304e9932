"""Hot-path performance benchmark suite.

Measures the three layers the hot-path overhaul targets and writes the
results as ``BENCH_hotpath.json`` in a stable schema so future PRs can track
the trajectory:

* **memory** — raw :class:`~repro.hw.memory.PhysicalMemory` dispatch
  throughput (aligned 1/2/4-byte fast paths, MMIO, page-straddling generic
  path), in accesses per second;
* **experiment** — single steady-state experiment latency (the unit the
  paper runs thousands of);
* **campaign** — wall-clock of a small ``jobs=1`` fig3 campaign through the
  engine against the per-spec cold reference (a fresh SUT per spec, outside
  the engine); the run aborts if any record differs. The engine's time keeps
  its historical key, ``pooled_wall_s``, so the schema stays stable.

A ``calibration_s`` measurement (a fixed pure-Python spin loop) is recorded
alongside, so regression checks can normalise out machine-speed differences:
``--check-against BASELINE.json`` fails (exit 1) when the calibrated
single-experiment latency regressed more than ``--max-regression`` (default
2.0x) against the checked-in baseline.

Usage::

    python benchmarks/bench_hotpath.py                # full size
    python benchmarks/bench_hotpath.py --smoke        # CI-sized
    python benchmarks/bench_hotpath.py --smoke \
        --check-against benchmarks/baselines/hotpath_baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
if str(REPO_SRC) not in sys.path:
    sys.path.insert(0, str(REPO_SRC))

from repro.core.experiment import Experiment                 # noqa: E402
from repro.core.plan import paper_figure3_plan               # noqa: E402
from repro.hw.memory import (                                # noqa: E402
    MemoryFlags,
    MemoryRegion,
    MmioHandler,
    PhysicalMemory,
)

from _common import (                                        # noqa: E402
    machine_info,
    time_against_cold_reference,
)

SCHEMA = "bench_hotpath/v1"

#: Pre-PR reference numbers (seed commit, same benchmark bodies, dev box):
#: kept in the output for context so every run shows the trajectory.
PRE_PR_REFERENCE = {
    "memory_read4_per_s": 287_476,
    "memory_write4_per_s": 260_605,
    "memory_fetch4_per_s": 282_555,
    "memory_mmio_read1_per_s": 481_262,
    "memory_straddle8_per_s": 277_931,
    "single_experiment_10s_s": 0.0719,
    "campaign_8x5s_jobs1_s": 0.3177,
}


class _NullMmio(MmioHandler):
    def mmio_read(self, offset: int, size: int) -> int:
        return 0x5A

    def mmio_write(self, offset: int, value: int, size: int) -> None:
        pass


def calibrate() -> float:
    """Fixed pure-Python spin loop used to normalise machine speed."""
    start = time.perf_counter()
    total = 0
    for index in range(2_000_000):
        total += index & 0xFF
    assert total > 0
    return time.perf_counter() - start


def bench_memory(accesses: int) -> dict:
    memory = PhysicalMemory([
        MemoryRegion("sram", 0x0, 0x10000, MemoryFlags.RWX),
        MemoryRegion("uart0", 0x01C2_8000, 0x400,
                     MemoryFlags.RW | MemoryFlags.IO),
        MemoryRegion("dram", 0x4000_0000, 1 << 30, MemoryFlags.RWX),
    ])
    memory.attach_mmio("uart0", _NullMmio())
    base = 0x4000_0000
    results = {}

    start = time.perf_counter()
    for index in range(accesses):
        memory.write(base + ((index * 4) & 0xFFFF), index & 0xFFFF_FFFF, 4)
    results["write4_per_s"] = accesses / (time.perf_counter() - start)

    start = time.perf_counter()
    for index in range(accesses):
        memory.read(base + ((index * 4) & 0xFFFF), 4)
    results["read4_per_s"] = accesses / (time.perf_counter() - start)

    start = time.perf_counter()
    for index in range(accesses):
        memory.fetch(base + ((index * 4) & 0xFFFF), 4)
    results["fetch4_per_s"] = accesses / (time.perf_counter() - start)

    start = time.perf_counter()
    for index in range(accesses):
        memory.read(0x01C2_8000 + (index & 0xFF), 1)
    results["mmio_read1_per_s"] = accesses / (time.perf_counter() - start)

    straddles = max(accesses // 4, 1)
    start = time.perf_counter()
    for index in range(straddles):
        memory.read_bytes(base + 4093 + ((index * 8) & 0xFFF), 8)
    results["straddle8_per_s"] = straddles / (time.perf_counter() - start)
    return results


def bench_experiment(duration: float, repeats: int) -> dict:
    plan = paper_figure3_plan(num_tests=1, duration=duration)
    Experiment(paper_figure3_plan(num_tests=1, duration=1.0).specs[0]).run()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        Experiment(plan.specs[0]).run()
        best = min(best, time.perf_counter() - start)
    return {
        "sim_duration_s": duration,
        "wall_s": best,
        "wall_per_sim_second_s": best / (duration + 1.0),  # +settle time
    }


def bench_campaign(tests: int, duration: float, repeats: int) -> dict:
    plan = paper_figure3_plan(num_tests=tests, duration=duration)
    cold, engine, _ = time_against_cold_reference(plan, repeats)
    return {
        "tests": tests,
        "sim_duration_s": duration,
        "jobs": 1,
        "cold_wall_s": cold,
        "pooled_wall_s": engine,
    }


def run_suite(smoke: bool) -> dict:
    accesses = 50_000 if smoke else 200_000
    experiment_duration = 5.0 if smoke else 10.0
    campaign_tests = 4 if smoke else 8
    campaign_duration = 2.0 if smoke else 5.0
    repeats = 2 if smoke else 3

    calibration = calibrate()
    memory = bench_memory(accesses)
    experiment = bench_experiment(experiment_duration, repeats)
    campaign = bench_campaign(campaign_tests, campaign_duration, repeats)

    return {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "scale": "smoke" if smoke else "full",
        "machine": machine_info(),
        "calibration_s": calibration,
        "metrics": {
            "memory": memory,
            "experiment": experiment,
            "campaign": campaign,
        },
        "pre_pr_reference": PRE_PR_REFERENCE,
    }


def check_regression(report: dict, baseline_path: Path,
                     max_regression: float) -> int:
    """Compare calibrated single-experiment latency against a baseline.

    Uses per-simulated-second latency normalised by the spin-loop
    calibration, so the check is independent of both machine speed and the
    run scale (``--smoke`` vs full).
    """
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    if baseline.get("schema") != SCHEMA:
        print(f"baseline {baseline_path} has unexpected schema "
              f"{baseline.get('schema')!r}", file=sys.stderr)
        return 1
    current = (report["metrics"]["experiment"]["wall_per_sim_second_s"]
               / report["calibration_s"])
    reference = (baseline["metrics"]["experiment"]["wall_per_sim_second_s"]
                 / baseline["calibration_s"])
    ratio = current / reference
    print(f"calibrated single-experiment latency: {ratio:.2f}x baseline "
          f"(limit {max_regression:.2f}x)")
    if ratio > max_regression:
        print("REGRESSION: single-experiment latency exceeded the limit",
              file=sys.stderr)
        return 1
    return 0


def render(report: dict) -> str:
    memory = report["metrics"]["memory"]
    experiment = report["metrics"]["experiment"]
    campaign = report["metrics"]["campaign"]
    reference = report["pre_pr_reference"]
    lines = [
        f"hot-path benchmark ({report['scale']}, "
        f"calibration {report['calibration_s']*1000:.1f} ms)",
        "",
        "memory dispatch          current        pre-PR     speedup",
    ]
    pairs = [
        ("read4", memory["read4_per_s"], reference["memory_read4_per_s"]),
        ("write4", memory["write4_per_s"], reference["memory_write4_per_s"]),
        ("fetch4", memory["fetch4_per_s"], reference["memory_fetch4_per_s"]),
        ("mmio_read1", memory["mmio_read1_per_s"],
         reference["memory_mmio_read1_per_s"]),
        ("straddle8", memory["straddle8_per_s"],
         reference["memory_straddle8_per_s"]),
    ]
    for name, current, previous in pairs:
        lines.append(
            f"  {name:<20} {current:>12,.0f}/s {previous:>9,.0f}/s "
            f"{current / previous:>8.2f}x"
        )
    lines += [
        "",
        f"single experiment ({experiment['sim_duration_s']:.0f}s sim): "
        f"{experiment['wall_s']*1000:.1f} ms "
        f"({experiment['wall_per_sim_second_s']*1000:.2f} ms/sim-s)",
        f"campaign {campaign['tests']}x{campaign['sim_duration_s']:.0f}s "
        f"jobs=1: per-spec cold reference "
        f"{campaign['cold_wall_s']*1000:.0f} ms, engine "
        f"{campaign['pooled_wall_s']*1000:.0f} ms",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (seconds instead of minutes)")
    parser.add_argument("--output", default=None,
                        help="where to write BENCH_hotpath.json "
                             "(default: repo root, so the perf trajectory "
                             "is committed with the code)")
    parser.add_argument("--check-against", metavar="BASELINE",
                        help="baseline BENCH_hotpath.json to compare "
                             "calibrated latency against")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="fail when calibrated single-experiment latency "
                             "exceeds this multiple of the baseline")
    args = parser.parse_args(argv)

    report = run_suite(smoke=args.smoke)
    print(render(report))

    output = Path(args.output) if args.output else (
        Path(__file__).parent.parent / "BENCH_hotpath.json"
    )
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {output}")

    if args.check_against:
        return check_regression(report, Path(args.check_against),
                                args.max_regression)
    return 0


if __name__ == "__main__":
    sys.exit(main())
