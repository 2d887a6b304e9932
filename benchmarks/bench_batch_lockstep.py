"""Batched lockstep benchmark: step whole prefix families per worker.

The prefix fast-forward subsystem (``BENCH_prefix_fastforward.json``) already
amortises the golden bring-up; the batched lockstep core goes further and
amortises the *post-injection window itself*: all fault variants of a prefix
family advance on one shared simulation until a lane's injector fires, and
only fired lanes pay a scalar replay (eviction, never emulation — records
stay byte-identical to scalar execution by construction).

The headline grid is the shape the optimization exists for: rare/late-fire
triggers (the paper's low-rate campaigns, where most of each one-minute test
is fault-free waiting), sixteen fault variants per seed. The engine runs it
at ``jobs=1`` against the per-spec cold reference (a fresh SUT, a full
prefix and a scalar window per spec), so the reported speedup is lockstep
sharing plus prefix amortisation — not parallelism. A second, ungated grid
forces every lane to evict mid-batch and reports the worst-case
(replay-dominated) behaviour.

Reported metrics (written as ``BENCH_batch_lockstep.json`` at the repo root
so the perf trajectory is versioned alongside the code):

* **lockstep** — wall-clock of the family-grid campaign, cold reference vs
  engine, batch occupancy and eviction counts, and the parity verdict (the
  run aborts if any record differs);
* **eviction** — the same comparison on a fast-trigger grid where every
  lane evicts: the floor of the optimization, reported for honesty.

A ``calibration_s`` spin-loop is recorded alongside so the CI gate can
normalise machine speed: ``--check-against BASELINE.json`` fails when the
calibrated batched-campaign wall time regressed more than
``--max-regression`` (default 2.0x), and ``--min-speedup`` (default 5.0)
fails the run when the engine/cold-reference ratio drops below it.

Usage::

    python benchmarks/bench_batch_lockstep.py            # full size
    python benchmarks/bench_batch_lockstep.py --quick    # CI-sized
    python benchmarks/bench_batch_lockstep.py --quick \
        --check-against benchmarks/baselines/batch_lockstep_baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
REPO_SRC = REPO_ROOT / "src"
if str(REPO_SRC) not in sys.path:
    sys.path.insert(0, str(REPO_SRC))

from repro.core.config import CampaignConfig, PartRef           # noqa: E402
from repro.engine.batch import BATCH_SIZE                       # noqa: E402

from _common import machine_info, time_against_cold_reference   # noqa: E402
from bench_hotpath import calibrate                             # noqa: E402

SCHEMA = "bench_batch_lockstep/v1"

#: Eight fault-model variants, as a rate/register-class ablation would fan
#: one seed's bring-up out; crossed with two trigger variants below they
#: form sixteen-lane prefix families.
_FAULT_MODELS = [
    PartRef("single-bit-flip", tag="sbf"),
    PartRef("multi-register-bit-flip", {"count": 2}, tag="mr2"),
    PartRef("multi-register-bit-flip", {"count": 3}, tag="mr3"),
    PartRef("multi-register-bit-flip", {"count": 4}, tag="mr4"),
    PartRef("register-class-bit-flip", {"target_class": "pc"}, tag="pc"),
    PartRef("register-class-bit-flip", {"target_class": "sp"}, tag="sp"),
    PartRef("register-class-bit-flip", {"target_class": "lr"}, tag="lr"),
    PartRef("register-class-bit-flip", {"target_class": "gpr"}, tag="gpr"),
]


def lockstep_grid(*, seeds: int, duration: float) -> CampaignConfig:
    """Sixteen-lane families whose injectors fire far beyond the window.

    One-shot triggers parked at the ten-millionth call model the paper's
    rare-fault regime: the whole observation window is fault-free waiting,
    which is exactly what the lockstep core lets all lanes share.
    """
    return CampaignConfig(
        name="batch-lockstep-grid",
        description="family grid, late-fire triggers, 16 lanes per seed",
        targets=[PartRef("nonroot-trap")],
        triggers=[PartRef("one-shot", {"n": 10_000_000}, tag="rare-a"),
                  PartRef("one-shot", {"n": 20_000_000}, tag="rare-b")],
        fault_models=_FAULT_MODELS,
        scenarios=["steady-state"],
        intensity="custom",
        tests=seeds,
        settle_time=1.0,
        duration=duration,
    )


def eviction_grid(*, seeds: int, duration: float) -> CampaignConfig:
    """The floor: fast triggers make every lane evict mid-batch."""
    return CampaignConfig(
        name="batch-eviction-grid",
        description="family grid, fast triggers, every lane evicts",
        targets=[PartRef("nonroot-trap")],
        triggers=[PartRef("every-n-calls", {"n": 5}, tag="fast-a"),
                  PartRef("every-n-calls", {"n": 10}, tag="fast-b")],
        fault_models=_FAULT_MODELS,
        scenarios=["steady-state"],
        intensity="custom",
        tests=seeds,
        settle_time=1.0,
        duration=duration,
    )


def bench_grid(config: CampaignConfig, *, repeats: int) -> dict:
    plan = config.compile()
    scalar_wall, batched_wall, batched_result = time_against_cold_reference(
        plan, repeats)
    stats = batched_result.batch_stats()
    seeds = config.tests
    family_size = len(plan) // seeds
    return {
        "experiments": len(plan),
        "families": seeds,
        "family_size": family_size,
        "batch_size": BATCH_SIZE,
        "settle_s": config.settle_time,
        "sim_duration_s": config.duration,
        "jobs": 1,
        "scalar_wall_s": scalar_wall,
        "batched_wall_s": batched_wall,
        "speedup": scalar_wall / batched_wall,
        "batched": stats["batched"],
        "evicted": stats["evicted"],
        "scalar_fallbacks": stats["scalar"],
        "occupancy": stats["batched"] / seeds if seeds else 0.0,
        "eviction_share": (stats["evicted"] / stats["batched"]
                           if stats["batched"] else 0.0),
        "records_identical": True,
    }


def run_suite(quick: bool) -> dict:
    seeds = 1 if quick else 3
    duration = 2.0 if quick else 8.0
    # min-of-N: the speedup gate compares two absolute wall times, so a
    # single noisy round on a busy CI runner must not be able to fail it.
    repeats = 2 if quick else 3
    eviction_seeds = 1
    eviction_duration = 1.0 if quick else 2.0

    calibration = calibrate()
    lockstep = bench_grid(lockstep_grid(seeds=seeds, duration=duration),
                          repeats=repeats)
    eviction = bench_grid(
        eviction_grid(seeds=eviction_seeds, duration=eviction_duration),
        repeats=repeats)

    return {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "scale": "quick" if quick else "full",
        "machine": machine_info(),
        "calibration_s": calibration,
        "metrics": {
            "lockstep": lockstep,
            "eviction": eviction,
        },
    }


def check_regression(report: dict, baseline_path: Path,
                     max_regression: float) -> int:
    """Compare the calibrated batched wall time against a baseline.

    Wall time is normalised per experiment, per simulated second, and by the
    spin-loop calibration, so the check is independent of machine speed and
    run scale.
    """
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    if baseline.get("schema") != SCHEMA:
        print(f"baseline {baseline_path} has unexpected schema "
              f"{baseline.get('schema')!r}", file=sys.stderr)
        return 1

    def calibrated(payload: dict) -> float:
        grid = payload["metrics"]["lockstep"]
        per_experiment = grid["batched_wall_s"] / grid["experiments"]
        # The batched path executes roughly one shared window per family
        # plus the amortised prefix; normalise by that shared cost so quick
        # and full scales compare.
        sim_s = ((grid["sim_duration_s"] + grid["settle_s"])
                 / grid["family_size"])
        return per_experiment / sim_s / payload["calibration_s"]

    ratio = calibrated(report) / calibrated(baseline)
    print(f"calibrated batched-campaign latency: {ratio:.2f}x baseline "
          f"(limit {max_regression:.2f}x)")
    if ratio > max_regression:
        print("REGRESSION: batched-campaign latency exceeded the limit",
              file=sys.stderr)
        return 1
    return 0


def render(report: dict) -> str:
    lines = [
        f"batched lockstep benchmark ({report['scale']}, "
        f"calibration {report['calibration_s']*1000:.1f} ms)",
    ]
    for name in ("lockstep", "eviction"):
        grid = report["metrics"][name]
        lines += [
            "",
            f"{name}: {grid['experiments']} experiments in "
            f"{grid['families']} families of {grid['family_size']} "
            f"(settle {grid['settle_s']:.0f}s + window "
            f"{grid['sim_duration_s']:.1f}s, jobs=1, "
            f"batch_size={grid['batch_size']})",
            f"  scalar : {grid['scalar_wall_s']*1000:8.0f} ms  "
            f"(per-spec cold reference)",
            f"  engine : {grid['batched_wall_s']*1000:8.0f} ms  "
            f"({grid['batched']} lanes, {grid['evicted']} evicted, "
            f"occupancy {grid['occupancy']:.1f})",
            f"  speedup: {grid['speedup']:8.2f}x  (records identical: "
            f"{grid['records_identical']})",
        ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (seconds instead of minutes)")
    parser.add_argument("--output", default=None,
                        help="where to write BENCH_batch_lockstep.json "
                             "(default: repo root, so the perf trajectory "
                             "is committed with the code)")
    parser.add_argument("--check-against", metavar="BASELINE",
                        help="baseline BENCH_batch_lockstep.json to "
                             "compare calibrated latency against")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="fail when calibrated batched-campaign latency "
                             "exceeds this multiple of the baseline")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="fail when the engine's speedup over the "
                             "per-spec cold reference on the lockstep grid "
                             "drops below this factor")
    args = parser.parse_args(argv)

    report = run_suite(quick=args.quick)
    print(render(report))

    output = (Path(args.output) if args.output
              else REPO_ROOT / "BENCH_batch_lockstep.json")
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {output}")

    status = 0
    speedup = report["metrics"]["lockstep"]["speedup"]
    if speedup < args.min_speedup:
        print(f"SPEEDUP SHORTFALL: {speedup:.2f}x < required "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        status = 1
    if args.check_against:
        status = max(status, check_regression(
            report, Path(args.check_against), args.max_regression))
    return status


if __name__ == "__main__":
    sys.exit(main())
