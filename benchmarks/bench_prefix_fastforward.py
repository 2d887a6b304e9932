"""Prefix fast-forward benchmark: shared pre-injection snapshots.

The paper's campaigns execute an identical golden bring-up (board + Jailhouse
+ guest boot, workload warm-up) before diverging only at the injection. The
prefix fast-forward subsystem executes each distinct pre-injection prefix
once and forks every fault variant of that prefix family from its snapshot.
This benchmark measures the end-to-end effect on a fig3-style campaign
(steady-state injections into the non-root trap handler at the paper's
medium rate) whose grid runs several fault-model variants per seed — the
shape where the optimization multiplies: ``family_size x (prefix + suffix) /
(prefix + family_size x suffix)``.

Reported metrics (written as ``BENCH_prefix_fastforward.json`` at the repo
root so the perf trajectory is versioned alongside the code):

* **campaign** — wall-clock of the campaign through the engine against the
  per-spec cold reference (a fresh SUT and a full prefix per spec), both at
  ``jobs=1`` so the speedup is not parallelism, plus the engine's
  hit/miss counts and the parity verdict (records must be bit-identical —
  the run aborts if they are not).

A ``calibration_s`` spin-loop is recorded alongside so the CI gate can
normalise machine speed: ``--check-against BASELINE.json`` fails when the
calibrated cached-campaign wall time regressed more than ``--max-regression``
(default 2.0x), and ``--min-speedup`` (default 3.0) fails the run when the
engine/cold-reference ratio drops below it.

Usage::

    python benchmarks/bench_prefix_fastforward.py            # full size
    python benchmarks/bench_prefix_fastforward.py --smoke    # CI-sized
    python benchmarks/bench_prefix_fastforward.py --smoke \
        --check-against benchmarks/baselines/prefix_fastforward_baseline.json
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

from _common import machine_info, time_against_cold_reference   # noqa: E402
from bench_hotpath import calibrate                             # noqa: E402

SCHEMA = "bench_prefix_fastforward/v1"


def fig3_style_config(*, seeds: int, settle: float,
                      duration: float) -> CampaignConfig:
    """A fig3-style grid with eight fault variants per golden bring-up.

    Steady-state injections into the non-root cell's trap handler at the
    paper's medium rate (one per 100 calls), like the Figure-3 campaign; the
    fault-model axis fans each seed's bring-up out into a family of eight
    variants, which is how real rate/register-class ablations share their
    prefixes.
    """
    return CampaignConfig(
        name="prefix-ff-fig3-grid",
        description="fig3-style steady-state grid, 8 fault variants per seed",
        targets=[PartRef("nonroot-trap")],
        triggers=[PartRef("every-n-calls", {"n": 100}, tag="medium-rate")],
        fault_models=[
            PartRef("single-bit-flip", tag="sbf"),
            PartRef("multi-register-bit-flip", {"count": 2}, tag="mr2"),
            PartRef("multi-register-bit-flip", {"count": 3}, tag="mr3"),
            PartRef("multi-register-bit-flip", {"count": 4}, tag="mr4"),
            PartRef("register-class-bit-flip", {"target_class": "pc"}, tag="pc"),
            PartRef("register-class-bit-flip", {"target_class": "sp"}, tag="sp"),
            PartRef("register-class-bit-flip", {"target_class": "lr"}, tag="lr"),
            PartRef("register-class-bit-flip", {"target_class": "gpr"}, tag="gpr"),
        ],
        scenarios=["steady-state"],
        intensity="medium",
        tests=seeds,
        settle_time=settle,
        duration=duration,
    )


def bench_campaign(*, seeds: int, settle: float, duration: float,
                   repeats: int) -> dict:
    plan = fig3_style_config(seeds=seeds, settle=settle,
                             duration=duration).compile()
    cold, cached, cached_result = time_against_cold_reference(plan, repeats)
    stats = cached_result.prefix_cache_stats()
    return {
        "experiments": len(plan),
        "families": seeds,
        "family_size": len(plan) // seeds,
        "settle_s": settle,
        "sim_duration_s": duration,
        "jobs": 1,
        "cold_wall_s": cold,
        "cached_wall_s": cached,
        "speedup": cold / cached,
        "cache_hits": stats["hits"],
        "cache_misses": stats["misses"],
        "records_identical": True,
    }


def run_suite(smoke: bool) -> dict:
    seeds = 2 if smoke else 4
    settle = 4.0 if smoke else 8.0
    duration = 0.5 if smoke else 1.0
    # min-of-3 even at smoke scale: the speedup gate compares two absolute
    # wall times, so a single noisy round on a busy CI runner must not be
    # able to fail it.
    repeats = 3

    calibration = calibrate()
    campaign = bench_campaign(seeds=seeds, settle=settle, duration=duration,
                              repeats=repeats)

    return {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "scale": "smoke" if smoke else "full",
        "machine": machine_info(),
        "calibration_s": calibration,
        "metrics": {
            "campaign": campaign,
        },
    }


def check_regression(report: dict, baseline_path: Path,
                     max_regression: float) -> int:
    """Compare the calibrated cached-campaign wall time against a baseline.

    Wall time is normalised per experiment and by the spin-loop calibration,
    so the check is independent of machine speed and run scale.
    """
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    if baseline.get("schema") != SCHEMA:
        print(f"baseline {baseline_path} has unexpected schema "
              f"{baseline.get('schema')!r}", file=sys.stderr)
        return 1

    def calibrated(payload: dict) -> float:
        campaign = payload["metrics"]["campaign"]
        per_experiment = campaign["cached_wall_s"] / campaign["experiments"]
        # Normalise by simulated seconds actually executed per experiment on
        # the cached path (suffix only, amortised prefix), so smoke and full
        # scales compare: suffix + prefix/family_size.
        sim_s = (campaign["sim_duration_s"]
                 + campaign["settle_s"] / campaign["family_size"])
        return per_experiment / sim_s / payload["calibration_s"]

    ratio = calibrated(report) / calibrated(baseline)
    print(f"calibrated cached-campaign latency: {ratio:.2f}x baseline "
          f"(limit {max_regression:.2f}x)")
    if ratio > max_regression:
        print("REGRESSION: cached-campaign latency exceeded the limit",
              file=sys.stderr)
        return 1
    return 0


def render(report: dict) -> str:
    campaign = report["metrics"]["campaign"]
    return "\n".join([
        f"prefix fast-forward benchmark ({report['scale']}, "
        f"calibration {report['calibration_s']*1000:.1f} ms)",
        "",
        f"campaign: {campaign['experiments']} experiments in "
        f"{campaign['families']} prefix families of "
        f"{campaign['family_size']} "
        f"(settle {campaign['settle_s']:.0f}s + inject "
        f"{campaign['sim_duration_s']:.1f}s, jobs=1)",
        f"  cold   : {campaign['cold_wall_s']*1000:8.0f} ms  "
        f"(per-spec cold reference)",
        f"  engine : {campaign['cached_wall_s']*1000:8.0f} ms  "
        f"({campaign['cache_hits']} hits / {campaign['cache_misses']} misses)",
        f"  speedup: {campaign['speedup']:8.2f}x  (records identical: "
        f"{campaign['records_identical']})",
    ])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (seconds instead of minutes)")
    parser.add_argument("--output", default=None,
                        help="where to write BENCH_prefix_fastforward.json "
                             "(default: repo root, so the perf trajectory "
                             "is committed with the code)")
    parser.add_argument("--check-against", metavar="BASELINE",
                        help="baseline BENCH_prefix_fastforward.json to "
                             "compare calibrated latency against")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="fail when calibrated cached-campaign latency "
                             "exceeds this multiple of the baseline")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="fail when the engine's speedup over the "
                             "per-spec cold reference drops below this "
                             "factor")
    args = parser.parse_args(argv)

    report = run_suite(smoke=args.smoke)
    print(render(report))

    output = (Path(args.output) if args.output
              else REPO_ROOT / "BENCH_prefix_fastforward.json")
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {output}")

    status = 0
    speedup = report["metrics"]["campaign"]["speedup"]
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
