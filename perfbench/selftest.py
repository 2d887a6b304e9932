"""Self-test of the benchmark: every workload at a tiny size, both modes.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` agrees with ``run.py``; that every metric it
names is printed with its unit; that the traced layer rows plus
``unattributed_s`` add up to ``trace.wall_s``; that the recorded predictions
hold (prefix hits only on ``grid-checkpointed``, checkpoint flushes only
there, more jailhouse-CLI calls per experiment on ``lifecycle-high`` than on
``fig3-steady``); and that the benchmark fails, printing no result, in a
directory holding only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def result_of(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_benchmark_json(bench: dict) -> None:
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: workload.why for name, workload in run.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def check_workload(name: str) -> dict:
    """Run both modes; returns the traced metric values."""
    values = {}
    for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        done = result_of(ROOT, name, trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, done.stdout
        assert result["attempted"] >= 1
        printed = {key: metric["unit"] for key, metric in result["metrics"].items()}
        assert printed == units, (name, trace, set(printed) ^ set(units))
        values = {key: metric["value"] for key, metric in result["metrics"].items()}
    rows = sum(values[row] for row in run.ROWS)
    assert abs(rows - values["trace.wall_s"]) < 1e-9, (name, rows, values["trace.wall_s"])
    assert values["trace.attributed_frac"] >= 0.95, (name, values["unattributed_s"])
    return values


def check_predictions(traced: dict) -> None:
    for name, values in traced.items():
        cached = name == "grid-checkpointed"
        assert (values["workers.prefix_hits"] > 0) == cached, name
        assert (values["checkpoint.flushes"] > 0) == cached, name

    def cli_calls_per_experiment(name: str) -> float:
        return (traced[name]["hypervisor.cli_calls"]
                / traced[name]["experiments"])

    assert (cli_calls_per_experiment("lifecycle-high")
            > cli_calls_per_experiment("fig3-steady"))


def check_bare_directory() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = result_of(bare, "fig3-steady", 0)
    shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), done.stdout


def main() -> int:
    check_benchmark_json(json.loads((ROOT / "BENCHMARK.json").read_text()))
    traced = {}
    for name in run.WORKLOADS:
        traced[name] = check_workload(name)
        print(f"{name}: ok")
    check_predictions(traced)
    check_bare_directory()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
