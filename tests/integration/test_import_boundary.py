"""Which modules each CLI command loads.

Reading records, ``list`` and ``--help`` must not load numpy, the worker
pool or the assessment, telemetry, fleet and checker layers: those commands
then start faster and run where numpy is not installed. A campaign at
``--jobs 1`` loads numpy (its experiments draw from it) but no worker pool.
Every case runs in a fresh interpreter, because ``sys.modules`` of the test
process already holds everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.recording import ExperimentRecord, RecordStore

SRC = Path(__file__).resolve().parents[2] / "src"

#: Runs ``repro.cli.main(argv)``, then writes its exit code and the names in
#: ``sys.modules`` to ``out``. With ``block``, importing numpy fails.
PROBE = """\
import json, sys
out, block, argv = sys.argv[1], sys.argv[2] == "block", sys.argv[3:]
if block:
    sys.modules["numpy"] = None
from repro.cli import main
try:
    code = main(argv)
except SystemExit as exc:
    code = exc.code
with open(out, "w") as handle:
    json.dump({"code": code, "modules": sorted(sys.modules)}, handle)
"""

#: Modules no read-side command may load.
DEFERRED = ("numpy", "multiprocessing", "repro.safety", "repro.obs.telemetry",
            "repro.fleet", "repro.check")


def probe(tmp_path, *argv, block_numpy=False):
    """``(exit code, loaded module names, stderr)`` of one CLI command."""
    out = tmp_path / "probe.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", PROBE, str(out),
         "block" if block_numpy else "-", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(out.read_text())
    return result["code"], set(result["modules"]), completed.stderr


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """Two small record files written without running a campaign."""
    root = tmp_path_factory.mktemp("stores")
    paths = []
    for name, outcomes in (("a", ["correct", "panic_park"]),
                           ("b", ["correct", "cpu_park"])):
        path = root / f"{name}.jsonl"
        RecordStore(path).write_all(
            ExperimentRecord(
                spec_name=f"{name}-{index}", outcome=outcome,
                rationale="synthetic", injections=1, duration=2.0,
                seed=index, scenario="steady_state",
                target="arch_handle_trap", fault_model="single bit flip",
                intensity="medium")
            for index, outcome in enumerate(outcomes))
        paths.append(str(path))
    return paths


class TestImportBoundary:
    @pytest.mark.parametrize("command", [
        ["analyze", "{a}", "--format", "json"],
        ["report", "{a}"],
        ["compare", "{a}", "{b}"],
        ["list"],
        ["--help"],
    ], ids=["analyze", "report", "compare", "list", "help"])
    def test_read_side_commands_load_no_deferred_module(
            self, command, stores, tmp_path):
        argv = [arg.format(a=stores[0], b=stores[1]) for arg in command]
        code, modules, _ = probe(tmp_path, *argv)
        assert code == 0
        assert sorted(modules.intersection(DEFERRED)) == []

    def test_a_serial_campaign_loads_numpy_but_no_pool(self, tmp_path):
        code, modules, _ = probe(tmp_path, "run", "fig3", "--tests", "1",
                                 "--duration", "1", "--jobs", "1")
        assert code == 0
        assert "numpy" in modules
        assert "multiprocessing" not in modules


class TestWithoutNumpy:
    def test_read_side_commands_still_work(self, stores, tmp_path):
        for argv in (["analyze", stores[0]], ["report", stores[0]],
                     ["compare", *stores], ["list"]):
            code, _, err = probe(tmp_path, *argv, block_numpy=True)
            assert code == 0, (argv, err)

    @pytest.mark.parametrize("argv", [
        ["run", "fig3", "--tests", "1", "--duration", "1",
         "--output", "records.jsonl"],
        ["fig3", "--tests", "1", "--duration", "1", "--jobs", "2",
         "--resume", "records.jsonl"],
        ["golden", "--duration", "1"],
    ], ids=["run", "fig3-pool-resume", "golden"])
    def test_experiments_stop_on_one_error_before_running(
            self, argv, tmp_path):
        code, _, err = probe(tmp_path, *argv, block_numpy=True)
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert "numpy" in lines[0]
        assert not (tmp_path / "records.jsonl").exists()
