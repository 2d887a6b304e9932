"""Golden record corpus: every paper campaign, pinned byte for byte.

The parity suites compare one way of executing a campaign with another; a
change to the shared scalar step could move every way together and still
pass them. This corpus pins the records themselves. Each entry is a catalog
campaign or an ``examples/`` config at a small fixed size, and
``pins.json`` stores, per entry, the sha256 of its plan-order record JSONL,
its per-outcome counts and its spec identities. Every entry runs three
ways, and each run must reproduce the pin exactly:

* ``reference`` -- the per-spec cold reference (``Experiment.run()`` per
  spec, in plan order, outside the engine);
* ``jobs1`` -- :class:`~repro.engine.runner.CampaignEngine` in-process;
* ``jobs2`` -- the engine on two supervised worker processes.

A pin changes only on purpose. Re-pin from the repository root with::

    PYTHONPATH=src python tests/golden/test_golden.py --write

and justify every outcome-count delta the diff shows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import _resolve_campaign_config
from repro.engine import CampaignEngine

ROOT = Path(__file__).resolve().parents[2]
PINS = Path(__file__).with_name("pins.json")

#: Entry name -> (catalog key or config path, tests, duration in seconds).
#: ``tests`` is seeds per grid point, or the sample size of a random config.
ENTRIES = {
    "fig3": ("fig3", 4, 2.0),
    "high-root": ("high-root", 4, 2.0),
    "high-nonroot": ("high-nonroot", 4, 2.0),
    "park-and-recover": ("park-and-recover", 4, 2.0),
    "campaign_fig3": ("examples/campaign_fig3.toml", 4, 2.0),
    "campaign_handler_grid": ("examples/campaign_handler_grid.toml", 2, 2.0),
    "campaign_random_sample": ("examples/campaign_random_sample.json", 4, 2.0),
}

MODES = ("reference", "jobs1", "jobs2")


def compile_entry(name: str):
    source, tests, duration = ENTRIES[name]
    if source.startswith("examples/"):
        source = str(ROOT / source)
    config = _resolve_campaign_config(source, tests=tests, duration=duration)
    return config, config.compile()


def run_entry(name: str, mode: str, cold_reference) -> dict:
    """Run one entry one way; returns what ``pins.json`` stores for it."""
    config, plan = compile_entry(name)
    sut_factory = config.sut_factory()
    classifier = config.build_classifier()
    if mode == "reference":
        result = cold_reference(plan, sut_factory, classifier)
    else:
        result = CampaignEngine(plan, jobs=1 if mode == "jobs1" else 2,
                                sut_factory=sut_factory,
                                classifier=classifier).run()
    records = result.to_records()
    jsonl = "".join(record.to_json() + "\n" for record in records)
    return {
        "sha256": hashlib.sha256(jsonl.encode("utf-8")).hexdigest(),
        "outcomes": dict(sorted(Counter(record.outcome
                                        for record in records).items())),
        "identities": [spec.identity() for spec in plan],
    }


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


def test_every_entry_is_pinned():
    assert sorted(load_pins()) == sorted(ENTRIES)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_records_match_the_pin(name, mode, cold_reference):
    pin = load_pins()[name]
    got = run_entry(name, mode, cold_reference)
    assert got["identities"] == pin["identities"]
    assert got["outcomes"] == pin["outcomes"]
    assert got["sha256"] == pin["sha256"]


def write_pins() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from conftest import run_cold_reference

    pins = {}
    for name in sorted(ENTRIES):
        source, tests, duration = ENTRIES[name]
        pins[name] = {"config": source, "tests": tests, "duration": duration,
                      **run_entry(name, "reference", run_cold_reference)}
        print(f"{name}: {len(pins[name]['identities'])} specs, "
              f"{pins[name]['outcomes']}")
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {PINS}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="re-pin every entry from the cold reference")
    if not parser.parse_args().write:
        parser.error("nothing to do: pass --write to re-pin")
    write_pins()
