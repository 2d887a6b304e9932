"""Child processes of the benchmark; each stamps ``time.monotonic()``.

``CLOCK_MONOTONIC`` is system-wide on Linux, so the parent subtracts its own
spawn timestamp from the stamps printed here.

    python perfbench/child.py setup -- <cli args>    # set-up probe
    python perfbench/child.py startup                # start-up probe
    python perfbench/child.py trace OUT -- <cli args>

* ``setup`` runs the CLI's start-up path — ``import repro.cli``, argument
  parsing and, for ``run``, config load and ``CampaignConfig.compile()`` —
  then prints the moment the first experiment could start.
* ``startup`` prints the stamps around ``import numpy`` and
  ``import repro.cli`` in a fresh interpreter.
* ``trace`` runs ``repro.cli.main`` with :mod:`tracer` spans installed and
  writes the trace to ``OUT``.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def resolve_config(name_or_path, *, tests=None, duration=None, seed=None):
    """Load a campaign config with the CLI's ``--tests/--duration/--seed``.

    Mirrors what ``repro run`` does before it executes, through the public
    config API only, so that CLI refactors do not break the benchmark.
    """
    from repro.core.config import catalog_config, load_campaign_config

    if Path(name_or_path).exists():
        config = load_campaign_config(name_or_path)
    else:
        config = catalog_config(name_or_path)
    if tests is not None:
        if config.sampling == "random":
            config.sample_size = tests
        else:
            config.tests = tests
    if duration is not None:
        config.duration = duration
    if seed is not None:
        config.base_seed = seed
    return config


def setup_probe(argv) -> None:
    import repro.cli

    args = repro.cli.build_parser().parse_args(argv)
    if args.command == "run":
        resolve_config(args.config, tests=args.tests, duration=args.duration,
                       seed=args.seed).compile()
    print(json.dumps({"ready": time.monotonic()}))


def startup_probe() -> None:
    before_numpy = time.monotonic()
    import numpy  # noqa: F401
    after_numpy = time.monotonic()
    import repro.cli  # noqa: F401
    after_repro = time.monotonic()
    print(json.dumps({"started": STARTED, "before_numpy": before_numpy,
                      "after_numpy": after_numpy, "after_repro": after_repro}))


def traced_run(out_path: str, argv) -> int:
    import importlib

    from tracer import Tracer, install

    tracer = Tracer()
    cli = tracer.span("cli.import", importlib.import_module)("repro.cli")
    for missing in install(tracer):
        print(f"trace: {missing} not found; its span reads zero",
              file=sys.stderr)
    code = tracer.span("cli.main", cli.main)(argv)
    tracer.dump(out_path, started=STARTED)
    return code


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        setup_probe(rest[1:])
        return 0
    if mode == "startup":
        startup_probe()
        return 0
    if mode == "trace":
        return traced_run(rest[0], rest[2:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
