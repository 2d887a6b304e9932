"""Static contract checker for the repro codebase (``repro-fi check``).

Every multiplier this repo ships — the family executor's prefix forks, the
multi-host fleet — rests on invariants that are invisible to the type
system: records must be byte-identical across execution
strategies, ``snapshot_state`` must deep-copy every mutable field, telemetry
must cost nothing when disabled, threaded state must stay under its lock,
wire-format version strings must mean exactly one thing, and declarative
configs must resolve against the plugin registries. This package
machine-checks those contracts with nothing but :mod:`ast` — no third-party
linters, no imports of the simulator — so the gate runs anywhere the source
tree does.

Layout:

* :mod:`repro.check.findings` — the :class:`Finding` record.
* :mod:`repro.check.source` — parsed source files, inline
  ``# repro: allow[rule] -- reason`` suppressions, the :class:`Project`.
* :mod:`repro.check.baseline` — the committed JSON findings baseline.
* :mod:`repro.check.rules` — one module per rule.
* :mod:`repro.check.runner` — orchestration plus text/JSON rendering.
"""

from repro.check.baseline import (BASELINE_SCHEMA, load_baseline,
                                  write_baseline)
from repro.check.findings import Finding
from repro.check.rule import Rule
from repro.check.runner import (CHECK_SCHEMA, CheckResult, available_rules,
                                render_text, run_check, to_payload)
from repro.check.source import Project, SourceFile

__all__ = [
    "BASELINE_SCHEMA",
    "CHECK_SCHEMA",
    "CheckResult",
    "Finding",
    "Project",
    "Rule",
    "SourceFile",
    "available_rules",
    "load_baseline",
    "render_text",
    "run_check",
    "to_payload",
    "write_baseline",
]
