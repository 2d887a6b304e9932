"""repro — fault-injection assessment of a partitioning hypervisor.

Reproduction of "Certify the Uncertified: Towards Assessment of Virtualization
for Mixed-criticality in the Automotive Domain" (Cinque, De Simone, Marchetta —
DSN 2022). The package contains:

* :mod:`repro.hw` — a behavioural model of the Banana Pi testbed;
* :mod:`repro.hypervisor` — a Jailhouse-like static partitioning hypervisor
  with the three hookable entry points the paper profiles;
* :mod:`repro.guests` — Linux root-cell and FreeRTOS non-root-cell models
  running the paper's workload;
* :mod:`repro.core` — the fault-injection framework itself (fault models,
  triggers, targets, injector, monitors, outcome classification, campaign
  orchestration, analysis, reporting);
* :mod:`repro.safety` — the ISO 26262 / SEooC assessment layer;
* :mod:`repro.baselines` — Bao-like and no-isolation comparison systems;
* :mod:`repro.analysis` — statistics and ASCII figure rendering.

Quickstart::

    from repro import quick_campaign
    result = quick_campaign(num_tests=10, duration=10.0)
    print(result.outcome_counts())
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.campaign import CampaignResult

__version__ = "1.0.0"

# Names resolve on first access (as in :mod:`repro.obs` and
# :mod:`repro.fleet`): ``import repro``, which every submodule import runs
# first, loads no simulator, numpy or assessment layer, so each command
# loads only the modules it imports.
_EXPORTS = {
    "Campaign": "repro.core.campaign",
    "CampaignResult": "repro.core.campaign",
    "EveryNCalls": "repro.core.triggers",
    "Experiment": "repro.core.experiment",
    "ExperimentResult": "repro.core.experiment",
    "ExperimentSpec": "repro.core.experiment",
    "FaultInjector": "repro.core.injection",
    "InjectionTarget": "repro.core.targets",
    "IntensityLevel": "repro.core.plan",
    "JailhouseSUT": "repro.core.sut",
    "MultiRegisterBitFlip": "repro.core.faultmodels",
    "Outcome": "repro.core.outcomes",
    "OutcomeClassifier": "repro.core.outcomes",
    "ProbabilisticTrigger": "repro.core.triggers",
    "Scenario": "repro.core.experiment",
    "SeoocAssessment": "repro.safety.seooc",
    "SingleBitFlip": "repro.core.faultmodels",
    "SutConfig": "repro.core.sut",
    "TestPlan": "repro.core.plan",
    "build_evidence_report": "repro.safety.evidence",
    "build_intensity_plan": "repro.core.plan",
    "paper_figure3_plan": "repro.core.plan",
}

__all__ = sorted([*_EXPORTS, "quick_campaign", "__version__"])


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


def quick_campaign(*, num_tests: int = 10, duration: float = 10.0,
                   base_seed: int = 0) -> CampaignResult:
    """Run a small Figure-3-style campaign (for demos and smoke tests)."""
    from repro.core.campaign import Campaign
    from repro.core.plan import paper_figure3_plan

    plan = paper_figure3_plan(num_tests=num_tests, duration=duration,
                              base_seed=base_seed)
    return Campaign(plan).run()
