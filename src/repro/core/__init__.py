"""Fault-injection framework (the paper's primary contribution).

The framework orchestrates fault-injection campaigns against a system under
test: it decides *what* to corrupt (:mod:`faultmodels`), *when*
(:mod:`triggers`), *where* (:mod:`targets`), installs the corruption as an
entry hook on the hypervisor's handlers (:mod:`injection`), observes the
system (:mod:`monitors`), classifies each test's outcome (:mod:`outcomes`),
and aggregates results (:mod:`campaign`, :mod:`analysis`, :mod:`report`).
"""

# Names resolve on first access, as in :mod:`repro` itself: importing one
# submodule (say :mod:`repro.core.registry`, which the guest models use)
# must not import the whole framework and close an import cycle.
_EXPORTS = {
    "AppliedFault": "repro.core.faultmodels",
    "AvailabilityMonitor": "repro.core.monitors",
    "AvailabilityReport": "repro.core.monitors",
    "CLASSIFIERS": "repro.core.registry",
    "Campaign": "repro.core.campaign",
    "CampaignConfig": "repro.core.config",
    "CampaignResult": "repro.core.campaign",
    "EveryNCalls": "repro.core.triggers",
    "FAULT_MODELS": "repro.core.registry",
    "GUESTS": "repro.core.registry",
    "PartRef": "repro.core.config",
    "Registry": "repro.core.registry",
    "RegistrySutFactory": "repro.core.registry",
    "SCENARIOS": "repro.core.registry",
    "SUTS": "repro.core.registry",
    "TARGETS": "repro.core.registry",
    "TRIGGERS": "repro.core.registry",
    "WORKLOADS": "repro.core.registry",
    "catalog_config": "repro.core.config",
    "catalog_keys": "repro.core.config",
    "load_campaign_config": "repro.core.config",
    "resolve_sut_factory": "repro.core.registry",
    "Experiment": "repro.core.experiment",
    "ExperimentRecord": "repro.core.recording",
    "ExperimentResult": "repro.core.outcomes",
    "ExperimentSpec": "repro.core.experiment",
    "FaultInjector": "repro.core.injection",
    "FaultModel": "repro.core.faultmodels",
    "InjectionRecord": "repro.core.injection",
    "InjectionTarget": "repro.core.targets",
    "IntensityLevel": "repro.core.plan",
    "JailhouseSUT": "repro.core.sut",
    "MultiRegisterBitFlip": "repro.core.faultmodels",
    "OneShotAtCall": "repro.core.triggers",
    "Outcome": "repro.core.outcomes",
    "OutcomeClassifier": "repro.core.outcomes",
    "OutcomeEvidence": "repro.core.outcomes",
    "ProbabilisticTrigger": "repro.core.triggers",
    "RecordStore": "repro.core.recording",
    "RegisterClassBitFlip": "repro.core.faultmodels",
    "Scenario": "repro.core.experiment",
    "SingleBitFlip": "repro.core.faultmodels",
    "SutConfig": "repro.core.sut",
    "SystemUnderTest": "repro.core.sut",
    "TestPlan": "repro.core.plan",
    "Trigger": "repro.core.triggers",
    "build_intensity_plan": "repro.core.plan",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
