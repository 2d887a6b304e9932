"""The names :mod:`repro.hypervisor` exports, which resolve on first access."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.hypervisor

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize("name", repro.hypervisor.__all__)
def test_each_export_is_the_object_its_submodule_defines(name):
    value = getattr(repro.hypervisor, name)
    assert value.__module__.startswith("repro.hypervisor.")
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_dir_lists_every_export():
    assert set(repro.hypervisor.__all__) <= set(dir(repro.hypervisor))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'Nothing'"):
        repro.hypervisor.Nothing  # noqa: B018


def test_the_trap_vocabulary_loads_without_the_hypervisor_model():
    # Record readers import the trap module; the package must not pull the
    # hypervisor and the hardware model in with it.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.hypervisor.traps; print(' '.join(sorted("
         "name for name in sys.modules if name.startswith('repro'))))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == [
        "repro", "repro.hypervisor", "repro.hypervisor.traps"]
