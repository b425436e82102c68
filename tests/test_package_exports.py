"""Every name a package root exports resolves.

Most roots re-export lazily (:mod:`repro._lazy`), so an export left
pointing at a deleted module or name only fails when someone reads it.
This reads every one: each name in ``__all__`` and each name ``dir()``
lists, which adds the lazily exposed child modules.
"""

import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.core",
    "repro.eda",
    "repro.evaluation",
    "repro.experiments",
    "repro.hardware",
    "repro.rtl",
    "repro.approx",
    "repro.quant",
    "repro.datasets",
    "repro.baselines",
    "repro.serving",
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__
    for name in sorted(set(module.__all__) | set(dir(module))):
        getattr(module, name)
