"""Every name a spantor module lists in ``__all__`` must exist in it.

A name left in ``__all__`` after its definition is deleted breaks
``from spantor.<module> import *`` while ``import spantor`` keeps working.
"""

import importlib
import pkgutil

import pytest

import spantor

MODULES = sorted(info.name for info in pkgutil.iter_modules(spantor.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"spantor.{name}")
    missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
    assert not missing, f"spantor.{name}.__all__ names undefined {missing}"


def test_modules_with_all_are_found():
    assert {"asym", "hp", "quadrature", "specfun"} <= {
        name for name in MODULES
        if hasattr(importlib.import_module(f"spantor.{name}"), "__all__")}
