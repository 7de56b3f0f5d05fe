"""Every name a module exports in ``__all__`` exists, and a function or class
it exports is defined there."""

import importlib
import pkgutil

import pytest

import mvstereo

MODULES = sorted(info.name for info in pkgutil.walk_packages(mvstereo.__path__, "mvstereo."))


def test_every_module_is_listed():
    assert "mvstereo.cameras" in MODULES and "mvstereo.autodiff.ops" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


# The one kept re-export: tests import the autodiff op from `features`.
REEXPORTS = {"mvstereo.features": {"deformable_conv2d"}}


@pytest.mark.parametrize("name", [n for n in MODULES
                                  if not hasattr(importlib.import_module(n), "__path__")])
def test_every_exported_callable_is_defined_in_its_module(name):
    """One home per public name: a module's ``__all__`` lists only the
    functions and classes it defines, so each has one import path."""
    module = importlib.import_module(name)
    foreign = [n for n in module.__all__
               if callable(obj := getattr(module, n)) and obj.__module__ != name
               and n not in REEXPORTS.get(name, ())]
    assert not foreign, f"{name}.__all__ re-exports {foreign}"
