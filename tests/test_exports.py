"""Every name a module exports in ``__all__`` exists."""

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
