"""Every module under ``repro`` imports, and exports what it lists.

A deleted module can leave a stale import or re-export behind in a module
no other test loads; importing the whole package tree catches it.  A
deleted definition can leave its name in ``__all__``, which only
``from module import *`` trips on; the ``__all__`` check catches it.
"""

import importlib
import pkgutil

import pytest

import repro


def _raise(name):
    raise ImportError(f"cannot walk package {name}")


MODULES = sorted(
    info.name for info in pkgutil.walk_packages(
        repro.__path__, "repro.", onerror=_raise)
    # Importing the CLI entry point would run it.
    if info.name != "repro.__main__")


def test_walk_finds_the_package_tree():
    assert "repro.api" in MODULES
    assert "repro.bgp.view" in MODULES
    assert len(MODULES) > 100


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names: {missing}"
