"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib

import pytest

import cryptononlocal

MODULES = ("bloch", "quantum", "leggett", "nosignaling")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves_and_is_reexported(name):
    module = importlib.import_module(f"cryptononlocal.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert [n for n in module.__all__ if not hasattr(cryptononlocal, n)] == []


def test_star_import():
    namespace: dict = {}
    exec("from cryptononlocal import *", namespace)
    for name in MODULES:
        module = importlib.import_module(f"cryptononlocal.{name}")
        assert set(module.__all__) <= namespace.keys()
