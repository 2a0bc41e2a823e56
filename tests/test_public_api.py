"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib

import pytest

import cryptononlocal
from cryptononlocal import (
    basis_to_bloch,
    cglmp_bases,
    chained_settings,
    closed_form_probs,
    deterministic_contradiction,
    mub_families,
    verify_shift_bound,
)

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


def _array_holders():
    """One value of each type whose fields hold arrays."""
    settings = chained_settings(3, 2)
    alice, _ = cglmp_bases(settings)
    dist = closed_form_probs(settings)
    return [
        settings,
        dist,
        basis_to_bloch(alice[0]),
        mub_families(settings)[0],
        verify_shift_bound(dist),
        deterministic_contradiction(alice[0], alice[1], 0, 0),
    ]


def test_array_holding_types_compare_by_identity():
    # a field-wise == on array fields raised "truth value ... is ambiguous"
    for value, twin in zip(_array_holders(), _array_holders()):
        assert value == value
        assert value != twin
