"""Every array argument goes through one check: strings, booleans and, for a
real argument, a nonzero imaginary part raise `ValueError` naming the
argument, where numpy alone would parse, promote or drop them."""

import math
import re

import numpy as np
import pytest

from cryptononlocal.bloch import bloch_to_density, state_to_bloch
from cryptononlocal.leggett import (
    basis_to_bloch,
    escape_report,
    marginal_distribution,
    mub_families,
)
from cryptononlocal.nosignaling import deterministic_contradiction
from cryptononlocal.quantum import chained_settings, joint_from_bases

_EYE = np.eye(2)
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
_BASIS = basis_to_bloch(_EYE)
_FAMILIES = mub_families(chained_settings(2, 2))
_STATE = [1, 0, 0, 0]

# name: (call with the argument under test, a valid value of it with entries
# 0 and 1, the name its message starts with, whether the argument is real)
ENTRY_POINTS = {
    "state_to_bloch psi": (state_to_bloch, [1, 0], "psi", False),
    "bloch_to_density u": (bloch_to_density, [0, 0, 1], "u", True),
    "basis_to_bloch basis": (basis_to_bloch, _EYE, "basis", False),
    "marginal_distribution u": (
        lambda v: marginal_distribution(_BASIS, v),
        [0, 0, 1],
        "u",
        True,
    ),
    "escape_report u": (lambda v: escape_report(v, _FAMILIES), [0, 0, 1], "u", True),
    "joint_from_bases state": (
        lambda v: joint_from_bases(v, [_EYE], [_EYE]),
        _STATE,
        "state",
        False,
    ),
    "joint_from_bases alice": (
        lambda v: joint_from_bases(_STATE, v, [_EYE]),
        [_EYE],
        "alice",
        False,
    ),
    "joint_from_bases bob": (
        lambda v: joint_from_bases(_STATE, [_EYE], v),
        [_EYE],
        "bob",
        False,
    ),
    "deterministic_contradiction basis1": (
        lambda v: deterministic_contradiction(v, _HADAMARD, 0, 0),
        _EYE,
        "basis1",
        False,
    ),
    "deterministic_contradiction basis2": (
        lambda v: deterministic_contradiction(_HADAMARD, v, 0, 0),
        _EYE,
        "basis2",
        False,
    ),
}


def _bool_among_numbers(value):
    # numpy gives [True, 0.0] a float dtype: only each entry's type shows it
    entries = np.asarray(value).astype(object)
    entries[entries == 1] = True
    return entries.tolist()


# each takes a valid value to one of the same shape that holds no numbers
NOT_NUMBERS = {
    "str array": lambda v: np.asarray(v).astype(str),
    "str list": lambda v: np.asarray(v).astype(str).tolist(),
    "bool array": lambda v: np.asarray(v).astype(bool),
    "bool list": lambda v: np.asarray(v).astype(bool).tolist(),
    "bool among numbers": _bool_among_numbers,
}
# each takes a valid value to one with a nonzero imaginary part
NOT_REAL = {
    "complex array": lambda v: np.asarray(v) + 1e-30j,
    "complex list": lambda v: (np.asarray(v) + 1j).tolist(),
}


def _refused(entry, bad):
    call, valid, name, _ = ENTRY_POINTS[entry]
    call(valid)  # the same shape and values as numbers pass
    needle = f"^{re.escape(name)} is not a rectangular array of numbers: "
    with pytest.raises(ValueError, match=needle):
        call(bad(valid))


@pytest.mark.parametrize("kind", NOT_NUMBERS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_an_array_of_non_numbers_is_refused_by_name(entry, kind):
    _refused(entry, NOT_NUMBERS[kind])


@pytest.mark.parametrize("kind", NOT_REAL)
@pytest.mark.parametrize("entry", [name for name, row in ENTRY_POINTS.items() if row[3]])
def test_a_real_argument_with_an_imaginary_part_is_refused_by_name(entry, kind):
    _refused(entry, NOT_REAL[kind])
