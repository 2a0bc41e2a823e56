"""Every integer argument goes through one check: a float, a bool or a string
raises `TypeError`, a value out of range `ValueError` with its usual message,
and a numpy integer gives the bits a Python int gives."""

import pickle
import re

import numpy as np
import pytest

from cryptononlocal.bloch import (
    expected_abs_projection,
    sample_haar_pure,
    sample_sphere,
    substream,
)
from cryptononlocal.leggett import (
    LocalModel,
    basis_to_bloch,
    find_critical_n,
    leggett_bound_analytic,
    leggett_bound_floor,
    leggett_bound_mc,
)
from cryptononlocal.nosignaling import (
    check_agreement_bound,
    deterministic_contradiction,
    lhv_min_chained,
    random_no_signaling,
    strategy_chained_value,
)
from cryptononlocal.quantum import (
    ChainedSettings,
    JointDistribution,
    asymptotic_chained_value,
    cglmp_bases,
    cglmp_chained_value,
    chained_settings,
    gamma_factor,
    maximally_entangled,
)

_ALICE, _ = cglmp_bases(chained_settings(3, 2))
_BASIS = basis_to_bloch(_ALICE[0])
_UNIFORM = JointDistribution(np.full((2, 2, 2, 2), 0.25))

# name: (call with the argument under test, a valid value, an out-of-range
# value and its message, or None where every integer is valid)
ENTRY_POINTS = {
    "expected_abs_projection n": (expected_abs_projection, 5, (1, "n must be >= 2")),
    "sample_sphere n": (lambda v: sample_sphere(v, substream(1)), 3, (0, "n must be >= 1")),
    "sample_sphere size": (
        lambda v: sample_sphere(3, substream(1), size=v),
        4,
        (-1, "size must be >= 0"),
    ),
    "sample_haar_pure d": (lambda v: sample_haar_pure(v, substream(1)), 3, (1, "d must be >= 2")),
    "sample_haar_pure size": (
        lambda v: sample_haar_pure(3, substream(1), size=v),
        4,
        (-1, "size must be >= 0"),
    ),
    "substream seed": (lambda v: substream(v).random(3), 7, None),
    "substream index": (lambda v: substream(7, v).random(3), 2, None),
    "ChainedSettings d": (lambda v: ChainedSettings(v, [0.5], [1.0]), 3, (1, "d must be >= 2")),
    "chained_settings d": (lambda v: chained_settings(v, 2), 3, (1, "d must be >= 2")),
    "chained_settings n": (lambda v: chained_settings(3, v), 2, (0, "n must be >= 1")),
    "maximally_entangled d": (maximally_entangled, 3, (1, "d must be >= 2")),
    "cglmp_chained_value d": (lambda v: cglmp_chained_value(v, 5), 3, (1, "d must be >= 2")),
    "cglmp_chained_value n": (lambda v: cglmp_chained_value(3, v), 5, (0, "n must be >= 1")),
    "gamma_factor d": (gamma_factor, 3, (1, "d must be >= 2")),
    "asymptotic_chained_value d": (
        lambda v: asymptotic_chained_value(v, 5),
        3,
        (1, "d must be >= 2"),
    ),
    "asymptotic_chained_value n": (
        lambda v: asymptotic_chained_value(3, v),
        5,
        (0, "n must be >= 1"),
    ),
    "LocalModel d": (lambda v: LocalModel(d=v), 3, (1, "d must be >= 2")),
    "leggett_bound_mc n_samples": (
        lambda v: leggett_bound_mc(_BASIS, LocalModel(d=3), v, 1),
        100,
        (0, "n_samples must be >= 1"),
    ),
    "leggett_bound_mc seed": (
        lambda v: leggett_bound_mc(_BASIS, LocalModel(d=3), 100, v),
        1,
        None,
    ),
    "leggett_bound_analytic d": (leggett_bound_analytic, 3, (1, "d must be >= 2")),
    "leggett_bound_floor d": (leggett_bound_floor, 3, (1, "d must be >= 2")),
    "find_critical_n d": (
        lambda v: find_critical_n(v, 1.0, 100),
        3,
        (1, "d must be >= 2"),
    ),
    "find_critical_n n_max": (
        lambda v: find_critical_n(3, 1.0, v),
        100,
        (1, "n_max must be >= 2"),
    ),
    "random_no_signaling d": (
        lambda v: random_no_signaling(v, 2, 0.5, substream(1)),
        3,
        (1, "d must be >= 2"),
    ),
    "random_no_signaling n": (
        lambda v: random_no_signaling(3, v, 0.5, substream(1)),
        2,
        (0, "n must be >= 1"),
    ),
    "check_agreement_bound a": (
        lambda v: check_agreement_bound(_UNIFORM, v, 1),
        2,
        (3, "setting index a=3 out of range 1..2"),
    ),
    "check_agreement_bound b": (
        lambda v: check_agreement_bound(_UNIFORM, 1, v),
        2,
        (0, "setting index b=0 out of range 1..2"),
    ),
    "strategy_chained_value d": (
        lambda v: strategy_chained_value(v, [0, 1], [1, 0]),
        3,
        (1, "d must be >= 2"),
    ),
    "lhv_min_chained d": (lambda v: lhv_min_chained(v, 2), 3, (1, "d must be >= 2")),
    "lhv_min_chained n": (lambda v: lhv_min_chained(3, v), 2, (0, "n must be >= 1")),
    "deterministic_contradiction x1": (
        lambda v: deterministic_contradiction(_ALICE[0], _ALICE[1], v, 0),
        1,
        (3, "outcome index x1=3 out of range 0..2"),
    ),
    "deterministic_contradiction x2": (
        lambda v: deterministic_contradiction(_ALICE[0], _ALICE[1], 0, v),
        2,
        (-1, "outcome index x2=-1 out of range 0..2"),
    ),
}

NOT_INTEGERS = [3.5, 2.0, True, np.True_, "3"]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_integer_argument_raises_type_error(entry, value):
    call, _, _ = ENTRY_POINTS[entry]
    with pytest.raises(TypeError, match=re.escape(f"={value!r} is not an integer")):
        call(value)


@pytest.mark.parametrize(
    "entry", [name for name, (_, _, bad) in ENTRY_POINTS.items() if bad is not None]
)
def test_out_of_range_argument_keeps_its_message(entry):
    call, _, (value, message) = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_numpy_integer_gives_the_bits_of_an_int(entry):
    # pickles are equal only if every field has the same type and bits
    call, value, _ = ENTRY_POINTS[entry]
    assert pickle.dumps(call(np.int64(value))) == pickle.dumps(call(value))
