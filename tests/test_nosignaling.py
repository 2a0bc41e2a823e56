import itertools
import re
import tracemalloc

import numpy as np
import pytest

from cryptononlocal import nosignaling
from cryptononlocal.bloch import substream
from cryptononlocal.leggett import basis_to_bloch
from cryptononlocal.nosignaling import (
    check_agreement_bound,
    check_no_signaling,
    deterministic_contradiction,
    lhv_min_chained,
    random_no_signaling,
    statistical_distance,
    strategy_chained_value,
    verify_shift_bound,
)
from cryptononlocal.quantum import (
    JointDistribution,
    _signaling_residuals,
    cglmp_bases,
    chained_settings,
    chained_value,
    joint_distribution,
    maximally_entangled,
)
from helpers import haar_unitary


def test_statistical_distance_examples():
    assert statistical_distance([0.2, 0.8], [0.2, 0.8]) == 0.0
    assert statistical_distance([1, 0, 0], [0, 1, 0]) == pytest.approx(2.0 / 3.0)
    assert statistical_distance([0.8, 0.2], [0.3, 0.7]) == pytest.approx(0.5)


def test_statistical_distance_properties():
    rng = substream(41, 0)
    for _ in range(300):
        d = int(rng.integers(2, 7))
        p, q, r = rng.dirichlet(np.ones(d), size=3)
        dpq = statistical_distance(p, q)
        assert dpq == pytest.approx(statistical_distance(q, p), abs=1e-15)
        assert 0.0 <= dpq <= 2.0 / d + 1e-15
        assert statistical_distance(p, r) <= dpq + statistical_distance(q, r) + 1e-12
    assert statistical_distance([0.5, 0.5], [0.5, 0.5]) <= 1e-12


def test_statistical_distance_rejects_bad_input():
    with pytest.raises(ValueError, match="not normalized"):
        statistical_distance([0.5, 0.2], [0.5, 0.5])
    with pytest.raises(ValueError, match="outcome counts"):
        statistical_distance([0.5, 0.5], [1.0, 0.0, 0.0])
    # a 2-D array was once flattened: P read as four outcomes of 1/4 each
    with pytest.raises(ValueError, match=re.escape("P must be one-dimensional, got shape (2, 2)")):
        statistical_distance(np.full((2, 2), 0.25), np.eye(2) / 2)
    with pytest.raises(ValueError, match=re.escape("Q must be one-dimensional, got shape (2, 2)")):
        statistical_distance([0.5, 0.5], np.eye(2) / 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_statistical_distance_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="P has a non-finite entry"):
        statistical_distance([bad, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="Q has a non-finite entry"):
        statistical_distance([0.5, 0.5], [1.0, bad])


@pytest.mark.parametrize(
    "p,needle",
    [
        ([np.inf, -np.inf], "has a non-finite entry"),
        ([np.inf, -0.5], "has a non-finite entry"),
        ([-0.5, 1.5], "has a negative entry"),
        ([], "is empty"),
        (1.0, "must be one-dimensional"),
        ([[0.5], [0.5]], "must be one-dimensional"),
    ],
)
def test_statistical_distance_names_the_defect(p, needle):
    # the sign and sum checks screen for non-finite entries, and the
    # message stays the one np.isfinite gives ([nan, 1] is in the test above)
    with pytest.raises(ValueError, match=f"P {needle}"):
        statistical_distance(p, p)


def test_statistical_distance_overflowing_sum_is_not_normalized():
    # every entry is finite; only their sum overflows, and no warning escapes
    with pytest.raises(ValueError, match="P is not normalized"):
        statistical_distance([1e308, 1e308], [0.5, 0.5])


def _product_shifts(pa, n=2):
    # Alice's marginal pa at every setting, Bob uniform: no-signaling
    pa = np.asarray(pa, dtype=float)
    d = pa.shape[0]
    block = np.outer(pa, np.full(d, 1.0 / d))
    probs = np.broadcast_to(block, (n, n, d, d)).copy()
    return verify_shift_bound(JointDistribution(probs)).shifts


def test_shift_distance_examples():
    # sum_x |P(x) - P(x+1 mod d)| / d, for every Alice setting
    assert np.array_equal(_product_shifts(np.full(5, 0.2)), [0.0, 0.0])
    for p in (0.1, 0.5, 0.9):
        assert _product_shifts([p, 1 - p]) == pytest.approx([abs(2 * p - 1)] * 2)
    assert _product_shifts([1.0, 0.0, 0.0], n=3) == pytest.approx([2.0 / 3.0] * 3)


def test_check_no_signaling_on_quantum_distribution():
    dist = joint_distribution(maximally_entangled(3), chained_settings(3, 4))
    report = check_no_signaling(dist, tol=1e-12)
    assert report.passed


def test_check_no_signaling_product_distribution():
    # product of fixed local distributions, identical across settings
    pa = np.array([0.7, 0.3])
    pb = np.array([0.4, 0.6])
    probs = np.broadcast_to(np.outer(pa, pb), (3, 3, 2, 2)).copy()
    report = check_no_signaling(JointDistribution(probs), tol=0.0)
    assert report.residual == 0.0
    assert report.passed


def test_check_no_signaling_detects_built_in_gap():
    # Alice's outcome tracks Bob's setting: residual equals the built-in gap
    probs = np.zeros((2, 2, 2, 2))
    probs[:, 0, 0, 0] = 1.0
    probs[:, 1, 1, 0] = 1.0
    report = check_no_signaling(JointDistribution(probs), tol=1e-12)
    assert not report.passed
    # Alice's X=0 weight swings from 1 (B=1) to 0 (B=2): the built-in gap
    assert report.alice_residual == pytest.approx(1.0)


@pytest.mark.parametrize("tol,needle", [(float("nan"), "nan"), (-1.0, "-1.0")])
def test_checks_refuse_a_nan_or_negative_tol(tol, needle):
    # on this box, which does not signal, both once reported passed=False
    dist = JointDistribution(np.full((2, 2, 2, 2), 0.25))
    message = f"tol must be a non-negative number, got {needle}"
    with pytest.raises(ValueError, match=message):
        check_no_signaling(dist, tol=tol)
    with pytest.raises(ValueError, match=message):
        check_agreement_bound(dist, 1, 2, tol=tol)


@pytest.mark.parametrize("mix", [0.0, 0.37, 1.0])
def test_random_no_signaling_invariants(mix):
    for trial in range(50):
        dist = random_no_signaling(3, 3, mix, substream(43, trial))
        p = dist.probs
        assert p.min() >= 0.0
        assert np.abs(p.sum(axis=(2, 3)) - 1.0).max() < 1e-12
        assert check_no_signaling(dist, tol=1e-12).passed
        if mix == 1.0:
            assert np.abs(p.sum(axis=3) - 1.0 / 3.0).max() < 1e-12


@pytest.mark.parametrize("mix", [1.5, 10**400])
def test_random_no_signaling_rejects_bad_mix(mix):
    # the range is checked before the conversion to float, which would overflow
    with pytest.raises(ValueError, match="mix"):
        random_no_signaling(2, 2, mix, substream(1, 0))


@pytest.mark.parametrize(
    "mix", [True, np.True_, "0.5", None, 0.5j], ids=["bool", "numpy-bool", "str", "None", "complex"]
)
def test_random_no_signaling_refuses_a_mix_that_is_not_a_real_number(mix):
    # True once built a box with mix 1, and "0.5" failed on a bare comparison
    with pytest.raises(TypeError, match=re.escape(f"mix={mix!r} is not a number")):
        random_no_signaling(2, 2, mix, substream(1, 0))


# np.float32(0.1) was once used as it was, and the box moved by 2.2e-8
@pytest.mark.parametrize("mix", [1, np.float32(1.0), np.float32(0.1)])
def test_random_no_signaling_takes_any_real_mix_as_its_float(mix):
    box = random_no_signaling(3, 2, mix, substream(1, 0)).probs
    assert np.array_equal(box, random_no_signaling(3, 2, float(mix), substream(1, 0)).probs)


@pytest.mark.parametrize(
    "rng", [7, None, np.random.RandomState(7), np.random.PCG64(7)], ids=["int", "None", "RandomState", "PCG64"]
)
def test_random_no_signaling_refuses_an_rng_that_is_not_a_generator(rng):
    # an int once raised AttributeError: 'int' object has no attribute 'integers'
    name = type(rng).__name__
    with pytest.raises(TypeError, match=f"rng is a {name}, not a numpy Generator: .*substream"):
        random_no_signaling(2, 2, 0.5, rng)


@pytest.mark.parametrize(
    "d,n,needle", [(1, 3, "d must be >= 2"), (0, 3, "d must"), (3, 0, "n must be >= 1")]
)
def test_random_no_signaling_rejects_bad_size(d, n, needle):
    with pytest.raises(ValueError, match=needle):
        random_no_signaling(d, n, 0.5, substream(1, 0))


def test_shift_bound_on_random_corpus():
    worst = np.inf
    for trial in range(300):
        gen = substream(47, trial)
        mix = float(gen.uniform())
        dist = random_no_signaling(3, 3, mix, gen)
        report = verify_shift_bound(dist)
        assert report.passed
        worst = min(worst, report.slack)
    assert worst >= -1e-9


def test_shift_bound_on_perfectly_correlated_box():
    d, n = 3, 3
    probs = np.zeros((n, n, d, d))
    for x in range(d):
        probs[:, :, x, x] = 1.0 / d
    report = verify_shift_bound(JointDistribution(probs))
    assert report.max_shift == pytest.approx(0.0, abs=1e-15)
    assert report.passed


def test_shift_bound_on_quantum_distribution():
    dist = joint_distribution(maximally_entangled(3), chained_settings(3, 10))
    report = verify_shift_bound(dist)
    assert report.max_shift < 1e-12  # uniform marginals shift nowhere
    assert report.chained > 0
    assert report.passed


def test_shift_bound_rejects_signaling_input():
    probs = np.zeros((2, 2, 2, 2))
    probs[:, 0, 0, 0] = 1.0
    probs[:, 1, 1, 0] = 1.0
    with pytest.raises(ValueError, match="signals"):
        verify_shift_bound(JointDistribution(probs))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_shift_bound_rejects_non_finite_entry(bad):
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[0, 1, 1, 0] = bad
    with pytest.raises(ValueError, match="non-finite entry"):
        verify_shift_bound(JointDistribution(probs))


def test_shift_bound_rejects_unnormalized_bare_array():
    # uniform in every marginal, so it signals nowhere, but sums to 2
    with pytest.raises(ValueError, match="not normalized"):
        verify_shift_bound(JointDistribution(np.full((2, 2, 2, 2), 0.5)))


def test_shift_bound_rejects_negative_entry():
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[:, :, 0, 0] += 0.5
    probs[:, :, 1, 1] -= 0.5
    with pytest.raises(ValueError, match="negative"):
        verify_shift_bound(JointDistribution(probs))


def test_agreement_bound_identical_marginals():
    d, n = 2, 2
    probs = np.zeros((n, n, d, d))
    probs[:, :, 1, 1] = 1.0
    report = check_agreement_bound(JointDistribution(probs), 1, 1)
    assert report.p_equal == 1.0
    assert report.distance == 0.0
    assert report.passed


def test_agreement_bound_disjoint_supports():
    probs = np.zeros((2, 2, 2, 2))
    probs[:, :, 0, 1] = 1.0  # Alice always 0, Bob always 1
    report = check_agreement_bound(JointDistribution(probs), 1, 2)
    assert report.p_equal == 0.0
    assert report.distance == pytest.approx(1.0)
    assert report.passed


@pytest.mark.parametrize(
    "block,defect",
    [
        ([[0.5, -0.1], [0.1, 0.5]], "has a negative entry"),
        ([[0.5, float("nan")], [0.0, 0.5]], "has a non-finite entry"),
        ([[0.5, 0.1], [0.0, 0.5]], "is not normalized"),
    ],
    ids=["negative", "nan", "not-normalized"],
)
def test_agreement_bound_refuses_a_bad_block_by_its_setting_pair(block, defect):
    # the negative entry hides in the block's marginals, (0.4, 0.6) and (0.6, 0.4)
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[1, 0] = block
    dist = JointDistribution(probs)
    with pytest.raises(ValueError, match=re.escape(f"setting pair (2, 1) {defect}")):
        check_agreement_bound(dist, 2, 1)
    assert check_agreement_bound(dist, 1, 2).passed


def test_agreement_bound_random_corpus():
    for trial in range(200):
        gen = substream(53, trial)
        dist = random_no_signaling(2, 2, float(gen.uniform()), gen)
        for a in (1, 2):
            for b in (1, 2):
                assert check_agreement_bound(dist, a, b).passed


@pytest.mark.parametrize(
    "a,b,needle",
    [
        (True, 1, "a=True"),
        (1, np.True_, "b=np.True_"),
        (1.5, 1, "a=1.5"),
        (1, 2.0, "b=2.0"),
    ],
)
def test_agreement_bound_refuses_non_integer_settings(a, b, needle):
    dist = JointDistribution(np.full((2, 2, 2, 2), 0.25))
    with pytest.raises(TypeError, match=f"setting index {needle} is not an integer"):
        check_agreement_bound(dist, a, b)


def test_agreement_bound_takes_numpy_integer_settings():
    dist = random_no_signaling(3, 2, 0.5, substream(5, 0))
    assert check_agreement_bound(dist, np.int64(1), 2) == check_agreement_bound(dist, 1, 2)


# `"1"` and `"0"` parse as numbers, so without the type check this string
# tensor would pass as a valid no-signaling distribution
_STRING_BOX = np.where(np.arange(4).reshape(1, 1, 2, 2) == 0, "1", "0")


@pytest.mark.parametrize(
    "call",
    [chained_value, check_no_signaling, verify_shift_bound, lambda p: check_agreement_bound(p, 1, 1)],
    ids=["chained_value", "check_no_signaling", "verify_shift_bound", "check_agreement_bound"],
)
@pytest.mark.parametrize("form", ["array", "list"])
def test_tensor_readers_reject_strings(call, form):
    probs = _STRING_BOX if form == "array" else _STRING_BOX.tolist()
    # a reader takes only a JointDistribution, never a bare tensor,
    name = type(probs).__name__
    with pytest.raises(TypeError, match=f"dist is a {name}, not a JointDistribution: wrap"):
        call(probs)
    # and the string tensor never becomes one
    with pytest.raises(ValueError, match="dtype <U1"):
        JointDistribution(probs)


def _dense_random_no_signaling(d, n, mix, gen):
    """The construction `random_no_signaling` replaced: one dense (n, n, d, d)
    addend per strategy, from one-hot einsums, and a 4-array fancy-index add
    per box."""
    probs = np.zeros((n, n, d, d))
    n_local = int(gen.integers(1, 6))
    w = gen.dirichlet(np.ones(n_local))
    for i in range(n_local):
        a = gen.integers(0, d, size=n)
        b = gen.integers(0, d, size=n)
        one_a = np.zeros((n, d))
        one_a[np.arange(n), a] = 1.0
        one_b = np.zeros((n, d))
        one_b[np.arange(n), b] = 1.0
        probs += (1.0 - mix) * w[i] * np.einsum("ax,by->abxy", one_a, one_b)
    n_box = int(gen.integers(1, 6))
    v = gen.dirichlet(np.ones(n_box))
    x = np.arange(d)
    a_idx = np.arange(n)[:, None, None]
    b_idx = np.arange(n)[None, :, None]
    for i in range(n_box):
        f = gen.integers(0, d, size=(n, n))
        y = (x[None, None, :] + f[:, :, None]) % d
        probs[a_idx, b_idx, x[None, None, :], y] += mix * v[i] / d
    return probs


def _inline_chained_value(probs):
    """`chained_value` with its weight matrices built inline on every call."""
    n, d = probs.shape[0], probs.shape[2]
    x = np.arange(d)[:, None]
    y = np.arange(d)[None, :]
    total = float(np.sum((x - y) % d * np.einsum("iixy->xy", probs)))
    if n > 1:
        total += float(np.sum((y - x) % d * np.einsum("iixy->xy", probs[1:, :-1])))
    total += float(np.sum((y - x - 1) % d * probs[0, n - 1]))
    return total


def _roll_shifts(probs):
    """Per-setting shift distances with `np.roll` and the B-mean."""
    marg = probs.sum(axis=3).mean(axis=1)
    return np.abs(marg - np.roll(marg, -1, axis=1)).sum(axis=1) / probs.shape[2]


def _ptp_residuals(probs):
    """Signaling residuals with `np.ptp`."""
    alice = np.einsum("abxy->abx", probs)
    bob = np.einsum("abxy->aby", probs)
    alice_by_b = np.ascontiguousarray(alice.transpose(1, 0, 2))
    return float(np.ptp(alice_by_b, axis=0).max()), float(np.ptp(bob, axis=0).max())


@pytest.mark.parametrize("mix", [0.0, 1.0, "drawn"])
@pytest.mark.parametrize("d", [*range(2, 10), 12, 16])
def test_verification_path_is_bit_identical_to_dense_oracles(d, mix):
    for n in range(1, 10):
        seed = 100 * d + n
        for stream in (0, 1):
            gen, oracle_gen = substream(seed, stream), substream(seed, stream)
            m = float(gen.uniform()) if mix == "drawn" else mix
            if mix == "drawn":
                oracle_gen.uniform()
            dist = random_no_signaling(d, n, m, gen)
            probs = _dense_random_no_signaling(d, n, m, oracle_gen)
            # the same generator calls: both streams stand at one place
            assert gen.integers(2**63) == oracle_gen.integers(2**63)
            assert np.array_equal(dist.probs, probs)
            chained = _inline_chained_value(probs)
            assert chained_value(dist) == chained
            shifts = _roll_shifts(probs)
            report = verify_shift_bound(dist)
            assert report.chained == chained
            assert np.array_equal(report.shifts, shifts)
            assert report.slack == chained - float(shifts.max())
            residuals = _ptp_residuals(probs)
            assert _signaling_residuals(dist.probs) == residuals
            signaling = check_no_signaling(dist)
            assert (signaling.alice_residual, signaling.bob_residual) == residuals
            block = probs[0, n - 1]
            agreement = check_agreement_bound(dist, 1, n)
            assert agreement.p_equal == float(np.trace(block))


# beyond the grid above: many outcomes per draw at d = 100, and at d = 2 the
# long arrays of one call per law (up to 5 x 40 x 40 shifts)
@pytest.mark.parametrize("mix", [0.0, 1.0, "drawn"])
@pytest.mark.parametrize("d,ns", [(100, range(1, 4)), (2, [*range(10, 33, 2), 37, 40])])
def test_one_call_per_law_draws_the_dense_oracles_outcomes(d, ns, mix):
    for n in ns:
        for stream in (0, 1, 2):
            gen, oracle_gen = substream(100 * d + n, stream), substream(100 * d + n, stream)
            m = float(gen.uniform()) if mix == "drawn" else mix
            if mix == "drawn":
                oracle_gen.uniform()
            probs = random_no_signaling(d, n, m, gen).probs
            assert np.array_equal(probs, _dense_random_no_signaling(d, n, m, oracle_gen))
            assert gen.integers(2**63) == oracle_gen.integers(2**63)


# a slab of one Alice setting: the slab loop's bounds and offsets, at sizes
# that otherwise fill one slab
@pytest.mark.parametrize("d,n", [(2, 40), (3, 5), (5, 6)])
def test_one_setting_slabs_build_the_one_slab_box(monkeypatch, d, n):
    boxes = []
    for slab_cells in (nosignaling._SLAB_CELLS, 1):
        monkeypatch.setattr(nosignaling, "_SLAB_CELLS", slab_cells)
        for stream in range(4):
            gen = substream(100 * d + n, stream)
            mix = float(gen.uniform())
            boxes.append((random_no_signaling(d, n, mix, gen).probs.tobytes(), gen.integers(2**63)))
    assert boxes[:4] == boxes[4:]
    for stream, (probs, after) in enumerate(boxes[:4]):
        oracle_gen = substream(100 * d + n, stream)
        mix = float(oracle_gen.uniform())
        assert probs == _dense_random_no_signaling(d, n, mix, oracle_gen).tobytes()
        assert after == oracle_gen.integers(2**63)


# the tensor's own bytes, the outcome arrays of one call per law (five
# boxes' n^2 shifts are 5/4 of the tensor at d = 2 and 5/9 at d = 3) and one
# slab's cell indices, weights and bincount: measured 2.36 and 1.76 times the
# tensor (3.51 and 2.35 with one scatter per term)
@pytest.mark.parametrize("d,n,bound", [(2, 600, 2.45), (3, 300, 1.85)])
def test_random_no_signaling_peak_memory(d, n, bound):
    worst = 0.0
    for seed in range(20):  # seeds 19 (d = 2) and 9 (d = 3) draw five of each law
        gen = substream(seed, 0)
        tracemalloc.start()
        try:
            random_no_signaling(d, n, 0.5, gen)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        worst = max(worst, peak / (8 * n * n * d * d))
    assert worst <= bound


def test_strategy_chained_value_wrap():
    assert strategy_chained_value(2, [0, 0], [0, 0]) == 1
    assert strategy_chained_value(3, [0, 0], [0, 0]) == 2
    # the all-zero tuples of the lhv_min_chained witness
    assert strategy_chained_value(3, (0,) * 4, (0,) * 4) == 2


@pytest.mark.parametrize(
    "outcomes,needle",
    [
        ([0.7], "are not integers"),
        ([5], "are out of range"),
        ([-1], "are out of range"),
        ([True], "are not integers"),
    ],
)
def test_strategy_chained_value_refuses_bad_outcomes(outcomes, needle):
    # [0.7] used to truncate to 0 and [5] to count as 2, mod d
    with pytest.raises(ValueError, match=f"alice outcomes {needle}"):
        strategy_chained_value(3, outcomes, [0])
    with pytest.raises(ValueError, match=f"bob outcomes {needle}"):
        strategy_chained_value(3, [0], outcomes)


@pytest.mark.parametrize("outcomes", [[0, True], (0, np.True_)])
def test_strategy_chained_value_refuses_a_bool_among_integers(outcomes):
    # numpy gives both an integer dtype, and True once counted as outcome 1
    with pytest.raises(ValueError, match="alice outcomes are not integers"):
        strategy_chained_value(3, outcomes, [0, 0])
    with pytest.raises(ValueError, match="bob outcomes are not integers"):
        strategy_chained_value(3, [0, 0], outcomes)


def test_strategy_chained_value_takes_integer_arrays():
    outcomes = np.array([0, 1, 2])
    assert strategy_chained_value(3, outcomes, outcomes) == strategy_chained_value(
        3, [0, 1, 2], [0, 1, 2]
    )


def test_strategy_chained_value_refuses_empty_sequences():
    with pytest.raises(ValueError, match="non-empty"):
        strategy_chained_value(3, [], [])


def test_strategy_chained_value_refuses_bad_dimension():
    # d = 0 once reached `% 0`, a numpy divide-by-zero warning
    with pytest.raises(ValueError, match="d must be >= 2"):
        strategy_chained_value(0, [1], [1])


def _enumerated_lhv_min(d, n):
    """Smallest I_N over all d^(2n) deterministic strategies, and the first
    strategy (in lexicographic order) that attains it."""
    bob_space = np.array(list(itertools.product(range(d), repeat=n)))
    best = None
    for alice in itertools.product(range(d), repeat=n):
        a = np.asarray(alice)
        a_next = np.append(a[1:], a[0] + 1)
        totals = ((a - bob_space) % d + (bob_space - a_next) % d).sum(axis=1)
        idx = int(np.argmin(totals))
        if best is None or totals[idx] < best[0]:
            best = (int(totals[idx]), alice, tuple(int(v) for v in bob_space[idx]))
    return best


@pytest.mark.parametrize(
    "d,n,expected",
    [(d, n, d - 1) for d in range(2, 7) for n in range(1, 9) if d ** (2 * n) <= 10**5],
)
def test_lhv_minimum_with_witness(d, n, expected):
    value, witness = lhv_min_chained(d, n)
    oracle, alice, bob = _enumerated_lhv_min(d, n)
    assert value == oracle == expected  # the local floor d-1, independent of n
    # the enumeration meets the all-zero strategy first
    assert (witness.alice, witness.bob) == (alice, bob) == ((0,) * n, (0,) * n)
    assert strategy_chained_value(d, witness.alice, witness.bob) == value


@pytest.mark.parametrize("d,n", [(2, 1000), (3, 9), (10, 5), (100, 10**4)])
def test_lhv_minimum_beyond_enumeration(d, n):
    value, witness = lhv_min_chained(d, n)
    assert value == d - 1
    assert strategy_chained_value(d, witness.alice, witness.bob) == value


@pytest.mark.parametrize("d,n,needle", [(1, 3, "d must be >= 2"), (3, 0, "n must be >= 1")])
def test_lhv_minimum_rejects_bad_size(d, n, needle):
    with pytest.raises(ValueError, match=needle):
        lhv_min_chained(d, n)


def test_contradiction_equal_vectors_no_certificate():
    alice, _ = cglmp_bases(chained_settings(3, 2))
    report = deterministic_contradiction(alice[0], alice[0], 1, 1)
    assert not report.certified
    assert report.max_min_overlap == 1.0
    assert report.gap == 0.0


def test_contradiction_refuses_bases_of_two_dimensions():
    basis3, _ = cglmp_bases(chained_settings(3, 2))
    basis4, _ = cglmp_bases(chained_settings(4, 2))
    with pytest.raises(ValueError, match="d=3 and d=4"):
        deterministic_contradiction(basis3[0], basis4[0], 0, 0)


def test_contradiction_antipodal_qubit():
    basis = np.eye(2, dtype=complex)
    flipped = basis[::-1]
    report = deterministic_contradiction(basis, flipped, 0, 0)
    assert report.certified
    assert report.max_min_overlap == 0.0
    assert report.gap >= 1.0


@pytest.mark.parametrize(
    "x1,x2,needle",
    [
        # -1 once indexed outcome d-1 and certified a gap for it
        (-1, 0, "x1=-1 out of range 0..2"),
        (0, 3, "x2=3 out of range 0..2"),
        (True, 0, "x1=True is not an integer"),
        (0, 1.0, "x2=1.0 is not an integer"),
    ],
)
def test_contradiction_refuses_bad_outcome_indices(x1, x2, needle):
    alice, _ = cglmp_bases(chained_settings(3, 2))
    error = TypeError if needle.endswith("is not an integer") else ValueError
    with pytest.raises(error, match=f"outcome index {needle}"):
        deterministic_contradiction(alice[0], alice[1], x1, x2)


def test_contradiction_takes_numpy_integer_outcomes():
    alice, _ = cglmp_bases(chained_settings(3, 2))
    report = deterministic_contradiction(alice[0], alice[1], np.int64(2), 2)
    assert report.gap == deterministic_contradiction(alice[0], alice[1], 2, 2).gap


@pytest.mark.parametrize("d", [2, 3, 5, 8, 13])
def test_contradiction_maps_the_two_states_as_the_whole_basis(d):
    # only the compared rows are mapped: the coordinates are those of the
    # whole basis, bit for bit
    rng = substream(47, d)
    basis1, basis2 = haar_unitary(d, rng), haar_unitary(d, rng)
    vectors1, vectors2 = basis_to_bloch(basis1).vectors, basis_to_bloch(basis2).vectors
    for x1, x2 in itertools.product(range(d), repeat=2):
        report = deterministic_contradiction(basis1, basis2, x1, x2)
        assert np.array_equal(report.vector_a, vectors1[x1])
        assert np.array_equal(report.vector_b, vectors2[x2])


def test_contradiction_adjacent_settings_matches_dense_search():
    alice, _ = cglmp_bases(chained_settings(3, 2))
    report = deterministic_contradiction(alice[0], alice[1], 0, 0)
    assert report.certified
    assert report.gap > 0
    # dense search over the circle spanned by the two vectors: the
    # maximizer of min(a.u, b.u) never leaves span(a, b)
    a, b = report.vector_a, report.vector_b
    e1 = a / np.linalg.norm(a)
    e2 = b - (b @ e1) * e1
    e2 /= np.linalg.norm(e2)
    phi = np.linspace(0, 2 * np.pi, 400_001)
    u = np.outer(np.cos(phi), e1) + np.outer(np.sin(phi), e2)
    dense = np.minimum(u @ a, u @ b).max()
    assert abs(report.max_min_overlap - dense) < 1e-3
    # the reported best direction attains the maximum
    attained = min(report.best_direction @ a, report.best_direction @ b)
    assert attained == pytest.approx(report.max_min_overlap, abs=1e-12)


def test_conditional_distribution_validate():
    probs = np.full((2, 2, 2, 2), 0.25)
    JointDistribution(probs).validate()
    with pytest.raises(ValueError, match="normalized"):
        JointDistribution(probs * 0.5).validate()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_conditional_distribution_validate_rejects_non_finite(bad):
    everywhere = np.full((2, 2, 2, 2), bad)
    with pytest.raises(ValueError, match="non-finite entry"):
        JointDistribution(everywhere).validate()
    one = np.full((2, 2, 2, 2), 0.25)
    one[1, 0, 1, 1] = bad
    with pytest.raises(ValueError, match="non-finite entry"):
        JointDistribution(one).validate()


@pytest.mark.parametrize("d", range(2, 7))
def test_random_no_signaling_boxes_pass_validation(d):
    # built as distributions, so never validated on the way out: the check here
    for n in range(1, 9):
        for seed in range(20):
            gen = substream(seed, n)
            random_no_signaling(d, n, float(gen.uniform()), gen).validate(tol=1e-12)


@pytest.mark.parametrize("d", [3, 5, 8])
def test_contradiction_equal_up_to_a_global_phase_no_certificate(d):
    # a global phase moves the Bloch vectors by rounding only, where the
    # bisector formula would often read 1.0000000000000002
    rng = substream(43, d)
    for _ in range(10):
        basis = haar_unitary(d, rng)
        for x in range(d):
            report = deterministic_contradiction(basis, basis * np.exp(0.7j), x, x)
            assert not report.certified
            assert report.max_min_overlap == 1.0
            assert report.gap == 0.0
            assert np.linalg.norm(report.best_direction - report.vector_a) <= 1e-12
