import math
import re
import tracemalloc

import numpy as np
import pytest

from cryptononlocal import quantum
from cryptononlocal.bloch import sample_haar_pure, substream
from cryptononlocal.nosignaling import (
    check_no_signaling,
    random_no_signaling,
    strategy_chained_value,
    verify_shift_bound,
)
from cryptononlocal.quantum import (
    ChainedSettings,
    JointDistribution,
    _chained_values,
    _difference_probs,
    asymptotic_chained_value,
    cglmp_bases,
    cglmp_chained_value,
    chained_settings,
    chained_value,
    closed_form_probs,
    gamma_factor,
    joint_distribution,
    joint_from_bases,
    maximally_entangled,
)
from helpers import haar_unitary, set_cpus


def test_settings_phases():
    s = chained_settings(3, 15)
    assert s.alpha[0] == pytest.approx(1.0 / 30.0, abs=0)
    assert np.array_equal(s.alpha, (np.arange(1, 16) - 0.5) / 15)
    assert np.array_equal(s.beta, np.arange(1, 16) / 15)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 4), (3, 15), (5, 7), (8, 3)])
def test_bases_orthonormal(d, n):
    alice, bob = cglmp_bases(chained_settings(d, n))
    eye = np.eye(d)
    for side in (alice, bob):
        gram = np.einsum("axj,ayj->axy", side.conj(), side)
        assert np.abs(gram - eye).max() < 1e-12


def test_maximally_entangled():
    psi = maximally_entangled(2)
    assert np.allclose(psi, np.array([1, 0, 0, 1]) / math.sqrt(2))
    for d in (3, 5):
        psi = maximally_entangled(d)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        rho = np.outer(psi, psi.conj()).reshape(d, d, d, d)
        reduced = np.einsum("ikjk->ij", rho)
        assert np.abs(reduced - np.eye(d) / d).max() < 1e-12


@pytest.mark.parametrize("d,n", [(2, 3), (3, 1), (3, 5), (4, 4), (5, 3)])
def test_joint_invariants(d, n):
    dist = joint_distribution(maximally_entangled(d), chained_settings(d, n))
    p = dist.probs
    assert p.min() >= 0.0
    assert np.abs(p.sum(axis=(2, 3)) - 1.0).max() < 1e-12
    alice = p.sum(axis=3)
    bob = p.sum(axis=2)
    assert np.abs(alice - 1.0 / d).max() < 1e-12  # marginals uniform
    assert np.abs(bob - 1.0 / d).max() < 1e-12


@pytest.mark.parametrize("d,n", [(2, 2), (3, 4), (4, 3), (5, 2), (6, 2), (8, 2)])
def test_closed_form_matches_born_rule(d, n):
    s = chained_settings(d, n)
    dist = joint_distribution(maximally_entangled(d), s)
    assert np.abs(closed_form_probs(s).probs - dist.probs).max() < 1e-10


def test_equal_phases_correlate_perfectly():
    # engineered settings with alpha = beta force X = Y
    d, n = 4, 3
    phases = np.linspace(0.1, 0.9, n)
    s = ChainedSettings(d, phases, phases.copy())
    dist = joint_distribution(maximally_entangled(d), s)
    for a in range(n):
        block = dist.probs[a, a]
        assert np.abs(np.diag(block) - 1.0 / d).max() < 1e-12
        assert block.sum() - np.trace(block) < 1e-12
    # the closed form hits its theta = 0 (mod d) limit here
    assert np.abs(closed_form_probs(s).probs - dist.probs).max() < 1e-10


def _uniform_dist(d, n):
    return JointDistribution(np.full((n, n, d, d), 1.0 / (d * d)))


def expected_mod(dist, a, b, sign=1, offset=0):
    """Mean of ``[sign*(X - Y) + offset] mod d`` at 1-based setting pair (a, b).

    Each chain term of I_N is one such mean, so this is the oracle for
    `chained_value`.
    """
    probs = np.asarray(getattr(dist, "probs", dist))
    d = probs.shape[2]
    x = np.arange(d)[:, None]
    y = np.arange(d)[None, :]
    return float(np.sum((sign * (x - y) + offset) % d * probs[a - 1, b - 1]))


def _chain_terms_value(dist):
    """I_N as the sum of its 2N chain terms, X_{N+1} := X_1 + 1."""
    n = dist.probs.shape[0]
    terms = [expected_mod(dist, i, i) for i in range(1, n + 1)]
    terms += [expected_mod(dist, i + 1, i, sign=-1) for i in range(1, n)]
    terms.append(expected_mod(dist, 1, n, sign=-1, offset=-1))
    return math.fsum(terms)


@pytest.mark.parametrize("d", range(2, 7))
def test_strategy_value_matches_its_deterministic_box(d):
    # the two readers of the chain's terms, and the oracle, on strategies
    # other than all-zero: a wrong wrap sign in either one fails here
    rng = substream(83, d)
    for n in range(1, 9):
        for trial in range(6):
            alice, bob = rng.integers(0, d, size=(2, n))
            probs = np.zeros((n, n, d, d))
            probs[np.arange(n)[:, None], np.arange(n), alice[:, None], bob] = 1.0
            box = JointDistribution(probs)
            value = strategy_chained_value(d, alice, bob)
            assert chained_value(box) == _chain_terms_value(box) == value


def test_expected_mod():
    d, n = 4, 3
    phases = np.linspace(0.1, 0.9, n)
    s = ChainedSettings(d, phases, phases.copy())
    corr = joint_distribution(maximally_entangled(d), s)
    assert expected_mod(corr, 1, 1) == pytest.approx(0.0, abs=1e-12)
    assert expected_mod(_uniform_dist(2, 2), 1, 2) == pytest.approx(0.5)
    assert expected_mod(_uniform_dist(3, 2), 2, 1) == pytest.approx(1.0)
    assert expected_mod(corr.probs, 1, 2) == expected_mod(corr, 1, 2)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 4), (3, 3), (4, 5), (6, 2)])
def test_chained_value_matches_chain_term_oracle(d, n):
    rng = substream(71, 10 * d + n)
    for trial in range(5):
        box = random_no_signaling(d, n, float(rng.uniform()), rng)
        assert chained_value(box) == pytest.approx(_chain_terms_value(box), abs=1e-12)
        state = sample_haar_pure(d * d, rng)
        alice = np.stack([haar_unitary(d, rng) for _ in range(n)])
        bob = np.stack([haar_unitary(d, rng) for _ in range(n)])
        born = joint_from_bases(state, alice, bob)
        assert chained_value(born) == pytest.approx(_chain_terms_value(born), abs=1e-12)
    chained = joint_distribution(maximally_entangled(d), chained_settings(d, n))
    assert chained_value(chained) == pytest.approx(_chain_terms_value(chained), abs=1e-12)


def test_chained_value_deterministic_wrap():
    # all-zero outcomes at d=2, N=2: only the wrap term contributes
    probs = np.zeros((2, 2, 2, 2))
    probs[:, :, 0, 0] = 1.0
    assert chained_value(JointDistribution(probs)) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 5), (3, 7), (4, 6), (5, 4)])
def test_fast_value_matches_tensor_path(d, n):
    dist = joint_distribution(maximally_entangled(d), chained_settings(d, n))
    assert abs(chained_value(dist) - cglmp_chained_value(d, n)) < 1e-10


def test_qubit_closed_form():
    for n in (1, 2, 5, 9, 40):
        expected = 2 * n * math.sin(math.pi / (4 * n)) ** 2
        assert cglmp_chained_value(2, n) == pytest.approx(expected, abs=1e-12)


def test_gamma_values():
    assert gamma_factor(2) == pytest.approx(math.pi**2 / 16, abs=1e-12)
    assert gamma_factor(3) == pytest.approx(math.pi**2 / 9, abs=1e-12)
    # direct evaluation of the d=4 sum: j/sin^2(pi j/4) = 2, 2, 6
    assert gamma_factor(4) == pytest.approx(math.pi**2 / 64 * 10, abs=1e-12)


def test_gamma_factor_matches_mpmath():
    # the closed form against the mpmath sum, on a grid that holds the worst
    # case over d = 2..1000, at d = 700
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(40):
        for d in [*range(2, 33), 100, 257, 500, 700, 939, 1000]:
            terms = (j / mpmath.sin(mpmath.pi * j / d) ** 2 for j in range(1, d))
            exact = mpmath.pi**2 / (4 * d * d) * mpmath.fsum(terms)
            worst = max(worst, abs(float(mpmath.mpf(gamma_factor(d)) / exact - 1)))
    assert worst <= 1e-15


def test_asymptotic_values():
    assert asymptotic_chained_value(3, 15) == pytest.approx(
        2 * math.pi**2 / 9 / 15, abs=1e-12
    )
    assert asymptotic_chained_value(2, 8) == pytest.approx(math.pi**2 / 64, abs=1e-12)


@pytest.mark.parametrize("d", range(2, 9))
def test_chained_value_strictly_decreasing(d):
    values = [cglmp_chained_value(d, n) for n in range(2, 41)]
    assert all(v > 0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def _kernel_grid(d):
    """About 500 N per dimension: 1..300, random N up to 1e15, and N where
    1/(2N) or 2N sit at the edges of the float and int64 ranges."""
    rng = np.random.default_rng(d)
    ns = list(range(1, 301)) + [int(n) for n in rng.integers(1, 10**15, 190)]
    return ns + [2**53 + 1, 10**17 + 3, 10**19, 2**63 + 1, 10**25, 10**200]


def _scalar_chained_value(d, n):
    # 2N sum_m m P_m(1/(2N)) through the general-phase kernel
    return 2 * n * (np.arange(d) * _difference_probs(d, np.array(1.0 / (2 * n)))).sum()


@pytest.mark.parametrize("d", [*range(2, 40), 47, 64, 97, 100])
def test_chained_values_equal_the_difference_probs_sum_bit_for_bit(d):
    # the search compares rows of 16 where the CLI prints one value, so every
    # slice length must give the same bits as the general-phase kernel
    ns = _kernel_grid(d)
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        expected = np.array([_scalar_chained_value(d, n) for n in ns])
        assert np.array_equal([cglmp_chained_value(d, n) for n in ns], expected)
        assert np.array_equal(_chained_values(d, ns), expected)
        for size in (5, 16, 17, 33):
            for lo in range(0, len(ns), 61):
                part = _chained_values(d, ns[lo : lo + size])
                assert np.array_equal(part, expected[lo : lo + size])


def test_chained_value_past_the_float_range_raises_as_before():
    with pytest.raises(OverflowError):
        _scalar_chained_value(3, 10**308)
    with pytest.raises(OverflowError):
        cglmp_chained_value(3, 10**308)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gamma_is_the_decay_coefficient(d):
    g = gamma_factor(d)
    assert abs(200 * cglmp_chained_value(d, 200) / 2 - g) < 0.01 * g


def test_dimension_validation():
    with pytest.raises(ValueError):
        chained_settings(1, 3)
    with pytest.raises(ValueError):
        maximally_entangled(1)
    with pytest.raises(ValueError):
        joint_from_bases(
            maximally_entangled(3), *cglmp_bases(chained_settings(2, 2))
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_joint_distribution_validate_rejects_non_finite(bad):
    everywhere = np.full((2, 2, 2, 2), bad)
    with pytest.raises(ValueError, match="non-finite entry"):
        JointDistribution(everywhere).validate()
    one = np.full((2, 2, 2, 2), 0.25)
    one[0, 1, 0, 1] = bad
    with pytest.raises(ValueError, match="non-finite entry"):
        JointDistribution(one).validate()


def test_joint_distribution_validate_names_overflowing_sums_unnormalized():
    # every entry is finite; only the sums over a setting pair overflow
    huge = np.full((2, 2, 2, 2), 1e308)
    with pytest.raises(ValueError, match="setting pair not normalized"):
        JointDistribution(huge).validate()
    huge[0, 0, 0, 0] = -np.inf
    with pytest.raises(ValueError, match="non-finite entry"):
        JointDistribution(huge).validate()


def _closed_form_oracle(settings):
    """Entrywise closed form: each of the N^2 gaps split into its nearest
    integer t and the rest r, the kernel at r, then an N^2 d^2 gather."""
    d = settings.d
    f = settings.alpha[:, None] - settings.beta[None, :]
    t = np.round(f)
    pm = _difference_probs(d, f - t)  # (A, B, class at r)
    pm[..., 0] = 1.0 - pm[..., 1:].sum(axis=-1)
    m = np.arange(d)[None, :] - np.arange(d)[:, None]
    a, b = np.indices(f.shape)
    cols = (m + t.astype(int)[:, :, None, None]) % d
    return pm[a[:, :, None, None], b[:, :, None, None], cols] / d


def _born_oracle(state, alice, bob):
    """Born-rule tensor from two einsum contractions."""
    d = alice.shape[1]
    half = np.einsum("axj,jk->axk", alice.conj(), np.asarray(state).reshape(d, d))
    amp = np.einsum("axk,byk->abxy", half, bob.conj(), optimize=True)
    return np.abs(amp) ** 2


@pytest.mark.parametrize(
    "d,n", [(d, n) for d in range(2, 9) for n in (1, 2, 7, 40)] + [(8, 200)]
)
def test_closed_form_probs_equals_entrywise_oracle(d, n):
    s = chained_settings(d, n)
    assert np.array_equal(closed_form_probs(s).probs, _closed_form_oracle(s))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_closed_form_probs_on_repeated_and_integer_gaps(d):
    # phases drawn from a small pool repeat, and integer gaps put
    # theta = f + m on multiples of d
    rng = substream(61, d)
    pool = np.array([0.0, 0.25, 0.5, 1.0, 2.0, -1.0, d - 1.0, 0.1])
    for n in (3, 6, 11):
        s = ChainedSettings(d, rng.choice(pool, size=n), rng.choice(pool, size=n))
        probs = closed_form_probs(s).probs
        assert np.array_equal(probs, _closed_form_oracle(s))
        born = joint_distribution(maximally_entangled(d), s).probs
        assert np.abs(probs - born).max() < 1e-10


def _edge_gap_settings(d):
    """Random phases, then gaps of 0, +-1/2, 1.5 and 1e-13 and a phase of
    d - 1e-13 against Bob's phase 0."""
    rng = substream(71, d)
    edges = [0.0, 0.5, -0.5, 1.5, 1e-13, d - 1e-13]
    alpha = np.concatenate([rng.uniform(0, d, 3), edges])
    beta = np.concatenate([rng.uniform(0, d, 3), np.zeros(len(edges))])
    return ChainedSettings(d, alpha, beta)


@pytest.mark.parametrize("d", [2, 3, 7, 16, 50, 100])
def test_closed_form_probs_matches_an_mpmath_reference(d):
    from reference import difference_probs, mpmath

    s = _edge_gap_settings(d)
    probs = closed_form_probs(s).probs
    m = (np.arange(d)[None, :] - np.arange(d)[:, None]) % d
    refs = {}  # by gap: Bob's six phases 0 repeat each of Alice's gaps
    with mpmath.workdps(40):
        for a, b in np.ndindex(s.n, s.n):
            gap = s.alpha[a] - s.beta[b]
            if gap not in refs:
                refs[gap] = np.array([float(p / d) for p in difference_probs(d, gap)])
            err = np.abs(probs[a, b] - refs[gap][m]).max()
            assert err <= 1e-15, f"pair ({a + 1}, {b + 1}): error {err:.3g}"


def test_closed_form_blocks_sum_to_one():
    # the closed form once summed to 1 only to 5.6e-14 at d = 91
    for d in range(2, 101):
        sums = closed_form_probs(_edge_gap_settings(d)).probs.sum(axis=(2, 3))
        assert np.abs(sums - 1.0).max() <= 1e-15, f"d={d}"


@pytest.mark.parametrize("d,n", [(2, 5), (3, 4), (4, 3), (6, 2), (8, 3)])
def test_joint_from_bases_matches_einsum_oracle(d, n):
    rng = substream(67, d)
    for _ in range(3):
        state = sample_haar_pure(d * d, rng)
        alice = np.stack([haar_unitary(d, rng) for _ in range(n)])
        bob = np.stack([haar_unitary(d, rng) for _ in range(n)])
        probs = joint_from_bases(state, alice, bob).probs
        assert probs.flags.c_contiguous
        assert np.abs(probs - _born_oracle(state, alice, bob)).max() <= 1e-15


def _born_one_shot(state, alice, bob):
    """Born-rule tensor with the real and imaginary parts of every amplitude
    from one (N d, 2d) @ (2d, N d) product each, Bob's columns zero-padded
    to a multiple of 16 as in `joint_from_bases`."""
    n, d = alice.shape[0], alice.shape[1]
    half = alice.conj().reshape(n * d, d) @ np.asarray(state).reshape(d, d)
    bob_c = bob.conj().reshape(n * d, d).T
    cols = np.zeros((2 * d, -(-n * d // 16) * 16))
    cols[:, : n * d] = np.concatenate([bob_c.real, bob_c.imag])
    re = (np.concatenate([half.real, -half.imag], axis=1) @ cols)[:, : n * d]
    im = (np.concatenate([half.imag, half.real], axis=1) @ cols)[:, : n * d]
    amp2 = re * re + im * im
    return np.ascontiguousarray(amp2.reshape(n, d, n, d).transpose(0, 2, 1, 3))


# (8, 200) and (7, 228) span many blocks with a ragged last one; at (100, 12)
# one setting alone holds more amplitudes than a block
@pytest.mark.parametrize("d,n", [(8, 200), (7, 228), (100, 12)])
def test_blocked_born_tensor_equals_one_shot_product(d, n):
    alice, bob = cglmp_bases(chained_settings(d, n))
    state = maximally_entangled(d)
    probs = joint_from_bases(state, alice, bob).probs
    assert probs.flags.c_contiguous
    assert np.array_equal(probs, _born_one_shot(state, alice, bob))


def _haar_setup(d, n, seed):
    """A Haar-random state of two d-level systems and n Haar-random bases a side."""
    rng = substream(seed, d)
    state = sample_haar_pure(d * d, rng)
    alice = np.stack([haar_unitary(d, rng) for _ in range(n)])
    bob = np.stack([haar_unitary(d, rng) for _ in range(n)])
    return state, alice, bob


def test_blocked_born_tensor_equals_one_shot_product_haar():
    # 40 settings at d=8 make two blocks, the second ragged
    state, alice, bob = _haar_setup(8, 40, 71)
    probs = joint_from_bases(state, alice, bob).probs
    assert np.array_equal(probs, _born_one_shot(state, alice, bob))


# tasks of the Born tensor: 2**19 amplitudes or more each; at (100, 12) a
# 16-column slab of a block would pass the product bound, so it is one task
BORN_TASKS = {(8, 200): 4, (7, 228): 4, (100, 12): 1, "haar-d8-n130": 2}


@pytest.mark.parametrize(
    "case", BORN_TASKS, ids=lambda case: case if isinstance(case, str) else "d{}-n{}".format(*case)
)
def test_born_tensor_same_for_any_worker_count(monkeypatch, case):
    if case == "haar-d8-n130":
        state, alice, bob = _haar_setup(8, 130, 73)
    else:
        state = maximally_entangled(case[0])
        alice, bob = cglmp_bases(chained_settings(*case))
    tasks = []

    def counting_run_tasks(task, n_tasks):
        tasks.append(n_tasks)
        return run_tasks(task, n_tasks)

    run_tasks = quantum._run_tasks
    monkeypatch.setattr(quantum, "_run_tasks", counting_run_tasks)
    tensors = []
    for workers in (1, 2, 4):
        set_cpus(monkeypatch, workers)
        tensors.append(joint_from_bases(state, alice, bob).probs)
    assert tasks == [BORN_TASKS[case]] * 3
    assert np.array_equal(tensors[1], tensors[0])
    assert np.array_equal(tensors[2], tensors[0])


@pytest.mark.parametrize(
    "settings",
    [
        chained_settings(8, 200),
        # repeated and far-apart phases: many setting pairs share a gap
        ChainedSettings(
            8, np.tile([0.0, 0.5, 1e6, -3.25], 40), np.repeat([0.0, 2.5, -1e6, 7.0], 40)
        ),
    ],
    ids=["d8-n200", "d8-n160-repeated"],
)
def test_closed_form_same_for_any_worker_count(monkeypatch, settings):
    tensors = []
    for workers in (1, 2, 4):
        set_cpus(monkeypatch, workers)
        tensors.append(closed_form_probs(settings).probs)
    assert np.array_equal(tensors[1], tensors[0])
    assert np.array_equal(tensors[2], tensors[0])


# one task each: (4, 67) holds 2**16 entries, and at (100, 12) a 16-column
# slab of a Born block would pass the product bound
@pytest.mark.parametrize("d,n", [(4, 67), (100, 12)])
def test_tensors_of_one_task_use_no_pool(monkeypatch, d, n):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("thread pool created")

    set_cpus(monkeypatch, 4)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    joint_distribution(maximally_entangled(d), chained_settings(d, n))
    if d == 4:
        closed_form_probs(chained_settings(d, n))


def test_closed_form_peak_memory_is_near_the_tensor():
    # np.take with mode="raise" gathers into a copy of the whole tensor first
    settings = chained_settings(8, 200)
    tracemalloc.start()
    try:
        probs = closed_form_probs(settings).probs
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * probs.nbytes


def test_born_tensor_peak_memory_is_near_the_tensor():
    # the one-shot (N d, N d) complex amplitude array alone is 2x the tensor,
    # a check of the finished tensor adds (N, N, d) marginal arrays
    state, settings = maximally_entangled(8), chained_settings(8, 200)
    tracemalloc.start()
    try:
        probs = joint_distribution(state, settings).probs
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * probs.nbytes


def test_joint_from_bases_refuses_a_non_measurement_basis():
    # rows |0>, |0> give a normalized, no-signaling box on this state, so
    # only the check of the basis itself can see the defect
    alice, bob = cglmp_bases(chained_settings(2, 2))
    bob[0] = [[1.0, 0.0], [1.0, 0.0]]
    with pytest.raises(ValueError, match="bob setting 1 is not an orthonormal basis"):
        joint_from_bases(maximally_entangled(2), alice, bob)


def test_joint_from_bases_names_the_first_rotated_basis_row():
    # row 0 of Alice's settings 2 and 3 turned 1e-9 towards row 1 keeps its
    # norm but leaves the rows 1e-9 from orthogonal
    alice, bob = cglmp_bases(chained_settings(3, 3))
    t = 1e-9
    alice[1:, 0] = math.cos(t) * alice[1:, 0] + math.sin(t) * alice[1:, 1]
    with pytest.raises(ValueError, match="alice setting 2 is not an orthonormal basis"):
        joint_from_bases(maximally_entangled(3), alice, bob)


def test_joint_from_bases_refuses_an_unnormalized_state():
    alice, bob = cglmp_bases(chained_settings(3, 2))
    with pytest.raises(ValueError, match="state is not normalized"):
        joint_from_bases((1 + 1e-9) * maximally_entangled(3), alice, bob)


@pytest.mark.parametrize("shape", [(1, 1, 4), (2, 2)], ids=["1x1x4", "2x2"])
def test_joint_from_bases_refuses_a_state_that_is_not_one_dimensional(shape):
    # the Bell state, flattened, would give its table
    state = np.eye(2).reshape(shape) / math.sqrt(2)
    with pytest.raises(
        ValueError, match=re.escape(f"state must be one-dimensional, got shape {shape}")
    ):
        joint_from_bases(state, [np.eye(2)], [np.eye(2)])


def test_joint_from_bases_refuses_no_settings():
    bases = np.zeros((0, 2, 2), dtype=complex)
    with pytest.raises(ValueError, match=r"N >= 1 and d >= 2, got shape \(0, 2, 2\)"):
        joint_from_bases(maximally_entangled(2), bases, bases)


def test_joint_from_bases_refuses_one_outcome():
    bases = np.ones((3, 1, 1), dtype=complex)
    with pytest.raises(ValueError, match=r"N >= 1 and d >= 2, got shape \(3, 1, 1\)"):
        joint_from_bases(np.ones(1), bases, bases)


@pytest.mark.parametrize("name", ["state", "alice", "bob"])
def test_joint_from_bases_refuses_a_non_finite_entry(name):
    # refused before any product, where an inf raises a RuntimeWarning
    # (an error under this suite's warning filter)
    alice, bob = cglmp_bases(chained_settings(3, 2))
    args = {"state": maximally_entangled(3), "alice": alice, "bob": bob}
    args[name].flat[1] = np.inf
    with pytest.raises(ValueError, match=f"{name} has a non-finite entry"):
        joint_from_bases(args["state"], args["alice"], args["bob"])


@pytest.mark.parametrize(
    "shape", [(2, 3, 4), (3, 3), (9,), (2, 2, 2, 2)], ids=["3d", "2d", "1d", "4d"]
)
def test_joint_from_bases_names_the_basis_shape(shape):
    bases = np.ones(shape, dtype=complex)
    with pytest.raises(ValueError, match=r"shape \(N, d, d\), got"):
        joint_from_bases(maximally_entangled(2), bases, bases)


@pytest.mark.parametrize(
    "field,value,match",
    [
        ("alpha", [np.nan, 0.2], "alpha has a non-finite phase"),
        ("beta", [0.5, np.inf], "beta has a non-finite phase"),
        ("alpha", [0.1, 0.2, 0.3], "alpha and beta differ in length: 3 != 2"),
        ("beta", [0.5], "alpha and beta differ in length: 2 != 1"),
        ("beta", [[0.5, 1.0]], r"beta must be a non-empty 1-D array, got \(1, 2\)"),
        ("alpha", [], r"alpha must be a non-empty 1-D array, got \(0,\)"),
    ],
    ids=["nan-alpha", "inf-beta", "long-alpha", "short-beta", "2d-beta", "empty-alpha"],
)
def test_closed_form_probs_rejects_bad_phases(field, value, match):
    # the phases are checked once, when the settings are built, so no bad
    # phase reaches closed_form_probs or cglmp_bases
    phases = {"alpha": np.array([0.25, 0.75]), "beta": np.array([0.5, 1.0])}
    phases[field] = np.array(value)
    with pytest.raises(ValueError, match=match):
        ChainedSettings(3, **phases)


def test_chained_settings_reads_n_and_reduces_phases_mod_d():
    s = ChainedSettings(3, [0.5, 3.5, -2.5], [1e9, 0.25, 6.0])
    assert s.n == 3
    assert np.array_equal(s.alpha, [0.5, 0.5, 0.5])
    assert np.array_equal(s.beta, [1.0, 0.25, 0.0])
    with pytest.raises(AttributeError):
        s.n = 4
    with pytest.raises(ValueError, match="d must be >= 2"):
        ChainedSettings(1, [0.5], [0.5])


@pytest.mark.parametrize("d", [3, 100])
def test_chained_settings_stores_every_phase_in_zero_to_d(d):
    # np.mod rounds a tiny negative phase up to d itself
    phases = [-1e-20, -1e-17, -5e-324, -0.0, 0.0, -float(d), d - 1e-13, 2.0 * d, -2.0 * d - 1e-15]
    s = ChainedSettings(d, phases, phases[::-1])
    for stored in (s.alpha, s.beta[::-1]):
        assert ((stored >= 0.0) & (stored < d)).all(), stored
        assert stored[0] == stored[1] == 0.0


def _signaling_box(d, n, eps):
    """Uniform box whose Alice marginal at A=1 moves by eps with Bob's setting."""
    probs = np.full((n, n, d, d), 1.0 / (d * d))
    probs[0, 0, 0, :] += eps / d
    probs[0, 0, 1, :] -= eps / d
    return probs


@pytest.mark.parametrize("d,n", [(2, 2), (3, 4), (5, 3)])
def test_validate_no_signaling_residual_matches_report(d, n):
    eps = 0.0123
    probs = _signaling_box(d, n, eps)
    report = check_no_signaling(JointDistribution(probs))
    assert report.alice_residual == pytest.approx(eps, rel=1e-12)
    assert report.bob_residual == 0.0
    with pytest.raises(ValueError, match="distribution signals") as err:
        JointDistribution(probs).validate()
    assert f"residual {report.residual:.3g} >" in str(err.value)
    # below the tolerance the same box passes
    JointDistribution(probs).validate(tol=0.02)
    # a quantum box is no-signaling to rounding, by both entry points
    dist = joint_distribution(maximally_entangled(d), chained_settings(d, n))
    assert check_no_signaling(dist).residual <= 1e-14
    dist.validate(tol=1e-14)


@pytest.mark.parametrize(
    "defect,match",
    [
        ("negative", "negative probability entry"),
        ("unnormalized", "setting pair not normalized"),
        ("nan", "non-finite entry"),
        ("bob_signals", "distribution signals"),
    ],
)
def test_validate_rejects_defective_tensors(defect, match):
    d, n = 3, 3
    probs = np.full((n, n, d, d), 1.0 / (d * d))
    if defect == "negative":
        probs[1, 2, 0, 0] -= 0.2
        probs[1, 2, 0, 1] += 0.2
    elif defect == "unnormalized":
        probs[2, 0] *= 1.0 + 1e-9
    elif defect == "nan":
        probs[0, 1, 2, 2] = np.nan
    else:
        probs[2, 1, :, 0] += 0.05
        probs[2, 1, :, 1] -= 0.05
    with pytest.raises(ValueError, match=match):
        JointDistribution(probs).validate()


def test_joint_distribution_converts_nested_lists_once():
    dist = JointDistribution([[[[0.25, 0.25], [0.25, 0.25]]]])
    assert isinstance(dist.probs, np.ndarray) and dist.probs.dtype == float
    dist.validate()


@pytest.mark.parametrize(
    "shape",
    [(2, 2, 2), (2, 3, 2, 2), (2, 2, 2, 3), (0, 0, 2, 2), (2, 2, 0, 0), (1, 1, 1, 1)],
    ids=["3d", "settings", "outcomes", "no-settings", "no-outcomes", "one-outcome"],
)
def test_joint_distribution_rejects_a_shape_other_than_n_n_d_d(shape):
    # an empty box once reached numpy's "zero-size array" error in validate,
    # an IndexError in chained_value; a d = 1 box passed verify_shift_bound
    with pytest.raises(ValueError, match=re.escape(f"(n, n, d, d), got {shape}")):
        JointDistribution(np.full(shape, 0.25))


def test_validate_refuses_a_nan_tol():
    # NaN compares False, so this box, which signals and sums to 7 at
    # setting pair (1, 1), once passed every check
    probs = _signaling_box(3, 2, 0.3)
    probs[0, 0, 0, 0] += 6.0
    dist = JointDistribution(probs)
    for check in (dist.validate, lambda tol: verify_shift_bound(dist, tol)):
        with pytest.raises(ValueError, match="tol must be a non-negative number, got nan"):
            check(float("nan"))


def test_validate_refuses_a_negative_tol():
    # a box without a negative entry was reported as "negative probability entry"
    dist = _uniform_dist(3, 2)
    for check in (dist.validate, lambda tol: verify_shift_bound(dist, tol)):
        with pytest.raises(ValueError, match="tol must be a non-negative number, got -1.0"):
            check(-1.0)


def test_joint_distribution_reads_d_and_n_from_probs():
    dist = JointDistribution(np.full((3, 3, 2, 2), 0.25))
    assert (dist.d, dist.n) == (2, 3)
    for name in ("d", "n"):
        with pytest.raises(AttributeError):
            setattr(dist, name, 4)


@pytest.mark.parametrize(
    "probs,needle",
    [
        ([[[[0.5, 0.5], [0.0]]]], "rectangular"),
        ([[[["a", "b"], ["c", "d"]]]], "dtype <U1"),
        ([[[[2**1100, 0], [0, 0]]]], "int too large"),
        ([[[["1", "0"], ["0", "0"]]]], "dtype <U1"),
        (np.array([[[["1", "0"], ["0", "0"]]]]), "dtype <U1"),
        ([[[[True, False], [False, False]]]], "dtype bool"),
        (np.eye(2, dtype=bool).reshape(1, 1, 2, 2), "dtype bool"),
        ([[[[True, 0.0], [0.0, 0.0]]]], "an entry has dtype bool"),
        ([[[[np.True_, 0], [0, 2**70]]]], "an entry has dtype bool"),
        ([[[["1", 0], [0, 2**70]]]], "an entry has dtype str"),
        (np.full((1, 1, 2, 2), 0.25 + 1e-30j), "complex128 with a nonzero imaginary part"),
        (np.zeros((1, 1, 2, 2), dtype="datetime64[s]"), "dtype datetime64[s]"),
    ],
    ids=[
        "ragged",
        "not-numeric",
        "huge-int",
        "string-list",
        "string-array",
        "bool-list",
        "bool-array",
        "bool-among-floats",
        "bool-in-object-array",
        "string-in-object-array",
        "complex",
        "datetime",
    ],
)
def test_joint_distribution_rejects_non_array_probs(probs, needle):
    with pytest.raises(ValueError, match="not a rectangular array of numbers") as info:
        JointDistribution(probs)
    assert needle in str(info.value)


def test_joint_distribution_takes_the_real_part_of_real_complex_probs():
    # an imaginary part of zero is dropped without numpy's ComplexWarning
    dist = JointDistribution(np.full((1, 1, 2, 2), 0.25 + 0j))
    assert dist.probs.dtype == float
    assert np.array_equal(dist.probs, np.full((1, 1, 2, 2), 0.25))


def test_joint_distribution_keeps_a_float_array():
    probs = np.full((1, 1, 2, 2), 0.25)
    assert JointDistribution(probs).probs is probs


def test_settings_phases_are_read_only():
    settings = chained_settings(3, 4)
    for phases in (settings.alpha, settings.beta):
        with pytest.raises(ValueError, match="read-only"):
            phases[0] = 0.0
