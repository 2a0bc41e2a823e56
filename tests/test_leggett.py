import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cryptononlocal import leggett
from cryptononlocal.bloch import (
    expected_abs_projection,
    sample_haar_pure,
    sample_sphere,
    state_to_bloch,
    substream,
)
from cryptononlocal.leggett import (
    _MC_CHUNK,
    CriticalNotFoundError,
    LocalModel,
    MeasurementBasisBloch,
    basis_to_bloch,
    escape_report,
    find_critical_n,
    leggett_bound_analytic,
    leggett_bound_floor,
    leggett_bound_mc,
    marginal_distribution,
    mub_families,
)
from cryptononlocal.nosignaling import statistical_distance
from cryptononlocal.quantum import (
    cglmp_bases,
    cglmp_chained_value,
    chained_settings,
    chained_value,
    gamma_factor,
    joint_from_bases,
    maximally_entangled,
)
from helpers import set_cpus


def _cglmp_basis(d, n=2, setting=0):
    alice, _ = cglmp_bases(chained_settings(d, n))
    return basis_to_bloch(alice[setting])


def test_basis_to_bloch_qubit_computational():
    mb = basis_to_bloch(np.eye(2, dtype=complex))
    assert np.allclose(mb.vectors[0], [0, 0, 1], atol=1e-12)
    assert np.allclose(mb.vectors[1], [0, 0, -1], atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 6, 100])
def test_basis_to_bloch_invariants(d):
    mb = _cglmp_basis(d)
    gram = mb.vectors @ mb.vectors.T
    mask = ~np.eye(d, dtype=bool)
    assert np.abs(gram[mask] + 1.0 / (d - 1)).max() < 1e-10
    assert np.abs(np.diag(gram) - 1.0).max() < 1e-10
    assert np.abs(mb.vectors.sum(axis=0)).max() < 1e-10
    steps = np.linalg.norm(mb.vectors - np.roll(mb.vectors, 1, axis=0), axis=1)
    assert np.abs(steps - math.sqrt(2 * d / (d - 1))).max() < 1e-10


def test_basis_to_bloch_fourier_basis_at_d100():
    # d = 100, the top of the range the library accepts, maps
    d = 100
    x = np.arange(d)
    fourier = np.exp(2j * np.pi * np.outer(x, x) / d) / math.sqrt(d)
    mb = basis_to_bloch(fourier)
    assert mb.vectors.shape == (d, d * d - 1)


@pytest.mark.parametrize("shape", [(3, 7), (3, 9), (2, 2, 3), (1, 0), (3, 4)])
def test_measurement_basis_bloch_rejects_a_width_other_than_d2_minus_1(shape):
    with pytest.raises(ValueError, match=re.escape(f"(d >= 2, d) array of basis rows, got {shape}")):
        MeasurementBasisBloch(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_measurement_basis_bloch_rejects_non_finite_states(bad):
    # refused before the Gram product, where an inf would warn (an error here)
    states = np.eye(3, dtype=complex)
    states[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        MeasurementBasisBloch(states)


@pytest.mark.parametrize(
    "basis, deviation",
    [
        # the Gram product overflows to inf
        (np.eye(2) * 1e200, "inf"),
        # complex inf * 0 terms make it NaN, which is refused as well
        (np.full((2, 2), 1e200 + 1e200j), "nan"),
    ],
)
def test_huge_finite_basis_is_refused_by_name_not_by_an_overflow_warning(basis, deviation):
    # warnings are errors under this suite, so an escaped overflow fails here
    needle = f"is not an orthonormal basis: max |U U^dagger - I| = {deviation} > 1e-12"
    with pytest.raises(ValueError, match="^basis " + re.escape(needle)):
        basis_to_bloch(basis)
    with pytest.raises(ValueError, match="^alice setting 2 " + re.escape(needle)):
        joint_from_bases(maximally_entangled(2), [np.eye(2), basis], [np.eye(2)] * 2)


def test_measurement_basis_bloch_reads_d_from_vectors():
    mb = _cglmp_basis(4)
    assert mb.d == 4
    with pytest.raises(AttributeError):
        mb.d = 3


def test_basis_to_bloch_rejects_non_orthonormal():
    bad = np.array([[1, 0], [1, 0]], dtype=complex)
    with pytest.raises(ValueError, match="orthonormal"):
        basis_to_bloch(bad)


def test_marginal_aligned_and_orthogonal():
    d = 3
    mb = _cglmp_basis(d)
    values, valid = marginal_distribution(mb, mb.vectors[0], eta=1.0)
    assert values[0] == pytest.approx(1.0, abs=1e-10)
    assert valid
    # outcome orthogonal to the hidden state has probability zero
    assert values[1] == pytest.approx(0.0, abs=1e-10)


def test_marginal_unbiased_for_orthogonal_u():
    # diagonal Bloch directions are orthogonal to every chained basis vector
    d = 3
    mb = _cglmp_basis(d)
    u = state_to_bloch(np.array([1, 0, 0], dtype=complex))
    for eta in (0.3, 1.0):
        values, valid = marginal_distribution(mb, u, eta)
        assert np.abs(values - 1.0 / d).max() < 1e-12
        assert valid


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("eta", [0.8, 1.0])
def test_marginals_normalized_and_physical_for_haar_u(d, eta):
    mb = _cglmp_basis(d)
    rng = substream(31, d)
    for _ in range(50):
        u = state_to_bloch(sample_haar_pure(d, rng))
        values, valid = marginal_distribution(mb, u, eta=eta)
        assert valid
        assert values.min() >= -1e-10
        assert values.max() <= 1.0 + 1e-10
        assert abs(values.sum() - 1.0) < 1e-10


def test_a_basis_array_is_refused_with_a_pointer_to_basis_to_bloch():
    # a raw basis array once failed on its missing `d` attribute
    alice, _ = cglmp_bases(chained_settings(3, 1))
    u = basis_to_bloch(alice[0]).vectors[0]
    for basis in (alice[0], alice[0].tolist(), None):
        with pytest.raises(TypeError, match="not a MeasurementBasisBloch: .* basis_to_bloch"):
            leggett_bound_mc(basis, LocalModel(d=3), 10, 1)
        with pytest.raises(TypeError, match="not a MeasurementBasisBloch: .* basis_to_bloch"):
            marginal_distribution(basis, u)


def test_marginal_flags_nonphysical_point():
    d = 3
    mb = _cglmp_basis(d)
    u = -mb.vectors[0]  # unit sphere point, not a pure state for d >= 3
    values, valid = marginal_distribution(mb, u, eta=1.0)
    assert not valid
    assert values.min() < 0  # reported unclamped


def test_mc_bound_qubit_value():
    est = leggett_bound_mc(_cglmp_basis(2), LocalModel(d=2), 400_000, 51)
    assert est.std_error > 0
    assert abs(est.value - 0.5) < 3 * est.std_error


@pytest.mark.parametrize("d", [2, 3, 4])
def test_mc_bound_matches_analytic(d):
    est = leggett_bound_mc(_cglmp_basis(d), LocalModel(d=d), 300_000, 53 + d)
    exact = leggett_bound_analytic(d).value
    assert abs(est.value - exact) < 3 * est.std_error
    assert est.value >= leggett_bound_floor(d) - 5 * est.std_error


def test_mc_bound_seeded_reproducibility():
    a = leggett_bound_mc(_cglmp_basis(3), LocalModel(d=3), 120_000, 99)
    b = leggett_bound_mc(_cglmp_basis(3), LocalModel(d=3), 120_000, 99)
    assert a.value == b.value and a.std_error == b.std_error


def test_mc_bound_haar_mode_runs():
    model = LocalModel(d=3, u_mode="haar-pure")
    est = leggett_bound_mc(_cglmp_basis(3), model, 20_000, 61)
    assert est.value > 0


def _mc_oracle(basis, eta, n_samples, seed, rows, draw):
    # the Bloch vectors draw(gen, k) of every sample, read from the streams of
    # leggett_bound_mc's chunks in draws of at most `rows` samples
    d = basis.d
    diffs = basis.vectors - np.roll(basis.vectors, 1, axis=0)
    vals = []
    for i, start in enumerate(range(0, n_samples, _MC_CHUNK)):
        gen, m = substream(seed, i), min(_MC_CHUNK, n_samples - start)
        for lo in range(0, m, rows):
            u = draw(gen, min(rows, m - lo))
            vals.append(eta * (d - 1) / d**2 * np.abs(u @ diffs.T).sum(axis=1))
    vals = np.concatenate(vals)
    stderr = vals.std(ddof=1) / math.sqrt(n_samples) if n_samples > 1 else 0.0
    return vals.mean(), stderr


def _haar_mc_oracle(basis, eta, n_samples, seed):
    # the Bloch map of every state, drawn per row block as the kernel draws
    d = basis.d

    def draw(gen, k):
        return state_to_bloch(sample_haar_pure(d, gen, size=k))

    return _mc_oracle(basis, eta, n_samples, seed, leggett._mc_block_rows(2 * d * d), draw)


@pytest.mark.parametrize(
    "d,eta,n_samples,seed",
    [
        (2, 1.0, 3000, 11),
        (3, 0.7, 3000, 12),
        (4, 1.0, 3000, 13),
        (5, 0.5, 3000, 14),
        (6, 1.0, 3000, 15),
        (3, 1.0, _MC_CHUNK + 4000, 16),
        (4, 0.9, 5000, 17),
        (20, 1.0, 63, 18),
        (20, 0.8, 65, 19),
        (20, 1.0, 129, 17),
        # two 3640-row blocks at d = 6; 64-row blocks, the floor, from d = 46
        (6, 0.9, 3641, 20),
        (46, 1.0, 65, 21),
        (51, 0.6, 129, 22),
    ],
)
def test_mc_bound_haar_matches_bloch_map_oracle(d, eta, n_samples, seed):
    basis = _cglmp_basis(d)
    model = LocalModel(d=d, eta=eta, u_mode="haar-pure")
    est = leggett_bound_mc(basis, model, n_samples, seed)
    value, stderr = _haar_mc_oracle(basis, eta, n_samples, seed)
    assert est.samples == n_samples
    assert est.value == pytest.approx(value, rel=1e-12, abs=0)
    assert est.std_error == pytest.approx(stderr, rel=1e-12, abs=0)


def _sphere_mc_oracle(basis, eta, n_samples, seed):
    # each chunk drawn whole, in one sample_sphere call
    n_dim = basis.d**2 - 1

    def draw(gen, k):
        return sample_sphere(n_dim, gen, size=k)

    return _mc_oracle(basis, eta, n_samples, seed, _MC_CHUNK, draw)


@pytest.mark.parametrize("seed", [23])
@pytest.mark.parametrize("eta", [0.5, 1.0])
@pytest.mark.parametrize("d", range(2, 7))
def test_mc_bound_sphere_matches_one_shot_oracle(d, eta, seed):
    # sample counts at the edges of a row block and of a chunk
    block = leggett._mc_block_rows((d * d - 1) * d)
    counts = (1, block - 1, block + 1, _MC_CHUNK + 4000, 3 * _MC_CHUNK + 7)
    _check_sphere_against_oracle(d, eta, seed, counts)


@pytest.mark.parametrize("d,eta,seed", [(51, 1.0, 23), (100, 0.6, 29)])
def test_mc_bound_sphere_matches_one_shot_oracle_at_the_row_floor(d, eta, seed):
    # from d = 17 up a block is 64 rows; counts around one and two blocks
    assert leggett._mc_block_rows((d * d - 1) * d) == 64
    _check_sphere_against_oracle(d, eta, seed, (63, 65, 129))


def _check_sphere_against_oracle(d, eta, seed, counts):
    basis = _cglmp_basis(d)
    model = LocalModel(d=d, eta=eta)
    for n_samples in counts:
        est = leggett_bound_mc(basis, model, n_samples, seed)
        value, stderr = _sphere_mc_oracle(basis, eta, n_samples, seed)
        assert est.samples == n_samples
        assert est.value == pytest.approx(value, rel=1e-14, abs=0)
        assert est.std_error == pytest.approx(stderr, rel=1e-14, abs=0)


@pytest.mark.parametrize("u_mode", ["sphere-uniform", "haar-pure"])
def test_mc_bound_same_for_any_worker_count(monkeypatch, u_mode):
    basis = _cglmp_basis(3)
    model = LocalModel(d=3, eta=0.9, u_mode=u_mode)
    n_samples = 5 * _MC_CHUNK + 11
    estimates = []
    for workers in (1, 2, 4):
        set_cpus(monkeypatch, workers)
        estimates.append(leggett_bound_mc(basis, model, n_samples, 37))
    assert estimates[0].std_error > 0
    assert estimates[1:] == estimates[:1] * 2


_BLAS_PROBE = """
from cryptononlocal.leggett import LocalModel, basis_to_bloch, leggett_bound_mc
from cryptononlocal.quantum import cglmp_bases, chained_settings
cases = [(d, mode, 65536) for d in range(2, 6) for mode in ("sphere-uniform", "haar-pure")]
# 64-row blocks, whose products OpenBLAS may split over its threads (at d = 20
# only sphere-uniform ones; Haar-pure ones from d = 46)
cases += [(20, "haar-pure", 256), (51, "sphere-uniform", 130), (51, "haar-pure", 130)]
for d, mode, n_samples in cases:
    basis = basis_to_bloch(cglmp_bases(chained_settings(d, 1))[0][0])
    est = leggett_bound_mc(basis, LocalModel(d=d, u_mode=mode), n_samples, 7)
    print(est.value.hex(), est.std_error.hex())
"""


def test_mc_bound_same_for_any_blas_thread_count():
    # a BLAS reduction splits a 65536-long chunk over its threads, and the
    # split moves the last bits of the sum of squares
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        result = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0].count("\n") == 11
    assert outputs[0] == outputs[1]


# Determinism pins: the bits these Haar-pure estimates had when they were
# recorded, so that a change in how the kernel reads its streams or splits a
# chunk into blocks shows (a last-bit change of one sample's value is mostly
# lost in the sums).  They are not accuracy targets.
HAAR_PINS = {
    # one block
    (3, 8192): ("0x1.54edf53a96a22p-2", "0x1.87154a92dec72p-10"),
    # 19 blocks a chunk, the last of 16 rows; four chunks, the last of 7 samples
    (6, 3 * _MC_CHUNK + 7): ("0x1.559358297cfa2p-3", "0x1.e66541ead1c9ep-14"),
    # 64-row blocks
    (51, 2 * _MC_CHUNK): ("0x1.41358b83f4999p-6", "0x1.9c8badc321493p-18"),
}


@pytest.mark.parametrize("d,n_samples", HAAR_PINS, ids=[f"d{d}-{n}" for d, n in HAAR_PINS])
def test_mc_bound_haar_keeps_its_pinned_bits(d, n_samples):
    model = LocalModel(d=d, u_mode="haar-pure")
    est = leggett_bound_mc(_cglmp_basis(d, n=1), model, n_samples, 7)
    assert (est.value.hex(), est.std_error.hex()) == HAAR_PINS[d, n_samples]


def _chunk_values_sha256(u_mode, d, seed=7):
    """sha256 of every per-sample value of one chunk of two blocks and a
    short third, run by `_mc_estimate`."""
    rows, new_block_values = leggett._MC_KERNELS[u_mode](_cglmp_basis(d, n=1), 1.0)
    blocks = []

    def recording_new_block_values(max_rows):
        block_values = new_block_values(max_rows)

        def recording_block_values(gen, k, out):
            block_values(gen, k, out)
            blocks.append(out.copy())

        return recording_block_values

    leggett._mc_estimate((rows, recording_new_block_values), 2 * rows + 7, seed)
    return hashlib.sha256(np.concatenate(blocks).tobytes()).hexdigest()


# Determinism pins of each sample's value: a last-bit change of one sample,
# which the estimate's sums mostly lose, shows here.  Recorded with numpy 2.4
# on x86-64.
CHUNK_VALUE_PINS = {
    ("sphere-uniform", 3): "9cedd28fb7dc330a258381f78499422aca911284bd9b8a7cdc554147e885eefe",
    ("sphere-uniform", 6): "ce48d98adf5760071ef72123d4f85594d066bdb9a06cea8c31b16280e5b2f096",
    ("haar-pure", 3): "e60869c32361645815919bde909085b6d8ca541b6b0369ae0f6fd61b8fbc60bd",
    ("haar-pure", 6): "b1879c87e118c49f196beba79153819b1758ab82b5ae31696d4aeefa25df9653",
}


@pytest.mark.parametrize("u_mode,d", CHUNK_VALUE_PINS, ids=[f"{u}-d{d}" for u, d in CHUNK_VALUE_PINS])
def test_mc_chunk_keeps_the_pinned_bits_of_every_sample(u_mode, d):
    assert _chunk_values_sha256(u_mode, d) == CHUNK_VALUE_PINS[u_mode, d]


@pytest.mark.parametrize("u_mode", leggett.U_MODES)
def test_mc_bound_single_chunk_uses_no_pool(monkeypatch, u_mode):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("thread pool created")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    basis, model = _cglmp_basis(3), LocalModel(d=3, u_mode=u_mode)
    leggett_bound_mc(basis, model, _MC_CHUNK, 41)


def test_mc_bound_takes_only_an_integer_seed():
    basis, model = _cglmp_basis(3), LocalModel(d=3)
    for seed in (substream(41, 0), 41.0, "41", None):
        with pytest.raises(TypeError):
            leggett_bound_mc(basis, model, 10, seed)
    assert leggett_bound_mc(basis, model, 1000, np.uint64(41)) == leggett_bound_mc(
        basis, model, 1000, 41
    )


def test_mc_bound_memory_does_not_grow_with_the_chunk():
    # one whole chunk of d^2 - 1 = 143 coordinates would take 75 MB
    basis, model = _cglmp_basis(12), LocalModel(d=12)
    tracemalloc.start()
    try:
        leggett_bound_mc(basis, model, _MC_CHUNK, 43)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("d", [6, 20])
def test_mc_bound_haar_memory_stays_within_its_stated_bound(d):
    # a Haar-pure chunk holds its 8-byte values plus one buffer for its
    # blocks, at most 8 MiB / d above the floor, as `_haar_chunk_values`
    # states; a chunk is 19 blocks at d = 6 and 201 at d = 20
    basis, model = _cglmp_basis(d), LocalModel(d=d, u_mode="haar-pure")
    leggett_bound_mc(basis, model, 10, 43)  # lazy imports, outside the trace
    tracemalloc.start()
    try:
        leggett_bound_mc(basis, model, _MC_CHUNK, 43)  # one chunk, one worker
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * _MC_CHUNK + 8 * 2**20 / d


@pytest.mark.parametrize("n_samples", [70000.5, 100.0])
def test_mc_bound_rejects_non_integer_samples(n_samples):
    with pytest.raises(TypeError):
        leggett_bound_mc(_cglmp_basis(3), LocalModel(d=3), n_samples, 47)


def test_mc_bound_accepts_numpy_integer_samples():
    est = leggett_bound_mc(_cglmp_basis(3), LocalModel(d=3), np.int64(1000), 47)
    assert est.samples == 1000 and type(est.samples) is int


@pytest.mark.parametrize("d", range(2, 7))
def test_mc_bound_haar_matches_exact_value(d):
    # Haar weights are flat Dirichlet, so the exact Haar-pure bound is eta/d
    model = LocalModel(d=d, eta=0.8, u_mode="haar-pure")
    est = leggett_bound_mc(_cglmp_basis(d), model, 200_000, 80 + d)
    assert abs(est.value - 0.8 / d) < 5 * est.std_error


def test_mc_bound_independent_of_chain_basis():
    # every basis in a chain shares the step lengths, so the isotropic
    # average cannot depend on which setting is used
    model = LocalModel(d=3)
    first = leggett_bound_mc(_cglmp_basis(3, n=4, setting=0), model, 150_000, 71)
    last = leggett_bound_mc(_cglmp_basis(3, n=4, setting=3), model, 150_000, 72)
    spread = math.hypot(first.std_error, last.std_error)
    assert abs(first.value - last.value) < 3 * spread


@pytest.mark.parametrize("d", range(2, 7))
def test_pinned_u_bound_is_the_marginal_shift_distance(d):
    # p_x - p_{x-1} = eta (d-1)/d (a^x - a^{x-1}).u, so the bound at one
    # physical u is the shift distance of u's marginal
    eta = 0.7
    basis = _cglmp_basis(d)
    diffs = basis.vectors - np.roll(basis.vectors, 1, axis=0)
    for u in state_to_bloch(sample_haar_pure(d, substream(53, d), size=20)):
        p, valid = marginal_distribution(basis, u, eta)
        assert valid
        pinned = eta * (d - 1) / d**2 * np.abs(diffs @ u).sum()
        assert abs(statistical_distance(p, np.roll(p, 1)) - pinned) <= 1e-15


def test_eta_scales_the_estimates():
    half = leggett_bound_analytic(3, eta=0.5).value
    full = leggett_bound_analytic(3, eta=1.0).value
    assert half == pytest.approx(full / 2, abs=1e-15)


def test_analytic_values():
    assert leggett_bound_analytic(2).value == pytest.approx(0.5, abs=1e-12)
    expected = (2.0 / 3.0) * math.sqrt(3.0) * expected_abs_projection(8)
    assert leggett_bound_analytic(3).value == pytest.approx(expected, abs=1e-12)
    assert leggett_bound_analytic(3).value == pytest.approx(0.3360, abs=5e-4)


def test_floor_values():
    assert leggett_bound_floor(3) == pytest.approx(4.0 / 27.0, abs=1e-15)
    assert leggett_bound_floor(2) == pytest.approx(0.25, abs=1e-15)
    assert leggett_bound_floor(3, eta=0.5) == pytest.approx(2.0 / 27.0, abs=1e-15)


@pytest.mark.parametrize("d", range(2, 17))
def test_analytic_bound_sits_above_its_floor(d):
    # the floor replaces kappa_{d^2-1} by its 1/d underestimate, so the
    # exact isotropic average must dominate it at every dimension
    assert leggett_bound_analytic(d).value >= leggett_bound_floor(d)


def test_find_critical_n():
    assert find_critical_n(2, 1.0, 100) == 5
    assert find_critical_n(3, 1.0, 100) == 15
    assert find_critical_n(100, 0.5, 10**6) == 830_693


def test_find_critical_n_low_purity():
    n_half = find_critical_n(3, 0.5, 200)
    assert n_half >= 15
    bound = leggett_bound_floor(3, 0.5)
    assert cglmp_chained_value(3, n_half) < bound
    assert cglmp_chained_value(3, n_half - 1) >= bound


def test_find_critical_n_not_found_carries_gap():
    with pytest.raises(CriticalNotFoundError) as info:
        find_critical_n(3, 0.1, 5)
    expected_gap = cglmp_chained_value(3, 5) - leggett_bound_floor(3, 0.1)
    assert info.value.gap == pytest.approx(expected_gap, abs=1e-12)


def _scan_oracle(d, eta, n_max):
    """The linear scan from N = 1 that the bisection replaced."""
    bound = leggett_bound_floor(d, eta)
    value = math.inf
    for n in range(1, n_max + 1):
        value = cglmp_chained_value(d, n)
        if value < bound:
            return n
    raise CriticalNotFoundError("no violation", gap=value - bound)


@pytest.mark.parametrize("d", range(2, 13))
def test_find_critical_n_matches_scan_oracle(d):
    for eta in (0.5, 0.7, 0.9, 1.0):
        assert find_critical_n(d, eta, 2000) == _scan_oracle(d, eta, 2000)


@pytest.mark.parametrize("d,eta", [(2, 1.0), (3, 1.0), (3, 0.5), (8, 0.7)])
def test_find_critical_n_at_the_scan_limit(d, eta):
    n_crit = _scan_oracle(d, eta, 2000)
    bound = leggett_bound_floor(d, eta)
    assert find_critical_n(d, eta, n_crit) == n_crit
    assert find_critical_n(d, eta, n_crit + 1) == n_crit
    for n_max in (n_crit - 1, 2):
        with pytest.raises(CriticalNotFoundError) as info:
            find_critical_n(d, eta, n_max)
        assert info.value.gap == cglmp_chained_value(d, n_max) - bound


# 1.5 once met the range check first and raised ValueError
@pytest.mark.parametrize("n_max", [100.0, 100.5, 1.5])
def test_find_critical_n_rejects_non_integer_limit(n_max):
    with pytest.raises(TypeError):
        find_critical_n(3, 1.0, n_max)


def _round_budget(n_max):
    """ceil(log_{K+1} n_max) + 1 kernel calls: the check of I_{n_max} and
    the rounds of K interior points, counted in integers."""
    rounds = 0
    while (leggett._ROUND + 1) ** rounds < n_max:
        rounds += 1
    return rounds + 1


@pytest.mark.parametrize("n_max", [2, 3, 17, 1000, 100_000])
def test_find_critical_n_bisects_in_log_evaluations(monkeypatch, n_max):
    # a synthetic strictly decreasing I_N equal to the floor at N = k - 1,
    # so the first violation is at k; k = n_max + 1 means none up to n_max
    bound = leggett_bound_floor(3)
    budget = _round_budget(n_max)
    for k in sorted({1, 2, n_max // 2, n_max, n_max + 1}):
        calls = []

        def fake(d, ns):
            calls.append(list(ns))
            return bound + (k - 1 - np.array(ns, dtype=float))

        monkeypatch.setattr(leggett, "_chained_values", fake)
        if k <= n_max:
            assert find_critical_n(3, 1.0, n_max) == k
        else:
            with pytest.raises(CriticalNotFoundError) as info:
                find_critical_n(3, 1.0, n_max)
            assert info.value.gap == 0.0
        assert len(calls) <= budget
        assert all(len(ns) <= leggett._ROUND for ns in calls)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The N list of every `_chained_values` call the search makes."""
    calls = []
    kernel = leggett._chained_values

    def counted(d, ns):
        calls.append(list(ns))
        return kernel(d, ns)

    monkeypatch.setattr(leggett, "_chained_values", counted)
    return calls


@pytest.mark.parametrize(
    "d,eta", [(d, eta) for d in range(2, 101) for eta in (0.1, 0.5, 0.7, 0.9, 1.0)]
)
def test_find_critical_n_evaluation_count(kernel_calls, d, eta):
    # the first pass, I_{n_max} and 15 N around 2 gamma/L, holds the crossing
    bound = leggett_bound_floor(d, eta)
    for n_max in (10**3, 10**5, 10**6):
        kernel_calls.clear()
        try:
            n = find_critical_n(d, eta, n_max)
        except CriticalNotFoundError:
            continue
        assert len(kernel_calls) == 1
        assert all(len(ns) <= leggett._ROUND for ns in kernel_calls)
        assert cglmp_chained_value(d, n) < bound <= cglmp_chained_value(d, n - 1)


def test_critical_n_sits_just_above_the_leading_order_crossing():
    # N I_N = 2 gamma + c2/N + ..., 0 <= c2/(2 gamma) < 0.73 for d <= 100:
    # why the first pass's window around 2 gamma/L suffices
    checked = 0
    for d in range(2, 101):
        for eta in (0.1, 0.5, 0.7, 0.9, 1.0):
            try:
                n = find_critical_n(d, eta, 10**6)
            except CriticalNotFoundError:
                continue
            checked += 1
            assert -1 < n - 2 * gamma_factor(d) / leggett_bound_floor(d, eta) < 2
    assert checked > 400


@pytest.mark.parametrize("eta,n_max", [(1.0, 1000), (1.0, 100_000), (0.001, 100_000)])
def test_find_critical_n_falls_back_to_rounds_outside_the_window(
    monkeypatch, eta, n_max
):
    # the synthetic I_N of the test above, crossing at either edge of the
    # first pass's window N = g - 6 .. g + 8 or one step outside it
    bound = leggett_bound_floor(3, eta)
    g = int(2 * gamma_factor(3) / bound)
    for k, one_pass in ((g - 6, False), (g - 5, True), (g + 8, True), (g + 9, False)):
        calls = []

        def fake(d, ns):
            calls.append(list(ns))
            return bound + (k - 1 - np.array(ns, dtype=float))

        monkeypatch.setattr(leggett, "_chained_values", fake)
        assert find_critical_n(3, eta, n_max) == k
        assert len(calls) == 1 if one_pass else 1 < len(calls) <= _round_budget(n_max)
        assert all(len(ns) <= leggett._ROUND for ns in calls)


def _bisection_oracle(d, eta, n_max):
    """The bisection over `cglmp_chained_value` that the rounds replaced."""
    bound = leggett_bound_floor(d, eta)
    assert cglmp_chained_value(d, n_max) < bound
    lo, hi = 0, n_max
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cglmp_chained_value(d, mid) < bound:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize(
    "d,eta,n_max",
    [(d, eta, 100_000) for d in range(2, 25) for eta in (0.5, 0.7, 0.9, 1.0)]
    # past int64 the grid points stay Python ints
    + [(100, 0.5, 10**6), (24, 0.5, 10**20), (100, 0.5, 10**20), (5, 1.0, 2**63 + 5)],
)
def test_find_critical_n_matches_bisection_oracle(d, eta, n_max):
    assert find_critical_n(d, eta, n_max) == _bisection_oracle(d, eta, n_max)


def test_find_critical_n_with_the_floor_underflowed_to_zero():
    # eta = 5e-324 rounds L to 0.0: no 2 gamma/L window, I_{n_max} decides
    assert leggett_bound_floor(3, 5e-324) == 0.0
    with pytest.raises(CriticalNotFoundError) as info:
        find_critical_n(3, 5e-324, 1000)
    assert str(info.value) == (
        "no violation for d=3, eta=5e-324 up to N=1000; "
        "gap I_N - bound = 0.00219369"
    )
    assert info.value.gap == cglmp_chained_value(3, 1000)


@pytest.mark.parametrize("d", [2, 3, 24, 100])
def test_find_critical_n_with_the_window_past_the_limit(d):
    # 2 gamma/L ~ 1e301 is clamped to n_max, which is still not enough
    bound = leggett_bound_floor(d, 1e-300)
    assert 2 * gamma_factor(d) / bound > 10**20
    with pytest.raises(CriticalNotFoundError) as info:
        find_critical_n(d, 1e-300, 10**20)
    assert info.value.gap == cglmp_chained_value(d, 10**20) - bound


@pytest.mark.parametrize("n_max", [2, 3, 15, 16, 17])
def test_find_critical_n_at_limits_inside_the_window(n_max):
    for d in (2, 3, 5):
        for eta in (0.1, 0.5, 1.0):
            try:
                expected = _scan_oracle(d, eta, n_max)
            except CriticalNotFoundError as oracle:
                with pytest.raises(CriticalNotFoundError) as info:
                    find_critical_n(d, eta, n_max)
                assert info.value.gap == oracle.gap
            else:
                assert find_critical_n(d, eta, n_max) == expected


def test_find_critical_n_first_pass_past_int64(kernel_calls):
    n_max = 2**63 + 5
    assert find_critical_n(5, 1.0, n_max) == _bisection_oracle(5, 1.0, n_max)
    assert len(kernel_calls) == 1 and kernel_calls[0][-1] == n_max
    assert all(type(n) is int for n in kernel_calls[0])


@pytest.mark.parametrize("d", [2, 3, 5, 10, 24])
def test_chained_value_strictly_decreasing(d):
    # the precondition under which bisection and a scan from N = 1 agree
    values = [cglmp_chained_value(d, n) for n in range(1, 3000)]
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
def test_mub_bases_are_mutually_unbiased(d):
    bases = leggett._mub_bases(d)
    assert bases.shape == (d + 1, d, d)
    # overlaps[k, l, x, y] = |<m^k_x|m^l_y>|^2
    overlaps = np.abs(np.einsum("kxi,lyi->klxy", bases.conj(), bases)) ** 2
    for k in range(d + 1):
        assert np.abs(overlaps[k, k] - np.eye(d)).max() < 1e-12
        for other in range(k + 1, d + 1):
            assert np.abs(overlaps[k, other] - 1.0 / d).max() < 1e-12


def test_qubit_mubs_are_the_pauli_eigenbases():
    paulis = [np.diag([1, -1]), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]])]
    for basis, pauli in zip(leggett._mub_bases(2), paulis):
        for state, eigenvalue in zip(basis, (1, -1)):
            assert np.abs(pauli @ state - eigenvalue * state).max() < 1e-15


@pytest.mark.parametrize("d", [4, 6])
def test_mub_families_refuse_non_prime_dimension(d):
    with pytest.raises(ValueError, match=f"d={d} is not prime"):
        mub_families(chained_settings(d, 2))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_mub_family_setting_one_is_the_mub(d):
    fams = mub_families(chained_settings(d, 3))
    assert len(fams) == d + 1
    for fam, mub in zip(fams, leggett._mub_bases(d)):
        assert np.abs(fam.alice[0] - mub).max() < 1e-12


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (3, 2), (5, 2)])
def test_mub_families_orthogonality_and_chained_invariance(d, n):
    settings = chained_settings(d, n)
    fams = mub_families(settings)
    # the setting-1 difference spans are pairwise orthogonal and fill the
    # Bloch space
    diffs = [leggett._difference_matrix(basis_to_bloch(f.alice[0])) for f in fams]
    for i, di in enumerate(diffs):
        for dj in diffs[i + 1 :]:
            assert np.abs(di @ dj.T).max() < 1e-12
    assert np.linalg.matrix_rank(np.concatenate(diffs)) == d * d - 1
    # every family reproduces the chained value of the input settings on the
    # entangled state
    psi = maximally_entangled(d)
    reference = chained_value(joint_from_bases(psi, *cglmp_bases(settings)))
    for fam in fams:
        value = chained_value(joint_from_bases(psi, fam.alice, fam.bob))
        assert abs(value - reference) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_mub_families_leave_no_escape(d):
    fams = mub_families(chained_settings(d, 3))
    for u in sample_sphere(d * d - 1, substream(67, d), size=20):
        report = escape_report(u, fams)
        assert any(not r.escape_possible for r in report)
        # u's squared projections onto the d + 1 orthogonal setting-1 spans,
        # each inside its family's span, sum to 1
        assert max(r.projection for r in report) >= 1.0 / math.sqrt(d + 1) - 1e-12


def test_escape_report_flags_span_normal():
    # the normal (0, 0, 1) of the qubit equatorial plane, the Bloch vector of
    # |0>, escapes the X and Y families but not the Z family
    fams = mub_families(chained_settings(2, 3))
    report = escape_report(np.array([0.0, 0.0, 1.0]), fams)
    assert [r.index for r in report] == [1, 2, 3]
    assert [r.escape_possible for r in report] == [False, True, True]
    assert report[0].projection == pytest.approx(1.0, abs=1e-12)


def test_escape_report_requires_unit_vector():
    fams = mub_families(chained_settings(2, 2))
    with pytest.raises(ValueError, match="unit"):
        escape_report(np.array([0.0, 0.0, 2.0]), fams)


def test_escape_report_refuses_an_empty_family_list():
    # with no family there was no d, and a u of any length passed
    with pytest.raises(ValueError, match="families is empty"):
        escape_report([1.0], [])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_escape_report_refuses_a_non_finite_vector(bad):
    # a NaN norm once passed the unit check and flagged no family
    fams = mub_families(chained_settings(2, 2))
    with pytest.raises(ValueError, match="unit"):
        escape_report(np.array([bad, 0.0, 0.0]), fams)


def test_local_model_validation():
    with pytest.raises(ValueError):
        LocalModel(d=3, eta=0.0)
    with pytest.raises(ValueError):
        LocalModel(d=3, u_mode="unknown")
    with pytest.raises(ValueError):
        LocalModel(d=3, u_mode="fixed")


def test_measurement_basis_arrays_are_read_only():
    # a write to one array would part the states from their vectors
    mb = basis_to_bloch(np.eye(3))
    for array in (mb.states, mb.vectors):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 5


def test_measurement_basis_orthonormal_to_1e_12_is_accepted():
    # the Gram check at PROB_TOL = 1e-12 is the one check of every basis: a
    # row with |psi|^2 = 1 + 5e-13 passes it, one with 1 + 1.1e-12 does not
    states = np.eye(3, dtype=complex)
    states[0] *= math.sqrt(1 + 5e-13)
    mb = MeasurementBasisBloch(states)
    assert np.abs(np.linalg.norm(mb.vectors, axis=1) - 1.0).max() < 1e-12
    states[0] = np.eye(3)[0] * math.sqrt(1 + 1.1e-12)
    with pytest.raises(ValueError, match="not an orthonormal basis"):
        MeasurementBasisBloch(states)


def test_one_tolerance_for_both_basis_checks():
    # Alice's setting-1 chained basis at d = 3 with row 0 turned 1e-11
    # towards row 1: basis_to_bloch once accepted it at 1e-10 while
    # joint_from_bases refused it at 1e-12
    alice, bob = cglmp_bases(chained_settings(3, 1))
    t = 1e-11
    alice[0, 0] = math.cos(t) * alice[0, 0] + math.sin(t) * alice[0, 1]
    with pytest.raises(ValueError, match=r"^basis is not an orthonormal basis: .* = 1e-11 > 1e-12"):
        basis_to_bloch(alice[0])
    needle = r"^alice setting 1 is not an orthonormal basis: .* = 1e-11 > 1e-12"
    with pytest.raises(ValueError, match=needle):
        joint_from_bases(maximally_entangled(3), alice, bob)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_mub_family_spans_equal_the_per_basis_path_bit_for_bit(d):
    settings = chained_settings(d, 4)
    for fam in mub_families(settings):
        # each setting's basis checked and mapped on its own, as before the
        # stacked map
        vectors = [state_to_bloch(basis) for basis in fam.alice]
        diffs = np.concatenate([v - np.roll(v, 1, axis=0) for v in vectors])
        _, sv, vt = np.linalg.svd(diffs, full_matrices=False)
        assert np.array_equal(fam.span, vt[sv > 1e-9])


@pytest.mark.parametrize("flag", [True, False, np.True_, "0.5", None, 1j, [0.5]])
def test_a_bool_purity_is_refused(flag):
    basis = _cglmp_basis(3)
    with pytest.raises(TypeError, match="is not a number"):
        LocalModel(d=3, eta=flag)
    with pytest.raises(TypeError, match="is not a number"):
        marginal_distribution(basis, basis.vectors[0], flag)
    with pytest.raises(TypeError, match="is not a number"):
        leggett_bound_analytic(3, flag)
    with pytest.raises(TypeError, match="is not a number"):
        leggett_bound_floor(3, flag)
    with pytest.raises(TypeError, match="is not a number"):
        find_critical_n(3, flag)


@pytest.mark.parametrize("d", [2, 3, 7])
def test_an_integer_purity_gives_the_bits_of_a_float(d):
    basis = _cglmp_basis(d)
    assert leggett_bound_floor(d, 1) == leggett_bound_floor(d, 1.0)
    assert leggett_bound_analytic(d, 1) == leggett_bound_analytic(d, 1.0)
    assert find_critical_n(d, 1) == find_critical_n(d, 1.0)
    u = basis.vectors[1]
    assert np.array_equal(
        marginal_distribution(basis, u, 1)[0], marginal_distribution(basis, u, 1.0)[0]
    )
    for mode in leggett.U_MODES:
        assert leggett_bound_mc(basis, LocalModel(d, 1, mode), 500, 3) == leggett_bound_mc(
            basis, LocalModel(d, 1.0, mode), 500, 3
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_marginal_distribution_refuses_a_non_finite_vector(bad):
    # a NaN u once gave NaN marginals and the flag False
    basis = _cglmp_basis(2)
    with pytest.raises(ValueError, match="u has a non-finite entry"):
        marginal_distribution(basis, np.array([bad, 0.0, 0.0]))


@pytest.mark.parametrize("size", [2, 4, 8, (1, 3), (3, 1)])
def test_hidden_vectors_of_the_wrong_length_are_refused(size):
    # numpy's matmul once answered with its core-dimension message, and a
    # (1, 3) or (3, 1) u was once flattened to the three coordinates of d = 2
    u = np.zeros(size)
    u.flat[0] = 1.0
    if u.ndim == 1:
        needle = f"u has {size} coordinates, expected d**2 - 1 = 3"
    else:
        needle = f"u must be one-dimensional, got shape {size}"
    with pytest.raises(ValueError, match=re.escape(needle)):
        marginal_distribution(_cglmp_basis(2), u)
    with pytest.raises(ValueError, match=re.escape(needle)):
        escape_report(u, mub_families(chained_settings(2, 2)))
