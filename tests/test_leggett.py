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
    multi_plane_families,
)
from cryptononlocal.nosignaling import statistical_distance
from cryptononlocal.quantum import (
    cglmp_bases,
    cglmp_chained_value,
    chained_settings,
    chained_value,
    joint_from_bases,
    maximally_entangled,
)


def _cglmp_basis(d, n=2, setting=0):
    alice, _ = cglmp_bases(chained_settings(d, n))
    return basis_to_bloch(alice[setting])


def test_basis_to_bloch_qubit_computational():
    mb = basis_to_bloch(np.eye(2, dtype=complex))
    assert np.allclose(mb.vectors[0], [0, 0, 1], atol=1e-12)
    assert np.allclose(mb.vectors[1], [0, 0, -1], atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_basis_to_bloch_invariants(d):
    mb = _cglmp_basis(d)
    gram = mb.vectors @ mb.vectors.T
    mask = ~np.eye(d, dtype=bool)
    assert np.abs(gram[mask] + 1.0 / (d - 1)).max() < 1e-10
    assert np.abs(mb.vectors.sum(axis=0)).max() < 1e-10
    steps = np.linalg.norm(mb.vectors - np.roll(mb.vectors, 1, axis=0), axis=1)
    assert np.abs(steps - math.sqrt(2 * d / (d - 1))).max() < 1e-10


def test_basis_to_bloch_fourier_basis_at_d100():
    # d = 100, the top of the range the library accepts, maps and validates
    d = 100
    x = np.arange(d)
    fourier = np.exp(2j * np.pi * np.outer(x, x) / d) / math.sqrt(d)
    mb = basis_to_bloch(fourier)
    assert mb.vectors.shape == (d, d * d - 1)
    mb.validate()


@pytest.mark.parametrize("shape", [(3, 7), (3, 9), (2, 2, 3), (1, 0)])
def test_measurement_basis_bloch_rejects_a_width_other_than_d2_minus_1(shape):
    with pytest.raises(ValueError, match=re.escape(f"shape {shape} is not (d >= 2, d**2 - 1)")):
        MeasurementBasisBloch(np.zeros(shape)).validate()


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


def _haar_mc_oracle(basis, eta, n_samples, seed):
    # per-sample Bloch map, drawing the same chunks as leggett_bound_mc
    d = basis.d
    diffs = basis.vectors - np.roll(basis.vectors, 1, axis=0)
    chunks = []
    done = 0
    while done < n_samples:
        m = min(_MC_CHUNK, n_samples - done)
        states = sample_haar_pure(d, substream(seed, len(chunks)), size=m)
        u = np.stack([state_to_bloch(s) for s in states])
        chunks.append(eta * (d - 1) / d**2 * np.abs(u @ diffs.T).sum(axis=1))
        done += m
    vals = np.concatenate(chunks)
    return vals.mean(), vals.std(ddof=1) / math.sqrt(n_samples)


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
        # d^3 = 8000 multiply-adds per row: 64-row blocks, the floor
        (20, 1.0, 63, 18),
        (20, 0.8, 65, 19),
        (20, 1.0, 129, 17),
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
    d = basis.d
    diffs = basis.vectors - np.roll(basis.vectors, 1, axis=0)
    chunks = []
    done = 0
    while done < n_samples:
        m = min(_MC_CHUNK, n_samples - done)
        u = sample_sphere(d * d - 1, substream(seed, len(chunks)), size=m)
        chunks.append(eta * (d - 1) / d**2 * np.abs(u @ diffs.T).sum(axis=1))
        done += m
    vals = np.concatenate(chunks)
    stderr = vals.std(ddof=1) / math.sqrt(n_samples) if n_samples > 1 else 0.0
    return vals.mean(), stderr


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
        monkeypatch.setattr(leggett, "_mc_workers", lambda n, w=workers: min(w, n))
        estimates.append(leggett_bound_mc(basis, model, n_samples, 37))
    assert estimates[0].std_error > 0
    assert estimates[1:] == estimates[:1] * 2


_BLAS_PROBE = """
from cryptononlocal.leggett import LocalModel, basis_to_bloch, leggett_bound_mc
from cryptononlocal.quantum import cglmp_bases, chained_settings
cases = [(d, mode, 65536) for d in range(2, 6) for mode in ("sphere-uniform", "haar-pure")]
# 64-row blocks, whose products OpenBLAS may split over its threads
cases += [(20, "haar-pure", 256), (51, "sphere-uniform", 130)]
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
    assert outputs[0].count("\n") == 10
    assert outputs[0] == outputs[1]


def test_mc_bound_single_chunk_uses_no_pool(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("thread pool created")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    basis, model = _cglmp_basis(3), LocalModel(d=3)
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


@pytest.mark.parametrize("n_max", [100.0, 100.5])
def test_find_critical_n_rejects_non_integer_limit(n_max):
    with pytest.raises(TypeError):
        find_critical_n(3, 1.0, n_max)


@pytest.mark.parametrize("n_max", [2, 3, 17, 1000, 100_000])
def test_find_critical_n_bisects_in_log_evaluations(monkeypatch, n_max):
    # a synthetic strictly decreasing I_N equal to the floor at N = k - 1,
    # so the first violation is at k; k = n_max + 1 means none up to n_max
    bound = leggett_bound_floor(3)
    budget = math.ceil(math.log2(n_max)) + 1
    for k in sorted({1, 2, n_max // 2, n_max, n_max + 1}):
        calls = []

        def fake(d, n):
            calls.append(n)
            return bound + (k - 1 - n)

        monkeypatch.setattr(leggett, "cglmp_chained_value", fake)
        if k <= n_max:
            assert find_critical_n(3, 1.0, n_max) == k
        else:
            with pytest.raises(CriticalNotFoundError) as info:
                find_critical_n(3, 1.0, n_max)
            assert info.value.gap == 0.0
        assert len(calls) <= budget


@pytest.mark.parametrize("d,eta", [(3, 1.0), (24, 0.5)])
def test_find_critical_n_evaluation_count(monkeypatch, d, eta):
    calls = []

    def counted(d, n):
        calls.append(n)
        return cglmp_chained_value(d, n)

    monkeypatch.setattr(leggett, "cglmp_chained_value", counted)
    n = find_critical_n(d, eta, 100_000)
    assert len(calls) <= math.ceil(math.log2(100_000)) + 1
    bound = leggett_bound_floor(d, eta)
    assert cglmp_chained_value(d, n) < bound <= cglmp_chained_value(d, n - 1)


@pytest.mark.parametrize("d", [2, 3, 5, 10, 24])
def test_chained_value_strictly_decreasing(d):
    # the precondition under which bisection and a scan from N = 1 agree
    values = [cglmp_chained_value(d, n) for n in range(1, 3000)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_multi_plane_identity_for_k1():
    settings = chained_settings(3, 4)
    fams = multi_plane_families(settings, 1)
    assert len(fams) == 1
    alice, bob = cglmp_bases(settings)
    assert np.abs(fams[0].alice - alice).max() < 1e-15
    assert np.abs(fams[0].bob - bob).max() < 1e-15
    assert np.abs(fams[0].unitary - np.eye(3)).max() == 0


def test_multi_plane_k_range_checked():
    settings = chained_settings(2, 3)
    with pytest.raises(ValueError, match="k must lie"):
        multi_plane_families(settings, 3)  # d=2 allows at most d^2-2 = 2
    with pytest.raises(ValueError, match="k must lie"):
        multi_plane_families(settings, 0)


@pytest.mark.parametrize("d,n,k", [(2, 3, 2), (3, 3, 2), (3, 2, 4), (4, 2, 3)])
def test_multi_plane_orthogonality_and_chained_invariance(d, n, k):
    settings = chained_settings(d, n)
    fams = multi_plane_families(settings, k)
    assert len(fams) == k
    # descriptors are mutually orthogonal
    for i, fi in enumerate(fams):
        for fj in fams[i + 1 :]:
            if fi.new_directions.size and fj.new_directions.size:
                assert np.abs(fi.new_directions @ fj.new_directions.T).max() < 1e-9
    # every family reproduces the same chained value on the entangled state
    psi = maximally_entangled(d)
    reference = chained_value(joint_from_bases(psi, fams[0].alice, fams[0].bob))
    for fam in fams[1:]:
        value = chained_value(joint_from_bases(psi, fam.alice, fam.bob))
        assert abs(value - reference) < 1e-10


def test_multi_plane_union_blocks_all_escapes_for_qubits():
    settings = chained_settings(2, 3)
    fams = multi_plane_families(settings, 2)
    total = sum(f.new_directions.shape[0] for f in fams)
    assert total == 3  # spans exhaust the full Bloch space
    rng = substream(67, 0)
    for _ in range(20):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        report = escape_report(u, fams)
        assert any(not r.escape_possible for r in report)


def test_escape_report_flags_span_normal():
    # the qubit chained vectors fill the equatorial plane; its normal is an
    # escape direction for family 1 but not for the rotated family
    settings = chained_settings(2, 3)
    fams = multi_plane_families(settings, 2)
    normal = np.array([0.0, 0.0, 1.0])
    assert np.abs(fams[0].span @ normal).max() < 1e-12
    report = escape_report(normal, fams)
    assert report[0].escape_possible
    assert not report[1].escape_possible


def test_escape_report_requires_unit_vector():
    fams = multi_plane_families(chained_settings(2, 2), 1)
    with pytest.raises(ValueError, match="unit"):
        escape_report(np.array([0.0, 0.0, 2.0]), fams)


def test_local_model_validation():
    with pytest.raises(ValueError):
        LocalModel(d=3, eta=0.0)
    with pytest.raises(ValueError):
        LocalModel(d=3, u_mode="unknown")
    with pytest.raises(ValueError):
        LocalModel(d=3, u_mode="fixed")
