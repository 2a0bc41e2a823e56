import math

import numpy as np
import pytest

from cryptononlocal.bloch import (
    _normal_rows,
    bloch_to_density,
    expected_abs_projection,
    sample_haar_pure,
    sample_sphere,
    state_to_bloch,
    substream,
)
from helpers import haar_unitary

ATOL = 1e-12


def _gell_mann_stack(d):
    # dense oracle: every basis matrix built entry by entry, in the library's order
    mats = []
    for k in range(1, d):
        for j in range(k):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(m)
    for k in range(1, d):
        for j in range(k):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -float(l)
        mats.append(m * math.sqrt(2.0 / (l * (l + 1))))
    return np.stack(mats, axis=0)


@pytest.mark.parametrize("d", range(2, 9))
def test_basis_invariants(d):
    mats = _gell_mann_stack(d)
    assert mats.shape == (d * d - 1, d, d)
    assert np.abs(mats - mats.conj().transpose(0, 2, 1)).max() < ATOL
    assert np.abs(np.trace(mats, axis1=1, axis2=2)).max() < ATOL
    gram = np.einsum("aij,bji->ab", mats, mats)
    assert np.abs(gram - 2.0 * np.eye(d * d - 1)).max() < ATOL


def test_basis_d2_is_pauli():
    mats = _gell_mann_stack(2)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    assert np.abs(mats - np.stack([sx, sy, sz])).max() < ATOL


def test_basis_counts():
    assert len(_gell_mann_stack(5)) == 24
    with pytest.raises(ValueError, match="dimension"):
        state_to_bloch(np.ones(1))
    for length in (0, 7, 10):
        with pytest.raises(ValueError, match="not d"):
            bloch_to_density(np.zeros(length))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bloch_to_density_refuses_a_non_finite_vector(bad):
    # a NaN u once gave a NaN density matrix
    with pytest.raises(ValueError, match="u has a non-finite entry"):
        bloch_to_density(np.array([bad, 0.0, 0.0]))
    with pytest.raises(ValueError, match="u has a non-finite entry"):
        bloch_to_density([[0.0] * 8, [0.0] * 7 + [bad]])


@pytest.mark.parametrize("d", range(2, 10))
def test_maps_match_dense_oracle(d):
    mats = _gell_mann_stack(d)
    scale = math.sqrt(d / (2.0 * (d - 1)))
    psi = sample_haar_pure(d, substream(41, d), size=12).reshape(3, 4, d)
    u = state_to_bloch(psi)
    assert u.shape == (3, 4, d * d - 1)
    oracle = np.einsum("...i,kij,...j->...k", psi.conj(), mats, psi).real * scale
    assert np.abs(u - oracle).max() < 1e-14
    rho = bloch_to_density(u)
    assert rho.shape == (3, 4, d, d)
    rho_oracle = np.eye(d) / d + math.sqrt((d - 1) / (2.0 * d)) * np.einsum(
        "...k,kij->...ij", u, mats
    )
    assert np.abs(rho - rho_oracle).max() < 1e-14
    # a batched call is the row-by-row calls, bit for bit
    for idx in np.ndindex(3, 4):
        assert np.array_equal(u[idx], state_to_bloch(psi[idx]))
        assert np.array_equal(rho[idx], bloch_to_density(u[idx]))


def test_pair_order_is_larger_index_first():
    # (|0> + |3>)/sqrt(2) at d=4: pair (k, j) = (3, 0) is the fourth pair
    # (index 3); a (j, k) row-major order would put it at index 2
    psi = np.zeros(4, dtype=complex)
    psi[[0, 3]] = 1.0 / math.sqrt(2.0)
    u = state_to_bloch(psi)
    assert np.flatnonzero(np.abs(u) > ATOL).tolist() == [3, 12, 13, 14]


def test_north_pole():
    u = state_to_bloch(np.array([1, 0], dtype=complex))
    assert np.allclose(u, [0, 0, 1], atol=ATOL)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_state_roundtrip(d):
    rng = substream(101, d)
    for _ in range(20):
        psi = sample_haar_pure(d, rng)
        u = state_to_bloch(psi)
        assert abs(np.linalg.norm(u) - 1.0) < ATOL
        rho = bloch_to_density(u)
        assert np.abs(rho - np.outer(psi, psi.conj())).max() < 1e-10


def test_unnormalized_state_rejected():
    with pytest.raises(ValueError, match="normalized"):
        state_to_bloch(np.array([1.0, 1.0]))
    # one bad row in a batch, and a NaN amplitude, are refused too
    with pytest.raises(ValueError, match=r"\|psi\|\^2 = 0\.5"):
        state_to_bloch(np.array([[1.0, 0.0], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="normalized"):
        state_to_bloch(np.array([np.nan, 0.0]))


@pytest.mark.parametrize("psi", [[1e200, 0], [1e200 + 1e200j, 0], [0, 1e308 + 1e308j]])
def test_huge_finite_state_is_refused_by_name_not_by_an_overflow_warning(psi):
    # |psi|^2 overflows to inf; warnings are errors under this suite
    with pytest.raises(ValueError, match=r"^state is not normalized: \|psi\|\^2 = inf$"):
        state_to_bloch(psi)


def test_orthogonal_state_overlaps():
    # orthogonal pure states sit at the extreme overlap -1/(d-1)
    for d, expected in [(3, -0.5), (4, -1.0 / 3.0)]:
        e0 = np.zeros(d, dtype=complex)
        e1 = np.zeros(d, dtype=complex)
        e0[0] = 1.0
        e1[1] = 1.0
        a = state_to_bloch(e0)
        u = state_to_bloch(e1)
        # independent oracle: invert the projection rule from the matrix overlap
        tr = abs(np.vdot(e0, e1)) ** 2
        oracle = (d * tr - 1.0) / (d - 1.0)
        assert abs(a @ u - expected) < 1e-10
        assert abs(oracle - expected) < ATOL


def test_overlap_self_and_mismatch():
    u = state_to_bloch(np.array([1, 0, 0], dtype=complex))
    assert abs(u @ u - 1.0) < ATOL
    perp = np.zeros_like(u)
    perp[0] = 1.0  # off-diagonal coordinate, orthogonal to a diagonal state
    assert perp @ u == 0.0


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_overlap_range_for_random_pure_pairs(d):
    rng = substream(202, d)
    lo = -1.0 / (d - 1) - 1e-9
    for _ in range(200):
        a = state_to_bloch(sample_haar_pure(d, rng))
        u = state_to_bloch(sample_haar_pure(d, rng))
        val = a @ u
        assert lo <= val <= 1.0 + 1e-9


def test_sphere_norms_and_determinism():
    rng = substream(7, 0)
    pts = sample_sphere(8, rng, size=1000)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < ATOL
    again = sample_sphere(8, substream(7, 0), size=1000)
    assert np.array_equal(pts, again)
    other = sample_sphere(8, substream(7, 1), size=1000)
    assert not np.allclose(pts, other)


class _ZeroFirstRows:
    """Generator stub: row 0 of every draw of ``rows`` rows is all zeros."""

    def __init__(self, rows):
        self.rows = rows
        self.gen = substream(47, 0)
        self.shapes = []

    def standard_normal(self, shape, out=None):
        self.shapes.append(shape)
        out = self.gen.standard_normal(shape, out=out)
        if shape[0] == self.rows:
            out[0] = 0.0
        return out


def test_samplers_redraw_a_zero_row():
    stub = _ZeroFirstRows(5)
    pts = sample_sphere(4, stub, size=5)
    assert stub.shapes == [(5, 4), (1, 4)]
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < ATOL
    stub = _ZeroFirstRows(5)
    states = sample_haar_pure(3, stub, size=5)
    # real and imaginary parts of the first draw, then of the one-row redraw
    assert stub.shapes == [(5, 3), (5, 3), (1, 3), (1, 3)]
    assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() < ATOL
    assert np.all(np.abs(states[0]) > 0)


def test_buffered_draw_redraws_as_the_allocating_draw():
    stub = _ZeroFirstRows(5)
    re, im = _normal_rows(stub, 5, 3, parts=2)
    assert stub.shapes == [(5, 3), (5, 3), (1, 3), (1, 3)]
    stub = _ZeroFirstRows(5)
    out = [np.empty((5, 3)), np.empty((5, 3))]
    parts = _normal_rows(stub, 5, 3, parts=2, out=out)
    assert stub.shapes == [(5, 3), (5, 3), (1, 3), (1, 3)]
    assert all(part is buf for part, buf in zip(parts, out))
    assert np.array_equal(out[0], re) and np.array_equal(out[1], im)
    assert np.all(np.linalg.norm(np.hstack(out), axis=1) > 0)


def test_sphere_coordinate_symmetry():
    n, m = 8, 1_000_000
    pts = sample_sphere(n, substream(11, 0), size=m)
    sigma = 1.0 / math.sqrt(m * n)  # Var(u_i) = 1/n on the sphere
    assert np.abs(pts.mean(axis=0)).max() < 5 * sigma


def test_sphere_mean_abs_first_coordinate():
    m = 1_000_000
    pts = sample_sphere(3, substream(13, 0), size=m)
    vals = np.abs(pts[:, 0])
    se = vals.std(ddof=1) / math.sqrt(m)
    assert abs(vals.mean() - 0.5) < 5 * se  # E|u_1| = 1/2 on S^2


def test_haar_pure_normalized_and_isotropic_for_qubits():
    m = 1_000_000
    states = sample_haar_pure(2, substream(17, 0), size=m)
    assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() < ATOL
    # map to Bloch coordinates, vectorized for d=2
    a, b = states[:, 0], states[:, 1]
    coords = np.stack(
        [
            2 * np.real(np.conj(a) * b),
            2 * np.imag(np.conj(a) * b),
            np.abs(a) ** 2 - np.abs(b) ** 2,
        ],
        axis=1,
    )
    sigma = 1.0 / math.sqrt(m * 3)
    assert np.abs(coords.mean(axis=0)).max() < 5 * sigma


def test_haar_d3_is_not_sphere_uniform():
    # along the Bloch direction of a basis state, |u.w| has mean
    # E|3F-1|/2 = 8/27 with F = |<0|psi>|^2 ~ Beta(1, 2), while the
    # uniform-sphere value is kappa_8; the samplers must disagree.
    m = 1_000_000
    states = sample_haar_pure(3, substream(19, 0), size=m)
    fidelity = np.abs(states[:, 0]) ** 2
    vals = np.abs(3 * fidelity - 1.0) / 2.0
    se = vals.std(ddof=1) / math.sqrt(m)
    assert abs(vals.mean() - 8.0 / 27.0) < 5 * se
    assert abs(vals.mean() - expected_abs_projection(8)) > 10 * se


def test_expected_abs_projection_values():
    assert abs(expected_abs_projection(3) - 0.5) < ATOL
    assert abs(expected_abs_projection(2) - 2.0 / math.pi) < ATOL
    with pytest.raises(ValueError):
        expected_abs_projection(1)


def test_expected_abs_projection_matches_mpmath():
    # the Bloch dimensions n = d^2 - 1 up to d = 100, both sides of the
    # switch to the series at n = 200, and n far beyond any Bloch space
    from reference import kappa, mpmath

    ns = {d * d - 1 for d in range(2, 101)} | {199, 200, 201, 10**6, 10**9, 10**12}
    with mpmath.workdps(40):
        for n in sorted(ns):
            rel = abs(float(mpmath.mpf(expected_abs_projection(n)) / kappa(n) - 1))
            # the gamma ratio below n = 200 errs by up to 6.7e-16, the series by 4e-16
            assert rel <= 1e-15, f"n={n}: relative error {rel:.3g}"


def test_expected_abs_projection_matches_sampler():
    n, m = 8, 1_000_000
    pts = sample_sphere(n, substream(23, 0), size=m)
    vals = np.abs(pts[:, 0])
    se = vals.std(ddof=1) / math.sqrt(m)
    assert abs(vals.mean() - expected_abs_projection(n)) < 3 * se


def test_haar_unitary_is_unitary():
    rng = substream(29, 0)
    for d in (2, 3, 5):
        u = haar_unitary(d, rng)
        assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-12
