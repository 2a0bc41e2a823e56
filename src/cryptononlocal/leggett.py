"""Leggett-type crypto-nonlocal model in arbitrary dimension.

The model assigns each particle a hidden pure state, a unit Bloch vector
``u``, and forces the single-party marginal to follow the projection rule

    P(X = x | basis, u) = [1 + eta (d-1) a^x . u] / d ,

where ``a^x`` is the Bloch vector of the basis state for outcome x and
``eta`` in (0, 1] is the purity of the hidden state.  Averaging over the
hidden-state distribution constrains the chained quantity:

    L = eta (d-1)/d^2 * sum_x < |(a^x - a^{x-1}) . u| >_u  <=  I_N ,

with x - 1 cyclic.  For u uniform on the Bloch sphere L has the explicit
floor ``eta 2(d-1)/d^3`` and the exact isotropic average is available in
closed form because every step ``|a^x - a^{x-1}|`` equals sqrt(2d/(d-1)).
Quantum mechanics drives I_N below the floor once N is large enough; the
smallest such N is the critical settings count found by `find_critical_n`.

A hidden vector orthogonal to the span of all difference vectors makes L
vanish ("escape direction").  `multi_plane_families` counters this by
conjugating the measurement set with unitaries (compensated on the other
side, so I_N is unchanged) until the accumulated spans exhaust the Bloch
space; `escape_report` measures the projection of a fixed u onto each
family's span.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .bloch import (
    bloch_to_density,
    expected_abs_projection,
    haar_unitary,
    sample_haar_pure,
    sample_sphere,
    state_to_bloch,
    substream,
)
from .quantum import ChainedSettings, cglmp_bases, cglmp_chained_value

__all__ = [
    "MeasurementBasisBloch",
    "basis_to_bloch",
    "LocalModel",
    "BoundEstimate",
    "marginal_distribution",
    "leggett_bound_mc",
    "leggett_bound_analytic",
    "leggett_bound_floor",
    "find_critical_n",
    "CriticalNotFoundError",
    "MeasurementFamily",
    "multi_plane_families",
    "ConstructionError",
    "FamilyProjection",
    "escape_report",
]

U_MODES = ("sphere-uniform", "haar-pure")

_MC_CHUNK = 1 << 16
# Multiply-adds per block product.  OpenBLAS runs a gemm of at most 2**18 of
# them in the calling thread (its default GEMM_MULTITHREAD_THRESHOLD
# 4 x 65536); a threaded gemm leaves BLAS workers spinning on the cores the
# chunk workers need.
_MC_BLOCK = 1 << 18
_SPAN_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class MeasurementBasisBloch:
    """Bloch vectors of one projective measurement, one row per outcome."""

    vectors: np.ndarray  # shape (d, d**2 - 1)

    @property
    def d(self) -> int:
        return self.vectors.shape[0]

    def validate(self, tol: float = 1e-10) -> None:
        """Shape, completeness, pairwise overlap and cyclic step-length checks."""
        d, v = self.d, self.vectors
        if v.shape != (d, d * d - 1) or d < 2:
            raise ValueError(f"vectors shape {v.shape} is not (d >= 2, d**2 - 1)")
        if np.abs(v.sum(axis=0)).max() > tol:
            raise ValueError("outcome vectors do not sum to zero")
        gram = v @ v.T
        target = -1.0 / (d - 1)
        mask = ~np.eye(d, dtype=bool)
        if np.abs(gram[mask] - target).max() > tol:
            raise ValueError("pairwise overlaps deviate from -1/(d-1)")
        if np.abs(np.diag(gram) - 1.0).max() > tol:
            raise ValueError("outcome vectors are not unit norm")
        steps = np.linalg.norm(_difference_matrix(self), axis=1)
        if np.abs(steps - math.sqrt(2.0 * d / (d - 1))).max() > tol:
            raise ValueError("cyclic step lengths deviate from sqrt(2d/(d-1))")


def basis_to_bloch(basis: np.ndarray) -> MeasurementBasisBloch:
    """Bloch vectors of an orthonormal basis, ``basis[x]`` the outcome-x state."""
    basis = np.asarray(basis, dtype=complex)
    d = basis.shape[0]
    if basis.shape != (d, d):
        raise ValueError(f"expected a (d, d) array of basis rows, got {basis.shape}")
    gram = basis @ basis.conj().T
    if np.abs(gram - np.eye(d)).max() > 1e-10:
        raise ValueError("input vectors are not an orthonormal basis")
    out = MeasurementBasisBloch(state_to_bloch(basis))
    out.validate()
    return out


@dataclass(frozen=True)
class LocalModel:
    """Crypto-nonlocal model parameters.

    ``u_mode`` selects the hidden-state distribution on Alice's side:
    "sphere-uniform" (all of S^{d^2-2}, including non-physical points) or
    "haar-pure" (Bloch vectors of Haar-random pure states).  The bound at
    one pinned direction needs no model: see `marginal_distribution`.
    """

    d: int
    eta: float = 1.0
    u_mode: str = "sphere-uniform"

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if self.u_mode not in U_MODES:
            raise ValueError(f"unknown u_mode {self.u_mode!r}")


@dataclass(frozen=True)
class BoundEstimate:
    """A bound value with Monte Carlo uncertainty (0 when analytic/exact)."""

    value: float
    std_error: float
    samples: int


def marginal_distribution(
    basis: MeasurementBasisBloch, u: np.ndarray, eta: float = 1.0
) -> tuple[np.ndarray, bool]:
    """All d outcome marginals ``[1 + eta (d-1) a^x . u] / d`` and validity.

    The flag is False when any outcome would receive a negative value at
    this ``u`` (possible for non-physical sphere points); values are
    reported unclamped either way.

    Consecutive marginals differ by ``p_x - p_{x-1} = eta (d-1)/d
    (a^x - a^{x-1}) . u``, so at a physical ``u`` the model bound L of that
    one direction is the shift distance
    ``statistical_distance(p, np.roll(p, 1))`` of ``p``.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    u = np.asarray(u, dtype=float).reshape(-1)
    d = basis.d
    values = (1.0 + eta * (d - 1) * (basis.vectors @ u)) / d
    return values, bool(values.min() >= -1e-12)


def _difference_matrix(basis: MeasurementBasisBloch) -> np.ndarray:
    # row x is a^x - a^{x-1}, index cyclic
    return basis.vectors - np.roll(basis.vectors, 1, axis=0)


def _mc_block_rows(macs_per_row: int) -> int:
    """Rows per Monte Carlo block: ``_MC_BLOCK`` multiply-adds, at least 64 rows.

    With fewer rows a block's product would stream its whole right-hand
    operand for a handful of samples.
    """
    return max(64, _MC_BLOCK // macs_per_row)


def _mc_workers(n_chunks: int) -> int:
    """Pool size for ``n_chunks`` seeded chunks: usable CPUs, at most one per chunk."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_chunks))


def leggett_bound_mc(
    basis: MeasurementBasisBloch,
    model: LocalModel,
    n_samples: int,
    seed: int,
) -> BoundEstimate:
    """Monte Carlo estimate of the model bound L for one measurement basis.

    Samples come in chunks of 65536.  ``seed`` is an integer (anything else,
    a Generator included, raises `TypeError`): chunk i reads the
    counter-based stream (seed, i), so the estimate depends only on the
    seed and the sample count.  The chunks run on a thread pool with one
    worker per CPU in the affinity mask, at most one per chunk (a single
    chunk runs in the calling thread).  The random draws release the
    interpreter lock, so the workers run in parallel.  Each chunk returns
    its sum and its sum of squared deviations from its own mean; these are
    kept in chunk order and combined with `math.fsum`, so neither the
    thread count nor the reduction order can move the estimate, and the
    standard error does not rest on a difference of two large sums of
    squares.

    Both modes work a chunk in blocks of ``max(64, 2**18 // c)`` rows,
    where c is the multiply-add count of one row's projection:
    (d^2 - 1) d for sphere-uniform and d^3 for Haar-pure.  Up to d = 16 a
    block's product has at most 2**18 multiply-adds, which OpenBLAS runs in
    the calling thread; from d = 17 up the 64-row floor binds, so that one
    pass over the block's right-hand operand serves 64 samples rather than
    a handful.

    Sphere-uniform blocks are drawn one `sample_sphere` call each.  Where
    the floor binds, a block's projection onto the d difference vectors is
    summed left to right over slices of ``2**18 // (64 d)`` coordinates,
    one product each, so every product still runs in the calling thread
    and the last bits do not depend on the BLAS thread count.  A block
    holds ``max(2 MiB / d, 512 (d^2 - 1) bytes)`` of draws (5 MB at
    d = 100), and a worker holds one block and its chunk's 512 KiB of
    per-sample values at a time.  Drawing a stream in blocks reads the same
    numbers as drawing it at once, except that a redraw of a row whose norm
    falls below 1e-12 (probability below 1e-30 per row) happens after that
    row's block rather than after the whole chunk.

    Haar-pure states are never mapped to Bloch vectors.  By the projection
    rule ``Tr(rho(a) |psi><psi|) = [1 + (d-1) a.u] / d`` each step is an
    expectation value,

        (a^x - a^{x-1}) . u = <psi| H_x |psi> ,
        H_x = d/(d-1) (rho(a^x) - rho(a^{x-1})) ,

    so the d Hermitian ``H_x`` are built once per call, stacked side by
    side as one (d, d^2) operator.  A block of states costs one
    (rows, d) x (d, d^2) complex product, which gives every ``H_x psi``,
    and one contraction with the conjugate states.  Where the floor binds,
    OpenBLAS may split that product over its threads; its inner dimension
    is only d, so each entry is still one unbroken sum, and the estimate at
    d = 20 reads the same bits under one and two BLAS threads (tested).
    Haar chunks are drawn whole, because `sample_haar_pure` draws all real
    parts of a chunk before all imaginary parts and drawing in blocks would
    change the stream.  A chunk peaks at about 35 d bytes per sample
    (tracemalloc: 13.7 MiB at d = 6, 41 MiB at d = 20); a block's products
    add at most ``max(4 MiB / d, 1 KiB d^2)``.
    """
    if model.d != basis.d:
        raise ValueError("model and basis dimensions differ")
    d = basis.d
    coef = model.eta * (d - 1) / d**2
    diffs = _difference_matrix(basis)
    # integers only: a float such as 70000.5 or a Generator raises TypeError
    n_samples = operator.index(n_samples)
    seed = operator.index(seed)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n_dim = d * d - 1
    haar = model.u_mode == "haar-pure"
    if haar:
        rho = bloch_to_density(basis.vectors)
        steps = d / (d - 1) * (rho - np.roll(rho, 1, axis=0))
        # column x d + r is row r of H_x, so psi @ stacked holds every H_x psi
        stacked = steps.reshape(d * d, d).T
        rows = _mc_block_rows(d**3)
    else:
        rows = _mc_block_rows(n_dim * d)
        # coordinates per product, so that each stays within _MC_BLOCK
        # multiply-adds: all of them unless the floor binds
        span = max(1, _MC_BLOCK // (rows * d))

    def block_values(gen, states, lo: int, k: int) -> np.ndarray:
        # a function, so that a block's arrays are freed before the next draw
        if haar:
            psi = states[lo : lo + k]
            w = (psi @ stacked).reshape(k, d, d)
            proj = np.einsum("ij,ixj->ix", psi.conj(), w).real
        else:
            u = sample_sphere(n_dim, gen, size=k)
            proj = u[:, :span] @ diffs[:, :span].T
            for c in range(span, n_dim, span):
                proj += u[:, c : c + span] @ diffs[:, c : c + span].T
        return coef * np.abs(proj).sum(axis=1)

    def chunk_sums(i: int) -> tuple[int, float, float]:
        m = min(_MC_CHUNK, n_samples - i * _MC_CHUNK)
        gen = substream(seed, i)
        states = sample_haar_pure(d, gen, size=m) if haar else None
        vals = np.empty(m)
        for lo in range(0, m, rows):
            k = min(rows, m - lo)
            vals[lo : lo + k] = block_values(gen, states, lo, k)
        total = float(vals.sum())
        vals -= total / m  # deviations from the chunk mean
        # einsum's own loop, not BLAS: np.dot splits long vectors over
        # OpenBLAS threads, so its last bits would depend on their count
        return m, total, float(np.einsum("i,i->", vals, vals))

    n_chunks = -(-n_samples // _MC_CHUNK)
    workers = _mc_workers(n_chunks)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            sums = list(pool.map(chunk_sums, range(n_chunks)))
    else:
        sums = [chunk_sums(i) for i in range(n_chunks)]

    mean = math.fsum(s for _, s, _ in sums) / n_samples
    if n_samples > 1:
        # squared deviations within chunks plus those of the chunk means
        # (Chan, Golub & LeVeque), so no two large sums of squares cancel
        dev_sq = math.fsum(q + m * (s / m - mean) ** 2 for m, s, q in sums)
        stderr = math.sqrt(dev_sq / (n_samples - 1) / n_samples)
    else:
        stderr = 0.0
    return BoundEstimate(value=mean, std_error=stderr, samples=n_samples)


def leggett_bound_analytic(d: int, eta: float = 1.0) -> BoundEstimate:
    """Exact isotropic average of L for sphere-uniform hidden states.

    Every cyclic step has length sqrt(2d/(d-1)) and the isotropic mean of
    ``|w . u|`` is ``|w| kappa_{d^2-1}``, so
    ``L = eta (d-1)/d^2 * d sqrt(2d/(d-1)) * kappa_{d^2-1}``.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    value = (
        eta
        * (d - 1)
        / d**2
        * d
        * math.sqrt(2.0 * d / (d - 1))
        * expected_abs_projection(d * d - 1)
    )
    return BoundEstimate(value=value, std_error=0.0, samples=0)


def leggett_bound_floor(d: int, eta: float = 1.0) -> float:
    """Explicit lower bound ``eta 2(d-1)/d^3`` of L under uniform hidden states."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    return eta * 2.0 * (d - 1) / d**3


class CriticalNotFoundError(ValueError):
    """No violation found below n_max; ``gap`` is I_{n_max} minus the bound."""

    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = gap


def find_critical_n(d: int, eta: float = 1.0, n_max: int = 1000) -> int:
    """Smallest N with exact I_N strictly below the uniform-sphere floor.

    Uses the exact quantum value, not its large-N approximation: near the
    threshold the two disagree about the crossing point.  Equality counts
    as no violation.

    The search bisects [1, n_max].  It relies on I_N being strictly
    decreasing in N, which holds for the exact value and for the float
    ``cglmp_chained_value`` over the range a scan could cover (checked for
    d = 2..24 up to N = 20 000, and up to N = 120 000 at d = 2, 3, 5, 10,
    24), so the result equals that of a scan from N = 1.  I_{n_max} is
    evaluated first; if it is not below the floor, `CriticalNotFoundError`
    carries ``gap = I_{n_max} - bound``.  The cost is at most
    ceil(log2 n_max) + 1 evaluations of I_N, so d up to ~100 is cheap
    (N_crit = 830 693 at d = 100, eta = 0.5).  At large N the float I_N
    loses low bits of the phase 1/(2N) and stops decreasing strictly: in
    samples of 1000 consecutive N the first non-decreasing steps appear
    near N = 5e6 at d = 100, 1e7 at d = 24 and 3e7 at d = 5.  A crossing
    in that range is not guaranteed to be the first one.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    # integer limits only: a float such as 100.5 raises TypeError
    n_max = operator.index(n_max)
    bound = leggett_bound_floor(d, eta)
    value = cglmp_chained_value(d, n_max)
    if value >= bound:
        raise CriticalNotFoundError(
            f"no violation for d={d}, eta={eta} up to N={n_max}; "
            f"gap I_N - bound = {value - bound:.6g}",
            gap=value - bound,
        )
    # invariant: I_lo >= bound (I_0 taken as +inf) and I_hi < bound
    lo, hi = 0, n_max
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cglmp_chained_value(d, mid) < bound:
            hi = mid
        else:
            lo = mid
    return hi


class ConstructionError(RuntimeError):
    """Orthogonal measurement-family construction failed."""


@dataclass(frozen=True, eq=False)
class MeasurementFamily:
    """One chained measurement set plus its Bloch-space footprint.

    ``span`` holds an orthonormal basis (rows) of the family's difference
    vectors {a^x - a^{x-1}}; ``new_directions`` the subspace this family
    adds beyond the families before it.  The ``new_directions`` blocks of a
    family list are mutually orthogonal and jointly span the union of the
    spans, so a hidden vector orthogonal to all of them is orthogonal to
    every family.
    """

    index: int
    unitary: np.ndarray
    alice: np.ndarray  # (N, d, d) basis rows per setting
    bob: np.ndarray
    span: np.ndarray
    new_directions: np.ndarray


def _orthonormal_rows(vectors: np.ndarray, tol: float = _SPAN_TOL) -> np.ndarray:
    if vectors.size == 0:
        return np.zeros((0, vectors.shape[1]))
    _, sv, vt = np.linalg.svd(vectors, full_matrices=False)
    rank = int(np.sum(sv > tol))
    return vt[:rank]


def _family_difference_vectors(alice: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [_difference_matrix(basis_to_bloch(basis)) for basis in alice], axis=0
    )


def multi_plane_families(
    settings: ChainedSettings, k: int, seed: int = 2025
) -> list[MeasurementFamily]:
    """k copies of the chained measurement set with orthogonal new content.

    Family 1 is the input.  Each further family conjugates Alice's bases by
    a unitary and Bob's by its complex conjugate, which leaves the joint
    distribution on the maximally entangled state (hence I_N) unchanged.
    Unitaries are drawn from seeded counter-based streams and accepted only
    if the family's difference span adds at least one direction orthogonal
    to everything accumulated so far, until the Bloch space is exhausted;
    after exhaustion further families carry an empty ``new_directions``
    block (no escape direction survives anyway).
    """
    d = settings.d
    if not 1 <= k <= d * d - 2:
        raise ValueError(f"k must lie in 1..{d * d - 2} for d={d}")
    base_alice, base_bob = cglmp_bases(settings)
    full_dim = d * d - 1

    span1 = _orthonormal_rows(_family_difference_vectors(base_alice))
    families = [
        MeasurementFamily(
            index=1,
            unitary=np.eye(d, dtype=complex),
            alice=base_alice,
            bob=base_bob,
            span=span1,
            new_directions=span1,
        )
    ]
    accumulated = span1

    for t in range(2, k + 1):
        chosen = None
        for attempt in range(64):
            gen = substream(seed, t * 1000 + attempt)
            u_t = haar_unitary(d, gen)
            alice = np.einsum("ij,axj->axi", u_t, base_alice)
            bob = np.einsum("ij,axj->axi", u_t.conj(), base_bob)
            diffs = _family_difference_vectors(alice)
            span = _orthonormal_rows(diffs)
            residual = diffs - (diffs @ accumulated.T) @ accumulated
            new_dirs = _orthonormal_rows(residual)
            if new_dirs.shape[0] > 0 or accumulated.shape[0] >= full_dim:
                chosen = (u_t, alice, bob, span, new_dirs)
                break
        if chosen is None:
            raise ConstructionError(
                f"no conjugation with orthogonal new content found for family {t}"
            )
        u_t, alice, bob, span, new_dirs = chosen
        accumulated = np.concatenate([accumulated, new_dirs], axis=0)
        families.append(
            MeasurementFamily(
                index=t,
                unitary=u_t,
                alice=alice,
                bob=bob,
                span=span,
                new_directions=new_dirs,
            )
        )

    for i, fam_i in enumerate(families):
        for fam_j in families[i + 1 :]:
            if fam_i.new_directions.size and fam_j.new_directions.size:
                res = np.abs(fam_i.new_directions @ fam_j.new_directions.T).max()
                if res > _SPAN_TOL:
                    raise ConstructionError(
                        f"descriptor orthogonality residual {res} above {_SPAN_TOL}"
                    )
    return families


@dataclass(frozen=True)
class FamilyProjection:
    index: int
    projection: float
    escape_possible: bool


def escape_report(
    u: np.ndarray, families: list[MeasurementFamily]
) -> list[FamilyProjection]:
    """Projection of a fixed hidden vector onto each family's difference span.

    A family is flagged when the projection falls below 1e-9: for that
    family alone, ``u`` is an escape direction and L vanishes.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    if abs(np.linalg.norm(u) - 1.0) > 1e-12:
        raise ValueError("u must be unit norm")
    out = []
    for fam in families:
        proj = float(np.linalg.norm(fam.span @ u)) if fam.span.size else 0.0
        out.append(
            FamilyProjection(
                index=fam.index, projection=proj, escape_possible=proj < _SPAN_TOL
            )
        )
    return out
