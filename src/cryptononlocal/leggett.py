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
vanish ("escape direction").  `mub_families` counters this with d + 1
copies of the measurement set, conjugated by unitaries (compensated on the
other side, so I_N is unchanged) that take Alice's setting-1 basis to each
basis of a complete set of mutually unbiased bases.  Their setting-1 spans
are mutually orthogonal by theorem and fill the Bloch space, so no hidden
vector escapes every family; prime d only.  `escape_report` measures the
projection of a fixed u onto each family's span.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import bloch
from .bloch import (
    _TASK_PRODUCT,
    _as_array,
    _bloch_coords,
    _integer,
    _normal_rows,
    expected_abs_projection,
    substream,
)
from .quantum import (
    ChainedSettings,
    _chained_values,
    _check_bases,
    cglmp_bases,
    gamma_factor,
)

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
    "mub_families",
    "FamilyProjection",
    "escape_report",
]

_MC_CHUNK = 1 << 16
_SPAN_TOL = 1e-9
# Interior points per round of `find_critical_n`, evaluated in one pass.
# Against 8 and 32, 16 gave the fastest search at d <= 24.
_ROUND = 16


@dataclass(frozen=True, eq=False)
class MeasurementBasisBloch:
    """One projective measurement: its outcome states, one row per outcome,
    and their Bloch vectors.

    Construction is the one check of every basis, `quantum._check_bases`:
    ``states`` must be a (d, d) array of numbers (strings and booleans are
    refused by the one array check), d >= 2, finite, whose rows are
    orthonormal to ``PROB_TOL`` (1e-12), the tolerance `joint_from_bases`
    checks too.  The Bloch vectors then have unit norm, sum to zero and
    overlap pairwise by -1/(d-1), so every cyclic step ``|a^x - a^{x-1}|``
    is sqrt(2d/(d-1)).  Both arrays are the basis's own, read-only copies.
    """

    states: np.ndarray  # shape (d, d), row x the outcome-x state
    vectors: np.ndarray = field(init=False)  # shape (d, d**2 - 1)

    def __post_init__(self) -> None:
        # a copy, so that no later write to the caller's array parts the
        # states from their vectors
        states = _check_bases(self.states, "basis", 2).copy()
        vectors = _bloch_coords(states)
        for name, value in (("states", states), ("vectors", vectors)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def d(self) -> int:
        return self.states.shape[0]


def _purity(eta) -> float:
    """``eta`` itself, if it lies in (0, 1]; anything but a real number, a
    bool included, raises `TypeError`."""
    # a float, the common case, skips the isinstance calls
    if type(eta) is not float and (isinstance(eta, bool) or not isinstance(eta, numbers.Real)):
        raise TypeError(f"eta={eta!r} is not a number")
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    return eta


def _hidden_vector(u, d: int, unit: bool = False) -> np.ndarray:
    """``u`` as a float array by the one array check, refused unless it is
    one-dimensional with d**2 - 1 finite coordinates and, when ``unit``,
    has unit norm (a NaN norm fails too)."""
    u = _as_array(u, "u")
    if u.ndim != 1:
        raise ValueError(f"u must be one-dimensional, got shape {u.shape}")
    if unit and not abs(np.linalg.norm(u) - 1.0) <= 1e-12:
        raise ValueError("u must be unit norm")
    if u.size != d * d - 1:
        raise ValueError(f"u has {u.size} coordinates, expected d**2 - 1 = {d * d - 1}")
    if not np.isfinite(u).all():
        raise ValueError("u has a non-finite entry")
    return u


def _measurement(basis) -> MeasurementBasisBloch:
    """``basis`` itself; anything but a `MeasurementBasisBloch` raises `TypeError`."""
    if not isinstance(basis, MeasurementBasisBloch):
        raise TypeError(
            f"basis is a {type(basis).__name__}, not a MeasurementBasisBloch: "
            "map the basis array with basis_to_bloch first"
        )
    return basis


def basis_to_bloch(basis: np.ndarray) -> MeasurementBasisBloch:
    """The measurement of an orthonormal basis, ``basis[x]`` the outcome-x state."""
    return MeasurementBasisBloch(basis)


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
        object.__setattr__(self, "d", _integer("d", self.d, 2))
        _purity(self.eta)
        if self.u_mode not in U_MODES:
            raise ValueError(f"unknown u_mode {self.u_mode!r}; known: {', '.join(U_MODES)}")


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
    reported unclamped either way.  ``u`` goes through the one array check
    (strings, booleans and complex entries are refused); one that is not
    one-dimensional, without d**2 - 1 coordinates or with a non-finite one
    raises `ValueError`.  A ``basis`` that is not a `MeasurementBasisBloch`,
    such as a raw basis array, raises `TypeError`.

    Consecutive marginals differ by ``p_x - p_{x-1} = eta (d-1)/d
    (a^x - a^{x-1}) . u``, so at a physical ``u`` the model bound L of that
    one direction is the shift distance
    ``statistical_distance(p, np.roll(p, 1))`` of ``p``.
    """
    d, eta = _measurement(basis).d, _purity(eta)
    u = _hidden_vector(u, d)
    values = (1.0 + eta * (d - 1) * (basis.vectors @ u)) / d
    return values, bool(values.min() >= -1e-12)


def _difference_matrix(basis: MeasurementBasisBloch) -> np.ndarray:
    # row x is a^x - a^{x-1}, index cyclic
    return basis.vectors - np.roll(basis.vectors, 1, axis=0)


def _mc_block_rows(macs_per_row: int) -> int:
    """Rows per Monte Carlo block: ``_TASK_PRODUCT`` multiply-adds, at least 64 rows.

    With fewer rows a block's product would stream its whole right-hand
    operand for a handful of samples.
    """
    return max(64, _TASK_PRODUCT // macs_per_row)


def _carve(buf: np.ndarray, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Consecutive C-contiguous views of the flat ``buf``, one per shape."""
    views, lo = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buf[lo : lo + size].reshape(shape))
        lo += size
    return views


def _mc_estimate(kernel, n_samples: int, seed: int) -> tuple[float, float]:
    """Mean and standard error of ``n_samples`` values, 65536 to a chunk.

    ``kernel`` is a law's ``(rows, new_block_values)``.  Chunk i of m
    samples reads the stream ``gen = substream(seed, i)`` in blocks of
    ``rows`` samples (the last one shorter): it calls
    ``block_values = new_block_values(min(rows, m))`` once, and then, for
    each block of k samples, ``block_values(gen, k, out)``, which writes the
    block's values into its slice ``out`` of the chunk's values.  So the
    estimate depends only on the seed and the sample count.  Each chunk owns
    the one buffer that ``new_block_values`` allocates for all of its
    blocks: no buffer is shared between threads or kept after the chunk
    returns, and the draws are those of allocating calls.  One allocation,
    not one per array: glibc raises its mmap threshold to the largest mapped
    block it frees and trims the heap only above twice that, so a chunk-sized
    buffer stays mapped between calls, where a block's many smaller arrays
    were handed back to the OS and page-faulted in again.  A Haar-pure call
    of 8192 samples took 192/256/295/462 minor page faults at d = 3/4/5/6
    with arrays allocated per block, and none with one buffer
    (``getrusage``); a 65536-sample chunk at d = 6 took 4158 and none, and
    25.5-27.9 against 17.4-18.6 ms (medians of 15 calls in each of three
    alternations, ``OPENBLAS_NUM_THREADS=1``, 2-core VM).  The chunks are the
    tasks of `bloch._run_tasks`, the package's one thread pool: one worker
    per CPU in the affinity mask, the calling thread one of them, at most
    one per chunk, so a single chunk runs in the calling thread alone.  Each
    block product stays within ``bloch._TASK_PRODUCT`` (2**18) multiply-adds
    where the kernel's row floor allows, so OpenBLAS runs it in the worker's
    thread.  Each chunk's sum and sum of squared deviations from its own
    mean come back in chunk order and are combined by `math.fsum`, so
    neither the thread count nor the reduction order can move the estimate.
    """
    rows, new_block_values = kernel

    def chunk_sums(i: int) -> tuple[int, float, float]:
        m = min(_MC_CHUNK, n_samples - i * _MC_CHUNK)
        gen = substream(seed, i)
        vals = np.empty(m)
        block_values = new_block_values(min(rows, m))
        for lo in range(0, m, rows):
            k = min(rows, m - lo)
            block_values(gen, k, vals[lo : lo + k])
        total = float(vals.sum())
        vals -= total / m  # deviations from the chunk mean
        # einsum's own loop, not BLAS: np.dot splits long vectors over
        # OpenBLAS threads, so its last bits would depend on their count
        return m, total, float(np.einsum("i,i->", vals, vals))

    # through the module: a tracer that wraps each name one layer imports
    # from another would count the chunks' own work as bloch's
    sums = bloch._run_tasks(chunk_sums, -(-n_samples // _MC_CHUNK))

    mean = math.fsum(s for _, s, _ in sums) / n_samples
    # squared deviations within chunks plus those of the chunk means
    # (Chan, Golub & LeVeque), so no two large sums of squares cancel
    dev_sq = math.fsum(q + m * (s / m - mean) ** 2 for m, s, q in sums)
    return mean, math.sqrt(dev_sq / (n_samples - 1) / n_samples) if n_samples > 1 else 0.0


def _sphere_chunk_values(basis: MeasurementBasisBloch, eta: float):
    """``(rows, new_block_values)`` of sphere-uniform hidden states, for `_mc_estimate`.

    A block of ``rows = _mc_block_rows((d^2 - 1) d)`` samples is one
    `_normal_rows` call (the draws of `sample_sphere`) left unnormalized:
    a row x's value is homogeneous of degree 1 in u = x/|x| (Muller), so it
    is divided once by |x|.  From d = 17 up, where the 64-row floor binds, a
    block's projection is summed left to right over slices of
    ``2**18 // (64 d)`` coordinates, so no product is split over BLAS threads.
    ``new_block_values(r)`` makes the chunk's one ``np.empty`` of
    ``r (d^2 + 2d)`` floats, and each block of k samples fills C-contiguous
    views of its first ``k (d^2 + 2d)`` in place (the draws, the
    projections, one slice's product and the norms) and writes its values
    into ``out``.  A worker holds that buffer, about
    ``max(2 MiB / d, 512 (d^2 + 2d) bytes)`` (5.2 MB at d = 100), and its
    chunk's 512 KiB of values (tracemalloc of one chunk: 0.97 MiB at d = 6,
    0.71 at d = 12, 15.3 at d = 100, set there by the difference matrix;
    0.96, 0.71 and 15.3 with arrays allocated per block).  Drawing in
    blocks reads the stream as one draw per chunk would, except that the
    redraw of a row of norm below 1e-12 (probability below 1e-30 per row)
    follows its block, not its chunk.
    """
    d = basis.d
    coef = eta * (d - 1) / d**2
    n_dim = d * d - 1
    diffs = _difference_matrix(basis)
    rows = _mc_block_rows(n_dim * d)
    # coordinates per product, within _TASK_PRODUCT multiply-adds: all unless the floor binds
    span = max(1, _TASK_PRODUCT // (rows * d))

    def new_block_values(max_rows: int):
        buf = np.empty(max_rows * (n_dim + 2 * d + 1))

        def block_values(gen, k: int, out: np.ndarray) -> None:
            x, proj, part, norm = _carve(buf, (k, n_dim), (k, d), (k, d), (k,))
            _normal_rows(gen, k, n_dim, out=[x])
            np.matmul(x[:, :span], diffs[:, :span].T, out=proj)
            for c in range(span, n_dim, span):
                proj += np.matmul(x[:, c : c + span], diffs[:, c : c + span].T, out=part)
            np.abs(proj, out=proj)
            np.sum(proj, axis=1, out=out)
            out *= coef
            out /= np.sqrt(np.einsum("ij,ij->i", x, x, out=norm), out=norm)

        return block_values

    return rows, new_block_values


def _haar_chunk_values(basis: MeasurementBasisBloch, eta: float):
    """``(rows, new_block_values)`` of Haar-pure hidden states, for `_mc_estimate`.

    A sample is a raw complex Gaussian row z, held as its real and imaginary
    parts, never normalized or mapped to a Bloch vector.  By the projection
    rule ``Tr(rho(a) rho(u)) = [1 + (d-1) a.u] / d`` each step
    ``(a^x - a^{x-1}) . u`` is ``d/(d-1) (p_x - p_{x-1})`` with
    ``p_x = |<a_x|z>|^2 / |z|^2`` (a_x the rows of ``basis.states``): a
    sample's value ``eta/d sum_x |p_x - p_{x-1}|`` is taken over unnormalized
    squared moduli and divided once by ``|z|^2``.  A block of
    ``rows = _mc_block_rows(2 d^2)`` samples is one `_normal_rows` call of
    two parts, so its draws are those of `sample_haar_pure` with
    ``size=rows``, and costs two real (2d, d) x (d, rows) products, whose
    sum holds Re and Im of every ``<a_x|z>``.  From d = 46 up, where the
    64-row floor binds, OpenBLAS may split a product over its threads, but
    each entry is still one unbroken sum of d terms (tested at d = 51).
    ``new_block_values(r)`` makes the chunk's one ``np.empty`` of
    ``r (6d + 1)`` floats, and each block of k samples fills C-contiguous
    views of its first ``k (6d + 1)`` in place (the two draws, the two
    products, ``|z|^2``) and writes its values into ``out``; the step
    ``q_x - q_{x-1}`` is two subtractions into the first product's rows.  A
    worker holds that buffer, about 6 MiB / d above the floor, and its
    chunk's 512 KiB of values, within 512 KiB + 8 MiB / d (tracemalloc of
    one chunk: 1.56 MiB at d = 6, 0.82 at d = 20, 1.11 at d = 100; 1.54,
    0.83 and 1.14 with arrays allocated per block).  A call of 8192 samples
    at d = 6 took 1.93 ms at best of 400 against 2.71 ms with arrays
    allocated per block.
    """
    d = basis.d
    coef = eta / d
    a = basis.states
    # row x of w_re @ re.T + w_im @ im.T is Re <a_x|z>, row d + x Im <a_x|z>
    w_re = np.concatenate([a.real, -a.imag])
    w_im = np.concatenate([a.imag, a.real])

    def new_block_values(max_rows: int):
        buf = np.empty(max_rows * (6 * d + 1))

        def block_values(gen, k: int, out: np.ndarray) -> None:
            re, im, amp, part, sq = _carve(buf, (k, d), (k, d), (2 * d, k), (2 * d, k), (k,))
            _normal_rows(gen, k, d, parts=2, out=[re, im])
            # |z|^2; part is free until it takes the second product
            np.einsum("ij,ij->i", re, re, out=sq)
            sq += np.einsum("ij,ij->i", im, im, out=part[0])
            # one column per sample, so every elementwise pass runs along rows of length k
            np.matmul(w_re, re.T, out=amp)
            amp += np.matmul(w_im, im.T, out=part)
            amp *= amp
            q = np.add(amp[:d], amp[d:], out=part[:d])  # |<a_x|z>|^2
            step = amp[:d]  # q_x - q_{x-1}, x cyclic
            np.subtract(q[1:], q[:-1], out=step[1:])
            np.subtract(q[0], q[-1], out=step[0])
            np.abs(step, out=step)
            np.sum(step, axis=0, out=out)
            out *= coef
            out /= sq

        return block_values

    return _mc_block_rows(2 * d * d), new_block_values


# the Monte Carlo kernel of each hidden-state law, by `LocalModel.u_mode`
_MC_KERNELS = {"sphere-uniform": _sphere_chunk_values, "haar-pure": _haar_chunk_values}
U_MODES = tuple(_MC_KERNELS)


def leggett_bound_mc(
    basis: MeasurementBasisBloch, model: LocalModel, n_samples: int, seed: int
) -> BoundEstimate:
    """Monte Carlo estimate of the model bound L for one measurement basis.

    ``n_samples`` (at least 1) and ``seed`` are integers: a float such as
    70000.5, a bool or a Generator raises `TypeError`, as for every integer
    argument of the package.  A ``basis`` that is not a
    `MeasurementBasisBloch`, such as a raw basis array, raises `TypeError`.
    The kernel of the hidden-state law ``model.u_mode`` gives the values of
    each row block of seeded chunks of 65536 samples, run by `_mc_estimate`:
    the estimate depends only on the seed and the sample count, not on the
    thread or BLAS thread count.
    """
    if model.d != _measurement(basis).d:
        raise ValueError("model and basis dimensions differ")
    n_samples = _integer("n_samples", n_samples, 1)
    seed = _integer("seed", seed)
    kernel = _MC_KERNELS[model.u_mode](basis, model.eta)
    mean, stderr = _mc_estimate(kernel, n_samples, seed)
    return BoundEstimate(value=mean, std_error=stderr, samples=n_samples)


def leggett_bound_analytic(d: int, eta: float = 1.0) -> BoundEstimate:
    """Exact isotropic average of L for sphere-uniform hidden states.

    Every cyclic step has length sqrt(2d/(d-1)) and the isotropic mean of
    ``|w . u|`` is ``|w| kappa_{d^2-1}``, so
    ``L = eta (d-1)/d^2 * d sqrt(2d/(d-1)) * kappa_{d^2-1}``.
    """
    d, eta = _integer("d", d, 2), _purity(eta)
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
    d, eta = _integer("d", d, 2), _purity(eta)
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
    as no violation.  ``d`` and ``n_max`` are integers; a float such as
    100.5 raises `TypeError` before any range check, an ``n_max`` below 2
    `ValueError`.

    The first numpy pass evaluates I_{n_max} together with the 15
    consecutive N from floor(2 gamma/L) - 6 to floor(2 gamma/L) + 8 (clamped
    into [1, n_max - 1]), where L is the floor and gamma is `gamma_factor`:
    since ``N I_N = 2 gamma + c2/N + ...`` with 0 <= c2/(2 gamma) < 0.73
    for d <= 100, N_crit sits just above 2 gamma/L (by 0.07 to 1.70 over
    d = 2..100 and eta = 0.1, 0.5, 0.7, 0.9, 1.0, wherever N_crit <= 1e6).
    If I_{n_max} is not below the floor, `CriticalNotFoundError` carries
    ``gap = I_{n_max} - bound``.  The search keeps an interval (lo, hi]
    with I_lo >= bound (I_0 taken as +inf) and I_hi < bound, and after
    each pass moves to the gap where the values first fall below the
    bound.  Wherever the float I_N decreases strictly, the window holds the
    crossing and that one pass is the whole search (~20-50 us at d <= 100,
    2-core VM).  Otherwise later passes evaluate up to 16 evenly spaced
    interior points of the interval each; a gap of at most 17 has all its
    interior points evaluated, so the result is exact, and there are at
    most ceil(log17 n_max) + 1 passes in all, as before the window.

    The search relies on I_N being strictly decreasing in N, which holds
    for the exact value and for the float I_N over the range a scan could
    cover (checked for d = 2..24 up to N = 20 000, and up to N = 120 000
    at d = 2, 3, 5, 10, 24), so the result equals that of a scan from
    N = 1.  At large N the float I_N loses low bits of the phase 1/(2N)
    and stops decreasing strictly: in samples of 1000 consecutive N the
    first non-decreasing steps appear near N = 5e6 at d = 100, 1e7 at
    d = 24 and 3e7 at d = 5.  A crossing in that range is not guaranteed
    to be the first one.
    """
    n_max = _integer("n_max", n_max, 2)
    d = _integer("d", d, 2)
    bound = leggett_bound_floor(d, eta)
    # N I_N = 2 gamma + c2/N + ..., so the crossing lies just above 2 gamma/L
    # (at 0.0, where the floor underflowed, I_{n_max} decides alone)
    guess = int(min(2.0 * gamma_factor(d) / bound, n_max)) if bound else n_max
    grid = list(range(max(guess - 6, 1), min(guess + 9, n_max)))
    values = _chained_values(d, grid + [n_max])
    value = float(values[-1])
    if value >= bound:
        raise CriticalNotFoundError(
            f"no violation for d={d}, eta={eta} up to N={n_max}; "
            f"gap I_N - bound = {value - bound:.6g}",
            gap=value - bound,
        )
    # invariant: I_lo >= bound (I_0 taken as +inf) and I_hi < bound
    lo, hi = 0, n_max
    while True:
        below = values[: len(grid)] < bound
        first = int(below.argmax()) if below.any() else len(grid)
        lo, hi = ([lo] + grid)[first], (grid + [hi])[first]
        if hi - lo <= 1:
            return hi
        width = hi - lo
        if width <= _ROUND + 1:
            grid = list(range(lo + 1, hi))
        else:
            grid = [lo + width * j // (_ROUND + 1) for j in range(1, _ROUND + 1)]
        values = _chained_values(d, grid)


@dataclass(frozen=True, eq=False)
class MeasurementFamily:
    """One conjugated copy of the chained measurement set; ``span`` holds an
    orthonormal basis (rows) of the difference vectors {a^x - a^{x-1}} of
    all N Alice settings."""

    alice: np.ndarray  # (N, d, d) basis rows per setting
    bob: np.ndarray
    span: np.ndarray


def _mub_bases(d: int) -> np.ndarray:
    """A complete set of d + 1 mutually unbiased bases for prime d.

    Returns shape (d + 1, d, d); row x of basis k is its outcome-x state, and
    ``|<m_a|m_b>|^2 = 1/d`` for states of two different bases (Ivanovic,
    J. Phys. A 14, 3241 (1981); Wootters & Fields, Ann. Phys. 191, 363
    (1989)).  At d = 2 the bases are the eigenbases of Z, X and Y.  At odd
    prime d they are the computational basis and, for k = 0..d-1,
    ``sum_j omega^(k j^2 + x j) |j> / sqrt(d)`` with ``omega = exp(2 pi i/d)``.
    Any other d >= 2 raises `ValueError`: prime powers need arithmetic over
    GF(p^m), and no complete set is known at d = 6.
    """
    if any(d % p == 0 for p in range(2, math.isqrt(d) + 1)):
        raise ValueError(f"d={d} is not prime: complete MUB sets are built for prime d only")
    k, x, j = np.ogrid[:d, :d, :d]
    # phases in units of pi/d, reduced mod 2d in integers so that each is one
    # exact exp: omega^(k j^2 + x j) at odd d, i^(k j^2) (-1)^(x j) at d = 2
    c = 1 if d == 2 else 2
    turns = (c * k * j * j + 2 * x * j) % (2 * d)
    fourier = np.exp(1j * np.pi / d * turns) / math.sqrt(d)
    return np.concatenate([np.eye(d, dtype=complex)[None], fourier])


def mub_families(settings: ChainedSettings) -> list[MeasurementFamily]:
    """d + 1 copies of the chained measurement set, one per mutually unbiased basis.

    With basis states as columns, family k conjugates Alice's bases by
    ``U_k = M_k F_1^dagger`` and Bob's by its complex conjugate, where M_k is
    the k-th mutually unbiased basis (the computational basis first) and F_1
    is Alice's setting-1 basis.  As ``(U x conj(U)) |Phi> = |Phi>`` on the
    maximally entangled state, every family keeps the joint distribution,
    hence the I_N, of the input, and setting 1 of family k is M_k itself.

    By the projection rule, unbiased states have orthogonal Bloch vectors, so
    the setting-1 spans of the d + 1 families (d - 1 dimensions each) are
    mutually orthogonal and fill all d^2 - 1: no unit hidden vector u is
    orthogonal to every family.  A d that is not prime raises `ValueError`.
    """
    alice, bob = cglmp_bases(settings)
    families = []
    for mub in _mub_bases(settings.d):
        # with rows as states, conjugating by U_k multiplies on the right by
        # v = F_1^dagger M_k, which takes setting 1 to F_1 v = M_k
        v = alice[0].conj().T @ mub
        fam_alice = alice @ v
        # conjugates of orthonormal bases, not checked again; row (A, x) is a^x - a^{x-1}
        vectors = _bloch_coords(fam_alice)
        diffs = (vectors - np.roll(vectors, 1, axis=1)).reshape(-1, vectors.shape[-1])
        _, sv, vt = np.linalg.svd(diffs, full_matrices=False)
        span = vt[sv > _SPAN_TOL]  # orthonormal rows, by decreasing singular value
        families.append(
            MeasurementFamily(alice=fam_alice, bob=bob @ v.conj(), span=span)
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
    family alone, ``u`` is an escape direction and L vanishes.  Each entry's
    ``index`` is the family's 1-based position in ``families``.  A ``u``
    that is not a unit vector of d**2 - 1 coordinates, or an empty
    ``families``, raises `ValueError`.

    A family's span covers the difference vectors of all its N settings,
    while `demos/escape_directions.py` bounds L at setting 1 alone.  Both
    are sound, because the shift lemma ``Delta(P_X, P_{X+1}) <= I_N`` holds
    at every setting (`verify_shift_bound` checks each one).
    """
    if not families:
        raise ValueError("families is empty")
    u = _hidden_vector(u, families[0].alice.shape[1], unit=True)
    projections = [float(np.linalg.norm(fam.span @ u)) for fam in families]
    return [
        FamilyProjection(index=index, projection=proj, escape_possible=proj < _SPAN_TOL)
        for index, proj in enumerate(projections, start=1)
    ]
