"""Generalized Bloch-sphere machinery for d-level systems.

A traceless Hermitian operator basis ``L_1 .. L_{d^2-1}`` with
``Tr(L_i L_j) = 2 delta_ij`` turns density matrices into real coordinate
vectors.  The normalization used throughout this package is

    rho(u) = I/d + sqrt((d-1)/(2d)) * sum_i u_i L_i ,

the unique scaling under which pure states have unit-norm coordinates and
the overlap of two pure states is the projection rule

    Tr(rho(a) rho(u)) = [1 + (d-1) a.u] / d .

The basis is the generalized Gell-Mann set.  For each pair j < k the
symmetric ``|j><k| + |k><j|`` and antisymmetric ``-i|j><k| + i|k><j|``,
and for l = 1..d-1 the diagonal
``sqrt(2/(l(l+1))) (sum_{a<l} |a><a| - l |l><l|)``.  Its ordering is fixed
and relied upon elsewhere: symmetric pairs first, then antisymmetric
pairs, then diagonals.  Both pair blocks run over the pairs in the order
of ``np.tril_indices(d, -1)``, by the larger index k first, then j:
(k, j) = (1, 0), (2, 0), (2, 1), (3, 0), ...  For d=2 this is exactly
(sigma_x, sigma_y, sigma_z), so the computational state |0> has
coordinates (0, 0, 1).  No basis matrix is ever built: `state_to_bloch`
and `bloch_to_density` apply these entries as index formulas, O(d^2) per
state.

Randomness is counter-based: ``substream(seed, index)`` builds independent
Philox generators, so concurrent consumers draw from disjoint streams
without sharing mutable state, and results depend only on (seed, index).
`_run_tasks` is the package's one thread pool, shared by the Monte Carlo
chunks and the Born-rule tensor.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import threading

import numpy as np

__all__ = [
    "state_to_bloch",
    "bloch_to_density",
    "expected_abs_projection",
    "substream",
    "sample_sphere",
    "sample_haar_pure",
]

# Multiply-adds per matrix product of a `_run_tasks` task.  OpenBLAS runs a
# gemm of at most 2**18 of them in the calling thread (its default
# GEMM_MULTITHREAD_THRESHOLD 4 x 65536); a threaded gemm leaves BLAS workers
# spinning on the cores the pool's workers need.
_TASK_PRODUCT = 1 << 18


def _run_tasks(task, n_tasks: int) -> list:
    """``[task(i) for i in range(n_tasks)]``, the package's one thread pool.

    The tasks run on one worker per CPU in the affinity mask, at most one
    per task: the calling thread and a pool of the others, each taking the
    next task left until none is.  With one task or one CPU they run in the
    calling thread and no pool is made.  Tasks must not share a buffer they
    write, and should hold each matrix product within ``_TASK_PRODUCT``
    multiply-adds, so that OpenBLAS runs it in the worker's own thread;
    numpy and the random draws release the interpreter lock.  The results
    come back in task order, so a caller that combines them in that order
    gets the same bits for any worker count.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, n_tasks)
    if workers < 2:
        return [task(i) for i in range(n_tasks)]
    from concurrent.futures import ThreadPoolExecutor

    results = [None] * n_tasks
    todo = iter(range(n_tasks))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            results[i] = task(i)

    # the calling thread works too: against a pool of one thread per CPU it
    # saves a thread's start and memory, and at (d, N) = (8, 200) the Born
    # tensor took 9.2 ms against 11.6, and 13.3 in the calling thread alone
    # (medians of 60 calls, OPENBLAS_NUM_THREADS=1, 2-core VM)
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(work) for _ in range(workers - 1)]
        work()
        for helper in helpers:
            helper.result()
    return results


def _integer(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as a Python int, the one check of every integer argument.

    A bool, a numpy bool or anything without ``__index__`` (a float such as
    2.0, a string) raises `TypeError`; a value below ``lo``, or outside
    ``lo..hi`` when ``hi`` is given, raises `ValueError`.
    """
    if type(value) is not int:  # a plain int, the common case, needs no conversion
        try:
            if isinstance(value, (bool, np.bool_)):
                raise TypeError
            # the special-method lookup of operator.index, on the type
            value = type(value).__index__(value)
        except (AttributeError, TypeError):
            raise TypeError(f"{name}={value!r} is not an integer") from None
    if hi is not None and not lo <= value <= hi:
        raise ValueError(f"{name}={value} out of range {lo}..{hi}")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}")
    return value


def _real(name: str, value):
    """``value`` itself, the one type check of every real-number argument.

    A bool or anything that is not a `numbers.Real` (a string, a complex)
    raises `TypeError`.  The caller checks the range on ``value`` as given,
    so that an int too large for a float fails that check, and then takes
    ``float(value)``, which keeps every float and float64 bit for bit.
    """
    # a float, the common case, skips the isinstance calls
    if type(value) is not float and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise TypeError(f"{name}={value!r} is not a number")
    return value


def _as_array(values, name: str, dtype: type = float) -> np.ndarray:
    """``values`` as a float or complex array, the one check of every array
    argument: its entries must be numbers.

    ``np.asarray(values, dtype=float)`` would parse the strings ``"1"`` and
    ``"0"``, take booleans as 1 and 0, and drop imaginary parts with only a
    warning.  Here strings, booleans and, for a float target, complex entries
    with a nonzero imaginary part raise `ValueError` naming their dtype, as
    does input that is ragged, not numeric or past the float range (an
    integer above 2**1024).  An array of the target dtype is returned as it is.
    """
    not_numbers = f"{name} is not a rectangular array of numbers"
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{not_numbers}: {exc}") from exc
    kind = arr.dtype.kind
    if kind not in "iufcO":
        raise ValueError(f"{not_numbers}: it has dtype {arr.dtype}")
    if kind == "O" or not isinstance(values, np.ndarray):
        # numpy promotes a boolean among numbers to 1.0 and an object array
        # parses strings, so look at each entry's own type
        entries = arr if kind == "O" else np.array(values, dtype=object)
        for entry_type in set(map(type, entries.flat)):
            if issubclass(entry_type, (str, bytes, bool, np.bool_)):
                raise ValueError(f"{not_numbers}: an entry has dtype {entry_type.__name__}")
    if kind == "c" and dtype is float:
        if np.any(arr.imag):
            raise ValueError(f"{not_numbers}: dtype {arr.dtype} with a nonzero imaginary part")
        arr = arr.real
    try:
        return arr.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{not_numbers}: {exc}") from exc


def state_to_bloch(psi: np.ndarray) -> np.ndarray:
    """Map normalized pure states to their unit Bloch coordinate vectors.

    Each coordinate is ``sqrt(d/(2(d-1))) <psi| L_i |psi>``, written out
    per block (Bertlmann & Krammer, J. Phys. A 41, 235303 (2008)): with
    ``z = conj(psi_j) psi_k`` over the pairs k > j, the symmetric block is
    ``2 Re z``, the antisymmetric block ``2 Im z``, and diagonal l is
    ``sqrt(2/(l(l+1))) (sum_{a<l} |psi_a|^2 - l |psi_l|^2)``.

    Parameters
    ----------
    psi : complex array, shape (..., d)
        State amplitudes along the last axis, each state of unit Euclidean
        norm (checked to 1e-12).  Strings and booleans raise `ValueError`,
        as for every array argument of the package.

    Returns
    -------
    real array, shape (..., d**2 - 1)
    """
    psi = _as_array(psi, "psi", complex)
    if psi.ndim == 0 or psi.shape[-1] < 2:
        raise ValueError("state must live in dimension >= 2")
    # huge finite entries overflow to an inf norm, refused below by name
    with np.errstate(over="ignore", invalid="ignore"):
        nrm2 = (np.abs(psi) ** 2).sum(axis=-1)
    bad = ~(np.abs(nrm2 - 1.0) <= 1e-12)  # a NaN norm fails too
    if bad.any():
        raise ValueError(f"state is not normalized: |psi|^2 = {float(nrm2[bad][0])!r}")
    return _bloch_coords(psi)


def _bloch_coords(psi: np.ndarray) -> np.ndarray:
    """`state_to_bloch` of a complex array whose states the caller has
    already checked, without a second check."""
    d = psi.shape[-1]
    p = np.abs(psi) ** 2
    k, j = _pairs(d)
    z = psi[..., j].conj() * psi[..., k]
    l = np.arange(1, d)
    diag = (np.cumsum(p, axis=-1)[..., :-1] - l * p[..., 1:]) * np.sqrt(2.0 / (l * (l + 1)))
    coords = np.concatenate([2.0 * z.real, 2.0 * z.imag, diag], axis=-1)
    return coords * math.sqrt(d / (2.0 * (d - 1)))


@functools.lru_cache(maxsize=32)
def _pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.tril_indices(d, -1)``: the pairs (k, j), k > j, of
    the two pair blocks, in their order."""
    pairs = np.tril_indices(d, -1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def bloch_to_density(u: np.ndarray) -> np.ndarray:
    """Reconstruct density matrices ``I/d + sqrt((d-1)/(2d)) sum_i u_i L_i``.

    ``u`` has shape (..., d**2 - 1) of real numbers, the result (..., d, d);
    ``d`` is read from the coordinate length.  A length that is not d**2 - 1
    for any d >= 2, entries that are strings, booleans or complex with a
    nonzero imaginary part (the one array check), and NaN or infinite
    entries raise `ValueError`.
    """
    u = np.atleast_1d(_as_array(u, "u"))
    n = u.shape[-1]
    d = math.isqrt(n + 1)
    if n < 3 or d * d - 1 != n:
        raise ValueError(f"coordinate length {n} is not d**2 - 1 for any d >= 2")
    if not np.isfinite(u).all():
        raise ValueError("u has a non-finite entry")
    k, j = _pairs(d)
    m = len(k)
    sym, anti = u[..., :m], u[..., m : 2 * m]
    l = np.arange(1, d)
    w = u[..., 2 * m :] * np.sqrt(2.0 / (l * (l + 1)))
    # diagonal a: the sum of w_l over l > a, minus a w_a
    diag = np.zeros(u.shape[:-1] + (d,))
    diag[..., :-1] = np.cumsum(w[..., ::-1], axis=-1)[..., ::-1]
    diag[..., 1:] -= l * w
    scale = math.sqrt((d - 1) / (2.0 * d))
    out = np.zeros(u.shape[:-1] + (d, d), dtype=complex)
    out[..., j, k] = scale * (sym - 1j * anti)
    out[..., k, j] = scale * (sym + 1j * anti)
    out[..., np.arange(d), np.arange(d)] = scale * diag + 1.0 / d
    return out


def expected_abs_projection(n: int) -> float:
    """Mean absolute projection ``E|u . w|`` of a uniform unit vector.

    For ``u`` uniform on the sphere S^{n-1} and any fixed unit ``w``,
    ``E|u . w| = Gamma(n/2) / (sqrt(pi) Gamma((n+1)/2))``.  Below n = 200
    this is the ratio of the two gamma values themselves, each within a few
    ulps and far from overflow.  From n = 200 up the ratio
    ``Gamma(z + 1/2) / Gamma(z)``, z = n/2, comes from its asymptotic series
    ``sqrt(z) (1 - 1/(8z) + 1/(128z^2) + 5/(1024z^3) - 21/(32768z^4)
    - 399/(262144z^5))``, whose next term is below 3e-16 there.  Relative
    error against 40-digit mpmath: at most 6.7e-16 below n = 200 and 4e-16
    from n = 200 up to 1e12.
    """
    n = _integer("n", n, 2)
    if n < 200:
        return math.gamma(n / 2.0) / (math.sqrt(math.pi) * math.gamma((n + 1) / 2.0))
    t = 2.0 / n  # 1/z
    series = 1.0 + t * (
        -1.0 / 8 + t * (1.0 / 128 + t * (5.0 / 1024 + t * (-21.0 / 32768 - t * 399.0 / 262144)))
    )
    return 1.0 / (math.sqrt(math.pi * n / 2.0) * series)


class _Key:
    """The seed sequence of `substream`: a fixed Philox key, no entropy.

    `_register_key` makes it a numpy ``ISeedSequence`` on first use, so
    that importing the package does not import ``numpy.random``.
    """

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray) -> None:
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # the one request Philox makes of its seed sequence: its two key words
        if n_words != 2 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
            raise ValueError("a substream key answers only generate_state(2, np.uint64)")
        return self.key.copy()


@functools.cache
def _register_key() -> None:
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_Key)


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent counter-based random stream keyed by (seed, index).

    The stream is ``Philox(key=[seed mod 2**64, index mod 2**64])`` with a
    zero counter, bit for bit.  ``Philox(key=...)`` also builds a
    ``SeedSequence()`` from operating-system entropy that it never reads,
    more than half its cost (6 of 10 µs on a 2-core Xeon VM).  So the key comes instead from `_Key`, a seed
    sequence whose ``generate_state(2, np.uint64)`` returns it: numpy takes
    any ``ISeedSequence`` as a seed, and Philox keys itself with those two
    words and a zero counter, the state ``Philox(key=...)`` sets.  No
    entropy is read, and the generator pickles and copies with its key.
    """
    seed, index = _integer("seed", seed), _integer("index", index)
    _register_key()
    key = np.array([seed % 2**64, index % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_Key(key)))


def _normal_rows(
    rng: np.random.Generator, m: int, n: int, parts: int = 1, out=None
) -> list[np.ndarray]:
    """``parts`` arrays of (m, n) standard normals whose joint rows (row i
    of every part) are none below 1e-12 in norm.

    Each part is one ``rng.standard_normal((m, n))`` call, part 0 first.
    While k joint rows are below 1e-12 in norm, each part's k rows are
    replaced, in the same order, by one more ``(k, n)`` call.  ``out``, if
    given, holds ``parts`` C-contiguous float64 arrays of shape (m, n) that
    the first calls fill (``standard_normal(out=…)``) and that are returned:
    the caller owns them, and the draws and redraws are those of the
    allocating call.
    """
    outs = [None] * parts if out is None else out
    xs = [rng.standard_normal((m, n), out=x) for x in outs]
    while True:
        # a row that small has a first entry below 1e-12 too, so only such
        # rows (almost never any) have their norms taken
        rows = np.flatnonzero(np.abs(xs[0][:, 0]) < 1e-12)
        joint = np.concatenate([x[rows] for x in xs], axis=1)
        bad = rows[np.linalg.norm(joint, axis=1) < 1e-12]
        if not bad.size:
            return xs
        for x in xs:
            x[bad] = rng.standard_normal((bad.size, n))


def sample_sphere(n: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Uniform samples on the unit sphere S^{n-1}.

    Returns shape (n,) when ``size`` is None, else (size, n).  Isotropic
    Gaussian draws normalized to unit length; rows that collapse below
    1e-12 in norm are redrawn.
    """
    n = _integer("n", n, 1)
    m = 1 if size is None else _integer("size", size, 0)
    (x,) = _normal_rows(rng, m, n)
    x /= np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]
    return x[0] if size is None else x


def sample_haar_pure(d: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-random pure states: normalized complex Gaussian amplitudes.

    Returns shape (d,) when ``size`` is None, else (size, d).  For m rows
    (1 when ``size`` is None) the real parts come from one
    ``rng.standard_normal((m, d))`` call, then the imaginary parts from a
    second.  While k rows are below 1e-12 in norm, they are redrawn the
    same way, real parts first, by two ``(k, d)`` calls.
    """
    d = _integer("d", d, 2)
    m = 1 if size is None else _integer("size", size, 0)
    re, im = _normal_rows(rng, m, d, parts=2)
    z = re + 1j * im
    z /= np.linalg.norm(z, axis=1)[:, None]
    return z[0] if size is None else z

