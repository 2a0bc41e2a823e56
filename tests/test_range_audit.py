"""Property tests over the range the API accepts: each closed form against a
reference that shares no code path with it."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from cryptononlocal.bloch import bloch_to_density, state_to_bloch  # noqa: E402
from cryptononlocal.leggett import (  # noqa: E402
    basis_to_bloch,
    leggett_bound_analytic,
)
from cryptononlocal.quantum import (  # noqa: E402
    PROB_TOL,
    ChainedSettings,
    chained_settings,
    closed_form_probs,
    joint_distribution,
    joint_from_bases,
    maximally_entangled,
)
from helpers import haar_unitary  # noqa: E402


@st.composite
def _settings(draw):
    d = draw(st.integers(min_value=2, max_value=8))
    n = draw(st.integers(min_value=1, max_value=6))
    phases = st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=n, max_size=n)
    return ChainedSettings(d, draw(phases), draw(phases))


# the explain phase imports modules that warn on import, and warnings are errors
@hypothesis.settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[hypothesis.Phase.explicit, hypothesis.Phase.generate, hypothesis.Phase.shrink],
)
@hypothesis.given(settings=_settings())
# a phase gap 1e-9 from -d, where the closed form's sines once lost
# their relative accuracy
@hypothesis.example(settings=ChainedSettings(3, [0.0], [-1e-9]))
def test_closed_form_probs_matches_born_rule_at_any_finite_phase(settings):
    # the Born-rule tensor is a distribution by construction (tested below)
    born = joint_distribution(maximally_entangled(settings.d), settings)
    assert np.abs(closed_form_probs(settings).probs - born.probs).max() <= 1e-12


@hypothesis.settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[hypothesis.Phase.explicit, hypothesis.Phase.generate, hypothesis.Phase.shrink],
)
@hypothesis.given(
    d=st.integers(min_value=2, max_value=8),
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_born_tensor_of_checked_inputs_is_a_distribution(d, n, seed):
    # joint_from_bases checks its state and bases, not its output: the
    # tensor must pass the full check by construction
    rng = np.random.default_rng(seed)
    state = _pure_states(rng, 1, d * d)[0]
    alice = np.stack([haar_unitary(d, rng) for _ in range(n)])
    bob = np.stack([haar_unitary(d, rng) for _ in range(n)])
    joint_from_bases(state, alice, bob).validate(PROB_TOL)


def test_born_tensor_of_chained_bases_at_d100_is_a_distribution():
    # the library's bases at the top of the d range, Gram deviation ~2e-14
    settings = chained_settings(100, 12)
    joint_distribution(maximally_entangled(100), settings).validate(PROB_TOL)


# d up to 100, the largest the API is documented for; a few dozen examples
# keep the three tests below under two seconds together
_AUDIT = hypothesis.settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[hypothesis.Phase.explicit, hypothesis.Phase.generate, hypothesis.Phase.shrink],
)
_dims = st.integers(min_value=2, max_value=100)
_seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _pure_states(rng, k, d):
    # normalized complex Gaussian rows, drawn without the library's samplers
    z = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    return z / np.linalg.norm(z, axis=1)[:, None]


@_AUDIT
@hypothesis.given(d=_dims, seed=_seeds)
@hypothesis.example(d=2, seed=0)
@hypothesis.example(d=100, seed=0)
def test_state_to_bloch_and_bloch_to_density_round_trip(d, seed):
    psi = _pure_states(np.random.default_rng(seed), 4, d)
    u = state_to_bloch(psi)
    rho = bloch_to_density(u)
    assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() <= 1e-14
    assert np.abs(rho - psi[:, :, None] * psi[:, None, :].conj()).max() <= 1e-15
    # and back: the top eigenvector of rho(u) maps to u again
    top = np.linalg.eigh(rho)[1][:, :, -1]
    assert np.abs(state_to_bloch(top) - u).max() <= 1e-14


@_AUDIT
@hypothesis.given(d=_dims, seed=_seeds)
@hypothesis.example(d=2, seed=0)
@hypothesis.example(d=100, seed=0)
def test_projection_rule(d, seed):
    # Tr(rho(a) rho(u)) = [1 + (d-1) a.u] / d for any coordinates, and for
    # pure states it is their overlap |<psi|phi>|^2
    rng = np.random.default_rng(seed)
    psi, phi = _pure_states(rng, 4, d), _pure_states(rng, 4, d)
    a, u = state_to_bloch(psi), state_to_bloch(phi)
    overlap = np.abs(np.einsum("ij,ij->i", psi.conj(), phi)) ** 2
    rule = (1.0 + (d - 1) * np.einsum("ij,ij->i", a, u)) / d
    trace = np.einsum("kij,kji->k", bloch_to_density(a), bloch_to_density(u))
    assert np.abs(rule - overlap).max() <= 1e-15
    assert np.abs(trace - overlap).max() <= 1e-15
    x, y = rng.standard_normal((2, 4, d * d - 1))
    x /= np.linalg.norm(x, axis=1)[:, None]
    y *= rng.uniform(0.0, 1.0, (4, 1)) / np.linalg.norm(y, axis=1)[:, None]
    trace = np.einsum("kij,kji->k", bloch_to_density(x), bloch_to_density(y))
    rule = (1.0 + (d - 1) * np.einsum("ij,ij->i", x, y)) / d
    assert np.abs(trace - rule).max() <= 1e-14


@_AUDIT
@hypothesis.given(d=_dims, seed=_seeds, eta=st.floats(min_value=0.01, max_value=1.0))
@hypothesis.example(d=2, seed=0, eta=1.0)
@hypothesis.example(d=100, seed=0, eta=1.0)
def test_outcome_states_reproduce_the_bloch_map(d, seed, eta):
    # the Haar-pure Monte Carlo reads p_x = |<a_x|psi>|^2 off the basis
    # states; a sample's value eta/d sum_x |p_x - p_{x-1}|
    # must equal the Bloch map's eta (d-1)/d^2 sum_x |(a^x - a^{x-1}) . u|
    rng = np.random.default_rng(seed)
    unitary = haar_unitary(d, rng)
    basis = basis_to_bloch(unitary)
    psi = _pure_states(rng, 8, d)
    probs = np.abs(psi @ basis.states.conj().T) ** 2
    assert np.abs(probs - np.abs(psi @ unitary.conj().T) ** 2).max() <= 1e-14
    diffs = basis.vectors - np.roll(basis.vectors, 1, axis=0)
    bloch_map = eta * (d - 1) / d**2 * np.abs(state_to_bloch(psi) @ diffs.T).sum(axis=1)
    value = eta / d * np.abs(probs - np.roll(probs, 1, axis=1)).sum(axis=1)
    assert np.abs(value - bloch_map).max() <= 1e-14


@hypothesis.settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[hypothesis.Phase.explicit, hypothesis.Phase.generate, hypothesis.Phase.shrink],
)
@hypothesis.given(
    d=_dims, eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
)
@hypothesis.example(d=2, eta=1.0)
@hypothesis.example(d=100, eta=0.5)
@hypothesis.example(d=2, eta=5e-324)
def test_analytic_bound_matches_mpmath(d, eta):
    """``eta (d-1)/d^2 d sqrt(2d/(d-1)) Gamma(n/2)/(sqrt(pi) Gamma((n+1)/2))``,
    n = d^2 - 1, in 40 digits, with kappa_n taken from its gamma functions
    rather than from `expected_abs_projection`.  The worst relative error
    measured over d = 2..100 and ~40 000 uniform eta is 6.7e-16.  A value
    below the smallest normal float (eta below ~1e-305) carries an absolute
    error of up to two subnormal steps instead: the float cannot hold it
    more closely."""
    from reference import analytic_bound, mpmath

    with mpmath.workdps(40):
        exact = analytic_bound(d, eta)
        error = abs(mpmath.mpf(leggett_bound_analytic(d, eta).value) - exact)
        assert error <= 1e-15 * exact + 2 * mpmath.mpf(5e-324)
