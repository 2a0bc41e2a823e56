"""Extended-precision references shared by the tests.

mpmath is optional: import this module inside the test that needs it, so
that without mpmath that test alone is skipped.
"""

import pytest

mpmath = pytest.importorskip("mpmath")


def kappa(n):
    """``E|u . w| = Gamma(n/2) / (sqrt(pi) Gamma((n+1)/2))`` for u uniform on
    the sphere S^{n-1} and any fixed unit w, at mpmath's working precision."""
    half = mpmath.mpf(n) / 2
    return mpmath.gamma(half) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(half + 0.5))


def difference_probs(d, gap):
    """``P_m = sin^2(pi theta) / (d^2 sin^2(pi theta / d))`` at ``theta = gap
    + m`` for m = 0 .. d-1, with the limit 1 where theta is a multiple of d,
    at mpmath's working precision; the float ``gap`` is taken exactly."""
    probs = []
    for m in range(d):
        theta = mpmath.mpf(gap) + m
        theta -= d * mpmath.nint(theta / d)  # the law has period d
        if theta == 0:
            probs.append(mpmath.mpf(1))
        else:
            ratio = mpmath.sin(mpmath.pi * theta) / mpmath.sin(mpmath.pi * theta / d)
            probs.append(ratio**2 / d**2)
    return probs


def born_chained_value_mp(d, n):
    """Exact I_n on the maximally entangled state, from the Born rule, at
    mpmath's working precision.

    ``P(x, y | A, B) = |sum_j exp(2 pi i j ((x - alpha_A) - (y - beta_B)) / d)|^2 / d^3``
    with ``alpha_A = (A - 1/2)/n`` and ``beta_B = B/n``.  All 2n chain terms
    are summed, so the value does not lean on any identity of the package.
    """
    roots = [mpmath.expjpi(mpmath.mpf(2 * k) / d) for k in range(d)]

    def mean(a, b, weight):
        phase = (mpmath.mpf(a) - mpmath.mpf(1) / 2 - b) / n  # alpha_A - beta_B
        twist = [mpmath.expjpi(-2 * j * phase / d) for j in range(d)]
        total = mpmath.mpf(0)
        for x in range(d):
            for y in range(d):
                # exp(2 pi i j theta / d) = roots[j (x - y) mod d] * twist[j]
                amp = mpmath.fsum(roots[j * (x - y) % d] * twist[j] for j in range(d))
                total += weight(x, y) * abs(amp) ** 2
        return total / d**3

    terms = [mean(i, i, lambda x, y: (x - y) % d) for i in range(1, n + 1)]
    terms += [mean(i + 1, i, lambda x, y: (y - x) % d) for i in range(1, n)]
    terms.append(mean(1, n, lambda x, y: (y - x - 1) % d))
    return mpmath.fsum(terms)


def gamma(d):
    """``gamma(d) = pi^2 / (4 d^2) sum_{j=1}^{d-1} j / sin^2(pi j / d)``, the
    leading coefficient of I_N = 2 gamma / N + O(1/N^2), summed term by term
    at mpmath's working precision."""
    terms = (j / mpmath.sin(mpmath.pi * j / d) ** 2 for j in range(1, d))
    return mpmath.pi**2 / (4 * d * d) * mpmath.fsum(terms)


def analytic_bound(d, eta):
    """``eta (d-1)/d^2 d sqrt(2d/(d-1)) kappa_{d^2-1}``, the exact isotropic
    average of L for sphere-uniform hidden states, at mpmath's working
    precision, with kappa from its gamma functions; the float ``eta`` is
    taken exactly."""
    step = mpmath.sqrt(mpmath.mpf(2 * d) / (d - 1))
    return mpmath.mpf(eta) * (d - 1) / d**2 * d * step * kappa(d * d - 1)
