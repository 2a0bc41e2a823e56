"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Two criteria are checked against an independent reference: the exact chained
value evaluated from the Born rule with mpmath at 50 digits, summing all 2N
chain terms without the sin^2 closed form or the phase-symmetry shortcut of
`cglmp_chained_value` (``born_chained_value_mp`` in ``tests/reference.py``).
These tests need mpmath and skip where it is absent.

* ``test_threshold_margin[14|15]`` checks that the d=3 crossing of the floor
  4/27 between N=14 and N=15 is real and resolved, not a near-tie that
  rounding could flip.  The reference puts I_14 = 0.158693417982781964
  (1.0545e-2 above 4/27) and I_15 = 0.148000412233120501 (1.47736e-4
  below); the float value and margin must match the reference to 1e-13, and
  the margin must exceed that agreement bound by a factor of 1e6.
* ``test_gamma_error_ratio[2|3|4]`` checks that gamma(d) is the exact leading
  coefficient of I_N = 2 gamma / N + c2 / N^2 + O(1/N^3) and that the
  remainder decays at the predicted order.  With
  ``c2(d) = -(pi^3 / (2 d^3)) sum_{m=1}^{d-1} m cos(pi m/d) / sin^3(pi m/d)``
  (0.4420 at d=3, 0.9689 at d=4) the N -> 2N error ratio is ~4 and
  N^2 err(400) is within 2% of c2.  The terms m and d-m cancel at d=2, where
  I_N = 2N sin^2(pi/(4N)) exactly: the error is -pi^4/(384 N^3) + O(1/N^5),
  the ratio is ~8, and N^3 err(400) = -0.2536694 is within 1% of -pi^4/384.
"""

import json
import math
import time

import numpy as np
import pytest

from cryptononlocal.bloch import substream
from cryptononlocal.cli import main as cli_main
from cryptononlocal.leggett import (
    LocalModel,
    basis_to_bloch,
    find_critical_n,
    leggett_bound_analytic,
    leggett_bound_floor,
    leggett_bound_mc,
)
from cryptononlocal.nosignaling import (
    check_agreement_bound,
    check_no_signaling,
    deterministic_contradiction,
    lhv_min_chained,
    random_no_signaling,
    statistical_distance,
    verify_shift_bound,
)
from cryptononlocal.quantum import (
    asymptotic_chained_value,
    cglmp_bases,
    cglmp_chained_value,
    chained_settings,
    gamma_factor,
    joint_distribution,
    maximally_entangled,
)

BOUND_D3 = 4.0 / 27.0
N_CRIT_D3 = 15


def report(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label} ({detail})")


# --- threshold at d=3 -------------------------------------------------------


def test_threshold_ordering():
    start = time.perf_counter()
    i14 = cglmp_chained_value(3, 14)
    i15 = cglmp_chained_value(3, 15)
    elapsed = time.perf_counter() - start
    ok = i15 < BOUND_D3 < i14 and elapsed < 5.0
    report(
        "threshold ordering d=3",
        ok,
        f"I_14={i14:.9f} > 4/27={BOUND_D3:.9f} > I_15={i15:.9f}, {elapsed:.3f}s",
    )
    assert i15 < BOUND_D3, f"I_15={i15} not below 4/27={BOUND_D3}"
    assert i14 > BOUND_D3, f"I_14={i14} not above 4/27={BOUND_D3}"
    assert elapsed < 5.0


@pytest.mark.parametrize("n", [14, 15])
def test_threshold_margin(n):
    from reference import born_chained_value_mp, mpmath

    value = cglmp_chained_value(3, n)
    with mpmath.workdps(50):
        reference = born_chained_value_mp(3, n)
        ref_margin = float(reference - mpmath.mpf(4) / 27)
        deviation = abs(float(value - reference))
    margin = value - BOUND_D3
    agreement = 1e-13
    side = 1.0 if n < N_CRIT_D3 else -1.0  # above 4/27 before N_crit, below from it
    ok = (
        deviation <= agreement
        and side * ref_margin > 0
        and side * margin > 0
        and abs(margin - ref_margin) <= agreement
        and abs(margin) >= 1e6 * agreement
    )
    report(
        f"threshold margin d=3 N={n}",
        ok,
        f"I_{n}-4/27={margin:.6g} reference={ref_margin:.6g} |I_{n}-ref|={deviation:.2g}",
    )
    assert deviation <= agreement, f"I_{n}={value!r} is {deviation:.3g} off the reference"
    assert side * ref_margin > 0, f"reference I_{n} on the wrong side of 4/27"
    assert side * margin > 0, f"I_{n}={value!r} on the wrong side of 4/27"
    assert abs(margin - ref_margin) <= agreement
    assert abs(margin) >= 1e6 * agreement, (
        f"|I_{n} - 4/27| = {abs(margin):.3g} is not resolved against the "
        f"{agreement:g} agreement with the reference"
    )


# --- decay coefficient -------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gamma_convergence(d):
    g = gamma_factor(d)
    deviation = abs(200 * cglmp_chained_value(d, 200) / 2 - g)
    ok = deviation <= 0.01 * g
    report(f"gamma convergence d={d}", ok, f"|N I_N/2 - gamma|/gamma={deviation / g:.3g}")
    assert ok


def second_order_coefficient(d: int) -> float:
    """c2(d) in I_N = 2 gamma(d)/N + c2(d)/N^2 + O(1/N^3)."""
    m = np.arange(1, d)
    s = np.sum(m * np.cos(np.pi * m / d) / np.sin(np.pi * m / d) ** 3)
    return float(-(np.pi**3) / (2 * d**3) * s)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gamma_error_ratio(d):
    from reference import born_chained_value_mp, mpmath

    err = {}
    for n in (200, 400):
        value = cglmp_chained_value(d, n)
        with mpmath.workdps(50):
            deviation = abs(float(value - born_chained_value_mp(d, n)))
        assert deviation <= 1e-13, f"I_{n}={value!r} is {deviation:.3g} off the reference"
        err[n] = value - asymptotic_chained_value(d, n)
    ratio = err[200] / err[400]
    c2 = second_order_coefficient(d)
    if math.isclose(c2, 0.0, abs_tol=1e-12):
        # no 1/N^2 term: the remainder is the cubic term of I_N = 2N sin^2(pi/(4N))
        lo, hi = 7.0, 9.0
        scaled, predicted, rel = 400**3 * err[400], -(math.pi**4) / 384, 0.01
    else:
        lo, hi = 3.5, 4.5
        scaled, predicted, rel = 400**2 * err[400], c2, 0.02
    ok = lo <= ratio <= hi and abs(scaled - predicted) <= rel * abs(predicted)
    report(
        f"gamma error ratio d={d}",
        ok,
        f"ratio={ratio:.3f} scaled_err={scaled:.7g} predicted={predicted:.7g}",
    )
    assert lo <= ratio <= hi, f"error ratio {ratio:.3f} outside [{lo}, {hi}] for d={d}"
    assert abs(scaled - predicted) <= rel * abs(predicted), (
        f"scaled error {scaled:.7g} at N=400 is not within {rel:.0%} of {predicted:.7g}"
    )


# --- bound consistency -------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_bound_consistency(d):
    alice, _ = cglmp_bases(chained_settings(d, 1))
    basis = basis_to_bloch(alice[0])
    est = leggett_bound_mc(basis, LocalModel(d=d), 1_000_000, 1000 + d)
    floor = leggett_bound_floor(d)
    exact = leggett_bound_analytic(d).value
    ok = est.value >= floor - 5 * est.std_error and abs(est.value - exact) <= 3 * est.std_error
    report(
        f"bound consistency d={d}",
        ok,
        f"mc={est.value:.6f}±{est.std_error:.6f} analytic={exact:.6f} floor={floor:.6f}",
    )
    assert est.value >= floor - 5 * est.std_error
    assert abs(est.value - exact) <= 3 * est.std_error


# --- no-signaling property suite --------------------------------------------


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_shift_bound_property_suite(d, n):
    min_slack = math.inf
    min_agreement = math.inf
    max_triangle = -math.inf
    for trial in range(1000):
        gen = substream(9000 + 10 * d + n, trial)
        mix = float(gen.uniform())
        dist = random_no_signaling(d, n, mix, gen)
        assert check_no_signaling(dist, tol=1e-12).passed
        shift = verify_shift_bound(dist)
        min_slack = min(min_slack, shift.slack)
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                min_agreement = min(min_agreement, check_agreement_bound(dist, a, b).slack)
        p, q, r = gen.dirichlet(np.ones(d), size=3)
        max_triangle = max(
            max_triangle,
            statistical_distance(p, r)
            - statistical_distance(p, q)
            - statistical_distance(q, r),
        )
    ok = min_slack >= -1e-9 and min_agreement >= -1e-9 and max_triangle <= 1e-12
    report(
        f"shift-bound suite d={d} n={n}",
        ok,
        f"min_slack={min_slack:.3g} min_agreement_slack={min_agreement:.3g} "
        f"max_triangle_violation={max_triangle:.3g}",
    )
    assert min_slack >= -1e-9
    assert min_agreement >= -1e-9
    assert max_triangle <= 1e-12


# --- local deterministic floor ----------------------------------------------


def test_lhv_minimum():
    start = time.perf_counter()
    results = {}
    for d, n in [(2, 2), (2, 3), (3, 2)]:
        value, witness = lhv_min_chained(d, n)
        results[(d, n)] = value
        assert value == d - 1, f"minimum {value} != d-1 for (d,n)=({d},{n})"
        assert len(witness.alice) == n
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    report("lhv minimum", ok, f"minima={results}, {elapsed:.3f}s")
    assert ok


# --- quantum sanity over the full grid --------------------------------------


@pytest.mark.parametrize("d", range(2, 9))
def test_quantum_sanity(d):
    worst_norm = 0.0
    worst_marginal = 0.0
    worst_signal = 0.0
    psi = maximally_entangled(d)
    for n in range(2, 41):
        dist = joint_distribution(psi, chained_settings(d, n))
        p = dist.probs
        worst_norm = max(worst_norm, float(np.abs(p.sum(axis=(2, 3)) - 1.0).max()))
        alice = p.sum(axis=3)
        bob = p.sum(axis=2)
        worst_marginal = max(
            worst_marginal,
            float(np.abs(alice - 1.0 / d).max()),
            float(np.abs(bob - 1.0 / d).max()),
        )
        worst_signal = max(worst_signal, check_no_signaling(dist, tol=1e-12).residual)
    ok = max(worst_norm, worst_marginal, worst_signal) <= 1e-12
    report(
        f"quantum sanity d={d}",
        ok,
        f"norm={worst_norm:.2g} marginal={worst_marginal:.2g} signal={worst_signal:.2g}",
    )
    assert worst_norm <= 1e-12
    assert worst_marginal <= 1e-12
    assert worst_signal <= 1e-12


# --- purity monotonicity and the locked critical-N table --------------------

# regenerated once from the exact scan and locked as a regression fixture
CRITICAL_N_TABLE = {
    (2, 0.5): 10, (2, 0.7): 8, (2, 0.9): 6, (2, 1.0): 5,
    (3, 0.5): 30, (3, 0.7): 22, (3, 0.9): 17, (3, 1.0): 15,
    (4, 0.5): 67, (4, 0.7): 48, (4, 0.9): 37, (4, 1.0): 34,
    (5, 0.5): 124, (5, 0.7): 89, (5, 0.9): 69, (5, 1.0): 63,
    (6, 0.5): 208, (6, 0.7): 149, (6, 0.9): 116, (6, 1.0): 105,
    (7, 0.5): 323, (7, 0.7): 231, (7, 0.9): 180, (7, 1.0): 162,
    (8, 0.5): 475, (8, 0.7): 339, (8, 0.9): 264, (8, 1.0): 238,
}


@pytest.mark.parametrize("d", range(2, 9))
def test_purity_monotonicity(d):
    etas = [0.5, 0.7, 0.9, 1.0]
    ncrits = [find_critical_n(d, eta, 2000) for eta in etas]
    monotone = all(a >= b for a, b in zip(ncrits, ncrits[1:]))
    frozen = all(CRITICAL_N_TABLE[(d, eta)] == n for eta, n in zip(etas, ncrits))
    ok = monotone and frozen and (d != 3 or ncrits[-1] == 15)
    report(f"purity monotonicity d={d}", ok, f"ncrit={dict(zip(etas, ncrits))}")
    assert monotone, f"N_crit not monotone in purity for d={d}: {ncrits}"
    assert frozen, f"N_crit drifted from the locked table for d={d}: {ncrits}"
    if d == 3:
        assert ncrits[-1] == 15


# --- contradiction certificate ------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_contradiction_certificate(d):
    alice, _ = cglmp_bases(chained_settings(d, 2))
    result = deterministic_contradiction(alice[0], alice[1], 0, 0)
    a, b = result.vector_a, result.vector_b
    e1 = a / np.linalg.norm(a)
    e2 = b - (b @ e1) * e1
    e2 /= np.linalg.norm(e2)
    phi = np.linspace(0.0, 2.0 * np.pi, 400_001)
    u = np.outer(np.cos(phi), e1) + np.outer(np.sin(phi), e2)
    dense = float(np.minimum(u @ a, u @ b).max())
    deviation = abs(result.max_min_overlap - dense)
    ok = result.certified and result.gap > 0 and deviation <= 1e-3
    report(
        f"contradiction certificate d={d}",
        ok,
        f"gap={result.gap:.6f} dense_dev={deviation:.2g}",
    )
    assert result.certified and result.gap > 0
    assert deviation <= 1e-3


# --- CLI determinism and exit codes ------------------------------------------


def test_cli_determinism(capsys, tmp_path):
    def run(*argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    for fmt in ("csv", "json"):
        c1, o1 = run("sweep", "--fig", "2", "--format", fmt)
        c2, o2 = run("sweep", "--fig", "2", "--format", fmt)
        assert (c1, c2) == (0, 0)
        assert o1 == o2, f"{fmt} sweep output not byte-identical"
    c1, o1 = run("bound", "--d", "3", "--mc", "--samples", "50000", "--seed", "21")
    c2, o2 = run("bound", "--d", "3", "--mc", "--samples", "50000", "--seed", "21")
    assert (c1, c2) == (0, 0) and o1 == o2

    codes = {}
    codes["ok"], _ = run("gamma", "--d", "4")
    codes["bad_d"], _ = run("gamma", "--d", "1")
    codes["not_found"], _ = run("ncrit", "--d", "3", "--eta", "0.1", "--nmax", "5")
    codes["io"], _ = run("sweep", "--fig", "2", "--out", "/nonexistent-dir-xyz/x.csv")
    probs = np.zeros((2, 2, 2, 2))
    probs[:, 0, 0, 0] = 1.0
    probs[:, 1, 1, 0] = 1.0
    fixture = tmp_path / "signaling.json"
    fixture.write_text(json.dumps({"d": 2, "n": 2, "probs": probs.tolist()}))
    codes["signaling"], _ = run("verify", "--suite", "theorem1", "--input", str(fixture))
    expected = {"ok": 0, "bad_d": 2, "not_found": 3, "io": 4, "signaling": 2}
    ok = codes == expected
    report("cli determinism and exit codes", ok, f"codes={codes}")
    assert codes == expected
