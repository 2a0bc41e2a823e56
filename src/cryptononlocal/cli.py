"""Command-line interface.

Subcommands expose the library's computations and the data sweeps behind
the two standard plots (threshold curve and critical-settings table); the
``verify`` subcommand runs the property suites.  All floating-point output
is formatted locale-independently, and every random path is driven by a
fixed default seed (``--seed`` overrides), so identical invocations give
byte-identical output.

Exit codes: 0 success/pass, 1 verification failure, 2 invalid arguments or
input, 3 not found, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .bloch import substream
from .leggett import (
    CriticalNotFoundError,
    LocalModel,
    basis_to_bloch,
    find_critical_n,
    leggett_bound_analytic,
    leggett_bound_floor,
    leggett_bound_mc,
)
from .nosignaling import (
    check_agreement_bound,
    deterministic_contradiction,
    lhv_min_chained,
    random_no_signaling,
    statistical_distance,
    strategy_chained_value,
    verify_shift_bound,
)
from .quantum import (
    JointDistribution,
    asymptotic_chained_value,
    cglmp_bases,
    cglmp_chained_value,
    chained_settings,
    gamma_factor,
)

DEFAULT_SEED = 12345

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_NOT_FOUND = 3
EXIT_IO = 4

# Largest row count `sweep` builds, and largest `verify --suite lhv --n`, whose
# witness holds 2 n outcomes: both are held in memory before writing.
MAX_SWEEP_ROWS = 10**6


def fmt_human(x: float) -> str:
    """Fixed 12-decimal formatting with trailing zeros stripped."""
    s = f"{x:.12f}".rstrip("0").rstrip(".")
    return s if s else "0"


def fmt_data(x: float) -> str:
    """12-significant-digit formatting for data files."""
    return f"{x:.12g}"


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"range must look like '2..30', got {text!r}"
        ) from exc


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryptononlocal",
        description="Chained correlations vs Leggett-type crypto-nonlocal bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="decay coefficient of the chained quantity")
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("in", help="chained quantity I_N (exact by default)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--asymptotic", action="store_true", help="print 2*gamma/N instead")

    p = sub.add_parser("bound", help="model bound: floor, analytic L, or MC L")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eta", type=float, default=1.0)
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--analytic", action="store_true", help="exact isotropic L")
    kind.add_argument("--mc", action="store_true", help="Monte Carlo L with stderr")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("ncrit", help="smallest N with exact I_N below the floor")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--nmax", type=int, default=1000)

    p = sub.add_parser("sweep", help="emit threshold (2) or critical-N (3) data")
    p.add_argument("--fig", type=int, choices=(2, 3), required=True)
    p.add_argument("--d-range", type=_parse_range, default=None, metavar="A..B")
    p.add_argument("--eta-list", type=_parse_floats, default=None, metavar="X,Y,..")
    p.add_argument(
        "--n-range",
        type=_parse_range,
        default=None,
        metavar="A..B",
        help="N values for --fig 2; --fig 3 reads only B, as the search limit n_max",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument(
        "--suite",
        choices=("theorem1", "lemma", "lhv", "contradiction"),
        required=True,
        help=(
            "theorem1: per-setting marginal-shift bound on no-signaling "
            "distributions; lemma: agreement bound and triangle inequality; "
            "lhv: deterministic-strategy minimum of I_N; contradiction: "
            "two-setting perfect-prediction certificate"
        ),
    )
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument(
        "--input",
        default=None,
        help=(
            "JSON file {d, n, probs} checked instead of generated distributions "
            "(--suite theorem1 only)"
        ),
    )
    return parser


def _cmd_gamma(args) -> int:
    print(fmt_human(gamma_factor(args.d)))
    return EXIT_OK


def _cmd_in(args) -> int:
    if args.asymptotic:
        print(fmt_human(asymptotic_chained_value(args.d, args.n)))
    else:
        print(fmt_human(cglmp_chained_value(args.d, args.n)))
    return EXIT_OK


def _cmd_bound(args) -> int:
    if args.mc:
        settings = chained_settings(args.d, 1)
        alice, _ = cglmp_bases(settings)
        basis = basis_to_bloch(alice[0])
        model = LocalModel(d=args.d, eta=args.eta)
        est = leggett_bound_mc(basis, model, args.samples, args.seed)
        print(f"{fmt_human(est.value)} ± {fmt_human(est.std_error)}")
    elif args.analytic:
        print(fmt_human(leggett_bound_analytic(args.d, args.eta).value))
    else:
        print(fmt_human(leggett_bound_floor(args.d, args.eta)))
    return EXIT_OK


def _cmd_ncrit(args) -> int:
    try:
        print(find_critical_n(args.d, args.eta, args.nmax))
    except CriticalNotFoundError as exc:
        print(f"NOT-FOUND gap={fmt_human(exc.gap)}")
        return EXIT_NOT_FOUND
    return EXIT_OK


def _sweep_rows(fig: int, d_range, etas, n_range) -> list[dict]:
    rows = []
    d_lo, d_hi = d_range
    n_lo, n_hi = n_range
    for d in range(d_lo, d_hi + 1):
        for eta in sorted(etas):
            bound = leggett_bound_floor(d, eta)
            l_analytic = leggett_bound_analytic(d, eta).value
            if fig == 2:
                for n in range(n_lo, n_hi + 1):
                    i_n = cglmp_chained_value(d, n)
                    rows.append(
                        dict(
                            d=d,
                            N=n,
                            eta=eta,
                            i_n=i_n,
                            bound=bound,
                            l_analytic=l_analytic,
                            violated=i_n < bound,
                        )
                    )
            else:
                n_crit = find_critical_n(d, eta, n_hi)
                rows.append(
                    dict(
                        d=d,
                        N=n_crit,
                        eta=eta,
                        i_n=cglmp_chained_value(d, n_crit),
                        bound=bound,
                        l_analytic=l_analytic,
                        violated=True,
                    )
                )
    rows.sort(key=lambda r: (r["d"], r["eta"], r["N"]))
    return rows


def _serialize_rows(rows: list[dict], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["d", "N", "eta", "i_n", "bound", "l_analytic", "violated"])
        for r in rows:
            writer.writerow(
                [
                    r["d"],
                    r["N"],
                    fmt_data(r["eta"]),
                    fmt_data(r["i_n"]),
                    fmt_data(r["bound"]),
                    fmt_data(r["l_analytic"]),
                    "true" if r["violated"] else "false",
                ]
            )
        return buf.getvalue()
    payload = [
        {
            "d": r["d"],
            "N": r["N"],
            "eta": float(fmt_data(r["eta"])),
            "i_n": float(fmt_data(r["i_n"])),
            "bound": float(fmt_data(r["bound"])),
            "l_analytic": float(fmt_data(r["l_analytic"])),
            "violated": bool(r["violated"]),
        }
        for r in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def _cmd_sweep(args) -> int:
    if args.fig == 2:
        d_range = args.d_range or (3, 3)
        etas = args.eta_list or [1.0]
        n_range = args.n_range or (2, 30)
    else:
        d_range = args.d_range or (2, 8)
        etas = args.eta_list or [0.5, 0.7, 0.9, 1.0]
        n_range = args.n_range or (2, 1000)
    if d_range[0] < 2 or d_range[0] > d_range[1]:
        return _fail(f"empty or invalid d range {d_range}", EXIT_BAD_INPUT)
    if n_range[0] < 1 or n_range[0] > n_range[1]:
        return _fail(f"empty or invalid N range {n_range}", EXIT_BAD_INPUT)
    if not etas:
        return _fail("eta list is empty", EXIT_BAD_INPUT)
    n_rows = (d_range[1] - d_range[0] + 1) * len(etas)
    if args.fig == 2:
        n_rows *= n_range[1] - n_range[0] + 1
    if n_rows > MAX_SWEEP_ROWS:
        return _fail(
            f"sweep of {n_rows} rows exceeds the cap of {MAX_SWEEP_ROWS} rows",
            EXIT_BAD_INPUT,
        )
    try:
        rows = _sweep_rows(args.fig, d_range, etas, n_range)
    except CriticalNotFoundError as exc:
        print(f"NOT-FOUND gap={fmt_human(exc.gap)}")
        return EXIT_NOT_FOUND
    text = _serialize_rows(rows, args.format)
    if args.out == "-":
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}", EXIT_IO)
    return EXIT_OK


def _load_fixture(path: str) -> JointDistribution:
    """Read and fully check a ``{d, n, probs}`` JSON distribution."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not JSON: {exc}") from exc
        except RecursionError as exc:
            # json's decoder recurses once per nesting level
            raise ValueError(f"JSON nested too deeply: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("top level must be a JSON object {d, n, probs}")
    for key in ("d", "n", "probs"):
        if key not in data:
            raise ValueError(f"missing key {key!r}")
    for key, low in (("d", 2), ("n", 1)):
        value = data[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise ValueError(f"{key} must be an integer >= {low}, got {value!r}")
    dist = JointDistribution(data["probs"])
    if (data["d"], data["n"]) != (dist.d, dist.n):
        raise ValueError(f"d={data['d']}, n={data['n']} does not match probs {dist.probs.shape}")
    dist.validate(tol=1e-9, no_signaling=True)
    return dist


def _verify_theorem1(args) -> int:
    if args.input is not None:
        try:
            dist = _load_fixture(args.input)
        except OSError as exc:
            return _fail(f"cannot read {args.input}: {exc}", EXIT_IO)
        except ValueError as exc:
            return _fail(f"bad input distribution: {exc}", EXIT_BAD_INPUT)
        report = verify_shift_bound(dist)
        status = "PASS" if report.passed else "FAIL"
        print(
            f"theorem1 fixture: I_N={fmt_human(report.chained)} "
            f"max_shift={fmt_human(report.max_shift)} "
            f"slack={fmt_human(report.slack)} -> {status}"
        )
        return EXIT_OK if report.passed else EXIT_VERIFY_FAIL

    ok = True
    min_slack = float("inf")
    for t in range(args.trials):
        gen = substream(args.seed, t)
        mix = float(gen.uniform())
        dist = random_no_signaling(args.d, args.n, mix, gen)
        report = verify_shift_bound(dist)
        ok = ok and report.passed
        min_slack = min(min_slack, report.slack)
    status = "PASS" if ok else "FAIL"
    print(
        f"theorem1 suite: d={args.d} n={args.n} trials={args.trials} "
        f"min_slack={fmt_human(min_slack)} -> {status}"
    )
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _verify_lemma(args) -> int:
    ok = True
    min_slack = float("inf")
    max_triangle_violation = 0.0
    for t in range(args.trials):
        gen = substream(args.seed, t)
        mix = float(gen.uniform())
        dist = random_no_signaling(args.d, args.n, mix, gen)
        for a in range(1, args.n + 1):
            for b in range(1, args.n + 1):
                report = check_agreement_bound(dist, a, b)
                ok = ok and report.passed
                min_slack = min(min_slack, report.slack)
        p, q, r = gen.dirichlet(np.ones(args.d), size=3)
        viol = statistical_distance(p, r) - (
            statistical_distance(p, q) + statistical_distance(q, r)
        )
        max_triangle_violation = max(max_triangle_violation, viol)
        ok = ok and viol <= 1e-12
    status = "PASS" if ok else "FAIL"
    print(
        f"lemma suite: d={args.d} n={args.n} trials={args.trials} "
        f"min_slack={fmt_human(min_slack)} "
        f"max_triangle_violation={fmt_human(max_triangle_violation)} -> {status}"
    )
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _verify_lhv(args) -> int:
    if args.n > MAX_SWEEP_ROWS:
        return _fail(
            f"--n {args.n} exceeds the cap of {MAX_SWEEP_ROWS} settings", EXIT_BAD_INPUT
        )
    value, witness = lhv_min_chained(args.d, args.n)
    minimum = _min_plus_lhv_min(args.d, args.n)
    expected = args.d - 1
    attained = strategy_chained_value(args.d, witness.alice, witness.bob)
    ok = minimum == value == attained == expected
    status = "PASS" if ok else "FAIL"
    print(
        f"lhv suite: d={args.d} n={args.n} min={minimum} expected={expected} "
        f"witness alice={list(witness.alice)} bob={list(witness.bob)} -> {status}"
    )
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _min_plus_lhv_min(d: int, n: int) -> int:
    """Minimum of I_N over deterministic strategies by a min-plus transfer product.

    Setting i adds ``[a_i - b_i] + [b_i - a_{i+1}]`` ([.] is mod d), so
    minimizing over Bob's b_i leaves the link cost
    ``M[a, a'] = min_b ([a - b] + [b - a'])``.  The chain closes on
    a_{n+1} = a_1 + 1, so the minimum is ``min_a M^n[a, a + 1 mod d]`` with
    the n-th power taken in the (min, +) semiring, by repeated squaring:
    O(d^3 log n), against the d^(2n) strategies of an enumeration.
    """
    r = np.arange(d)
    # cost[a, b, a'] = [a - b] + [b - a']
    cost = (r[:, None, None] - r[None, :, None]) % d + (r[None, :, None] - r) % d
    power = cost.min(axis=1)
    result = None
    while True:
        if n & 1:
            result = power if result is None else _min_plus(result, power)
        n >>= 1
        if not n:
            return int(result[r, (r + 1) % d].min())
        power = _min_plus(power, power)


def _min_plus(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix product in the (min, +) semiring: ``out[i, k] = min_j x[i, j] + y[j, k]``."""
    return (x[:, :, None] + y[None, :, :]).min(axis=1)


def _grid_max_min_overlap(a: np.ndarray, b: np.ndarray, points: int = 200_001) -> float:
    """Dense search of max_u min(a.u, b.u) over the circle in span(a, b)."""
    e1 = a / np.linalg.norm(a)
    e2 = b - (b @ e1) * e1
    n2 = np.linalg.norm(e2)
    if n2 < 1e-12:
        e2 = np.zeros_like(a)
        e2[int(np.argmin(np.abs(e1)))] = 1.0
        e2 -= (e2 @ e1) * e1
        n2 = np.linalg.norm(e2)
    e2 = e2 / n2
    # u = cos(phi) e1 + sin(phi) e2, so u.v needs only the plane coordinates of v
    phi = np.linspace(0.0, 2.0 * np.pi, points)
    c, s = np.cos(phi), np.sin(phi)
    return float(np.minimum(c * (e1 @ a) + s * (e2 @ a), c * (e1 @ b) + s * (e2 @ b)).max())


def _verify_contradiction(args) -> int:
    settings = chained_settings(args.d, 2)
    alice, _ = cglmp_bases(settings)
    report = deterministic_contradiction(alice[0], alice[1], 0, 0)
    grid = _grid_max_min_overlap(report.vector_a, report.vector_b)
    ok = report.certified and report.gap > 0 and abs(report.max_min_overlap - grid) <= 1e-3
    status = "PASS" if ok else "FAIL"
    print(
        f"contradiction suite: d={args.d} max_min_overlap="
        f"{fmt_human(report.max_min_overlap)} gap={fmt_human(report.gap)} "
        f"grid={fmt_human(grid)} -> {status}"
    )
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _cmd_verify(args) -> int:
    if args.trials < 1:
        return _fail("trials must be >= 1", EXIT_BAD_INPUT)
    if args.input is not None and args.suite != "theorem1":
        return _fail(
            f"--input is read only by --suite theorem1, not --suite {args.suite}",
            EXIT_BAD_INPUT,
        )
    handler = {
        "theorem1": _verify_theorem1,
        "lemma": _verify_lemma,
        "lhv": _verify_lhv,
        "contradiction": _verify_contradiction,
    }[args.suite]
    return handler(args)


_HANDLERS = {
    "gamma": _cmd_gamma,
    "in": _cmd_in,
    "bound": _cmd_bound,
    "ncrit": _cmd_ncrit,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code is None:
            return EXIT_OK
        return exc.code if isinstance(exc.code, int) else EXIT_BAD_INPUT
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        # the library's precondition checks; CriticalNotFoundError is a
        # ValueError too, but the handlers that expect it map it to exit 3
        return _fail(str(exc), EXIT_BAD_INPUT)
    except MemoryError as exc:
        # a request too large to hold is bad input, not a failed verification
        return _fail(f"out of memory: {exc}", EXIT_BAD_INPUT)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
