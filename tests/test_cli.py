import hashlib
import json
import sys
from itertools import product

import numpy as np
import pytest

from cryptononlocal import cli
from cryptononlocal.cli import (
    MAX_SWEEP_ROWS,
    _grid_max_min_overlap,
    _min_plus_lhv_min,
    main,
)
from cryptononlocal.quantum import JointDistribution


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gamma_output(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--d", "2")
    assert code == 0
    assert out == "0.616850275068\n"
    code, out, _ = run_cli(capsys, "gamma", "--d", "3")
    assert code == 0
    assert out == "1.096622711232\n"


def test_gamma_rejects_small_dimension(capsys):
    code, _, err = run_cli(capsys, "gamma", "--d", "1")
    assert code == 2
    assert "d must be >= 2" in err


def test_in_exact_below_threshold(capsys):
    code, out, _ = run_cli(capsys, "in", "--d", "3", "--n", "15")
    assert code == 0
    assert float(out) < 4.0 / 27.0


def test_in_asymptotic(capsys):
    code, out, _ = run_cli(capsys, "in", "--d", "3", "--n", "15", "--asymptotic")
    assert code == 0
    assert out == "0.146216361498\n"


def test_in_qubit_value(capsys):
    code, out, _ = run_cli(capsys, "in", "--d", "2", "--n", "5")
    assert code == 0
    assert float(out) == pytest.approx(0.244717, abs=1e-6)


def test_bound_floor(capsys):
    code, out, _ = run_cli(capsys, "bound", "--d", "3", "--eta", "1.0")
    assert code == 0
    assert out == "0.148148148148\n"


def test_bound_analytic(capsys):
    code, out, _ = run_cli(capsys, "bound", "--d", "2", "--analytic")
    assert code == 0
    assert out == "0.5\n"


def test_bound_mc_consistent_with_analytic(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--d", "3", "--mc", "--samples", "200000", "--seed", "7"
    )
    assert code == 0
    value, stderr = (float(tok) for tok in out.strip().split(" ± "))
    assert abs(value - 0.336048) < 3 * stderr


def test_bound_mc_default_bytes(capsys):
    # the bytes the benchmark's pinned digest of `bound --d 3 --mc` reads:
    # a change to the Monte Carlo kernel that moves them fails here
    code, out, _ = run_cli(capsys, "bound", "--d", "3", "--mc")
    assert (code, out) == (0, "0.336143444499 ± 0.000149599913\n")


def test_theorem1_default_bytes(capsys):
    # the bytes the benchmark's pinned digest of `verify --suite theorem1
    # --trials 1000` reads: a change to chained_value that moves them fails here
    code, out, _ = run_cli(capsys, "verify", "--suite", "theorem1", "--trials", "1000")
    assert (code, out) == (
        0,
        "theorem1 suite: d=3 n=3 trials=1000 min_slack=1.470948704449 -> PASS\n",
    )


def test_sweep_fig3_default_bytes(capsys):
    # the bytes the benchmark's pinned digest of `sweep --fig 3` reads: a
    # change to the closed-form kernel that moves a printed I_N fails here
    code, out, _ = run_cli(capsys, "sweep", "--fig", "3")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "561326dcb4ab0ab311e50c9287d87acf4a57c48b8f7dde4e37a568bd2094c1a4"


def test_ncrit(capsys):
    code, out, _ = run_cli(capsys, "ncrit", "--d", "3", "--eta", "1.0", "--nmax", "100")
    assert (code, out) == (0, "15\n")
    code, out, _ = run_cli(capsys, "ncrit", "--d", "2", "--eta", "1.0", "--nmax", "100")
    assert (code, out) == (0, "5\n")


def test_ncrit_not_found(capsys):
    code, out, _ = run_cli(capsys, "ncrit", "--d", "3", "--eta", "0.1", "--nmax", "5")
    assert code == 3
    assert out.startswith("NOT-FOUND gap=")


def test_sweep_threshold_defaults(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--fig", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d,N,eta,i_n,bound,l_analytic,violated"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 29  # N = 2 .. 30
    first_violated = next(r for r in rows if r[6] == "true")
    assert first_violated[1] == "15"


def test_sweep_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "sweep", "--fig", "2", "--format", "json")
    _, out2, _ = run_cli(capsys, "sweep", "--fig", "2", "--format", "json")
    assert out1 == out2


def test_sweep_csv_json_round_trip(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "rows.json"
    assert main(["sweep", "--fig", "2", "--out", str(csv_path)]) == 0
    assert main(["sweep", "--fig", "2", "--format", "json", "--out", str(json_path)]) == 0
    rows_json = json.loads(json_path.read_text())
    lines = csv_path.read_text().strip().split("\n")[1:]
    assert len(lines) == len(rows_json)
    for line, obj in zip(lines, rows_json):
        d, n, eta, i_n, bound, l_analytic, violated = line.split(",")
        assert int(d) == obj["d"] and int(n) == obj["N"]
        for text, value in [(eta, obj["eta"]), (i_n, obj["i_n"]),
                            (bound, obj["bound"]), (l_analytic, obj["l_analytic"])]:
            assert float(text) == value
        assert (violated == "true") == obj["violated"]


def test_sweep_critical_table_monotone(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--fig", "3", "--d-range", "2..4", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    for d in (2, 3, 4):
        per_eta = [(r["eta"], r["N"]) for r in rows if r["d"] == d]
        etas = [e for e, _ in per_eta]
        ncrits = [n for _, n in per_eta]
        assert etas == sorted(etas)
        assert all(a >= b for a, b in zip(ncrits, ncrits[1:]))
        assert all(r["violated"] for r in rows)


def test_sweep_critical_rows_take_i_n_from_the_search(monkeypatch):
    # the i_n column is the I_N the search compared at N_crit, bit for bit,
    # though the search evaluates whole rounds of N and the row one N
    from cryptononlocal import leggett, quantum

    seen = {}

    def recording(d, ns):
        values = quantum._chained_values(d, ns)
        seen.update(((d, n), v) for n, v in zip(ns, values))
        return values

    monkeypatch.setattr(leggett, "_chained_values", recording)
    rows = cli._sweep_rows(3, (2, 6), [0.5, 0.7, 0.9, 1.0], (2, 1000))
    assert len(rows) == 5 * 4
    for r in rows:
        assert r["i_n"] == seen[r["d"], r["N"]] < r["bound"]


def test_sweep_empty_range_rejected(capsys):
    code, _, err = run_cli(capsys, "sweep", "--fig", "2", "--n-range", "9..3")
    assert code == 2
    assert "range" in err


def test_sweep_unwritable_path(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--fig", "2", "--out", "/nonexistent-dir-xyz/rows.csv"
    )
    assert code == 4
    assert "cannot write" in err


def test_verify_theorem1(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "theorem1", "--d", "3", "--n", "3",
        "--trials", "50", "--seed", "3",
    )
    assert code == 0
    assert "PASS" in out


def test_verify_lemma(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "lemma", "--d", "2", "--n", "2",
        "--trials", "50", "--seed", "5",
    )
    assert code == 0
    assert "PASS" in out


def test_verify_lhv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lhv", "--d", "2", "--n", "2")
    assert code == 0
    assert "min=1" in out and "PASS" in out


@pytest.mark.parametrize("d,n", [(3, 9), (10, 5)])
def test_verify_lhv_beyond_enumeration(capsys, d, n):
    # d^(2n) = 3.9e8 and 1e10 strategies: out of reach of an enumeration
    code, out, _ = run_cli(capsys, "verify", "--suite", "lhv", "--d", str(d), "--n", str(n))
    zeros = str([0] * n)
    assert code == 0
    assert out == (
        f"lhv suite: d={d} n={n} min={d - 1} expected={d - 1} "
        f"witness alice={zeros} bob={zeros} -> PASS\n"
    )


def test_verify_lhv_caps_n_before_building_the_witness(capsys, monkeypatch):
    def no_witness(d, n):
        raise AssertionError("witness built")

    monkeypatch.setattr(cli, "lhv_min_chained", no_witness)
    n = MAX_SWEEP_ROWS + 1
    code, out, err = run_cli(capsys, "verify", "--suite", "lhv", "--d", "2", "--n", str(n))
    assert code == 2
    assert f"--n {n} exceeds the cap of {MAX_SWEEP_ROWS} settings" in err
    assert out == ""


@pytest.mark.parametrize("d,n", [(2, 2), (2, 5), (2, 8), (3, 3), (3, 5), (4, 4), (5, 3), (6, 3)])
def test_min_plus_lhv_min_matches_enumeration(d, n):
    # every (alice, bob) pair of outcome sequences at once
    a = np.array(list(product(range(d), repeat=n)))[:, None, :]
    b = a.transpose(1, 0, 2)
    a_next = np.concatenate([a[..., 1:], a[..., :1] + 1], axis=-1)
    brute = ((a - b) % d + (b - a_next) % d).sum(axis=-1).min()
    assert _min_plus_lhv_min(d, n) == brute


def test_verify_contradiction(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "contradiction", "--d", "3")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grid_max_min_overlap_matches_dense_grid(seed):
    # oracle: every grid point built as a full vector u
    gen = np.random.default_rng(seed)
    a, b = gen.standard_normal((2, 15))
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    e1 = a
    e2 = b - (b @ e1) * e1
    e2 /= np.linalg.norm(e2)
    phi = np.linspace(0.0, 2.0 * np.pi, 2001)
    u = np.outer(np.cos(phi), e1) + np.outer(np.sin(phi), e2)
    dense = np.minimum(u @ a, u @ b).max()
    assert _grid_max_min_overlap(a, b, points=2001) == pytest.approx(dense, abs=1e-14)


def test_out_of_memory_exits_2(capsys):
    # the first allocation, an (n, n, d, d) tensor of 639 PiB, exceeds any
    # 48-bit address space, so it fails before any memory is touched
    code, out, err = run_cli(
        capsys, "verify", "--suite", "theorem1", "--d", "3", "--n", "100000000"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of memory: Unable to allocate 639. PiB")


def test_verify_rejects_signaling_fixture(capsys, tmp_path):
    probs = np.zeros((2, 2, 2, 2))
    probs[:, 0, 0, 0] = 1.0
    probs[:, 1, 1, 0] = 1.0  # Alice's outcome tracks Bob's setting
    fixture = tmp_path / "signaling.json"
    fixture.write_text(json.dumps({"d": 2, "n": 2, "probs": probs.tolist()}))
    code, _, err = run_cli(
        capsys, "verify", "--suite", "theorem1", "--input", str(fixture)
    )
    assert code == 2
    assert "signals" in err


def test_verify_rejects_non_finite_fixture(capsys, tmp_path):
    probs = np.full((2, 2, 2, 2), np.nan)
    fixture = tmp_path / "nan.json"
    fixture.write_text(json.dumps({"d": 2, "n": 2, "probs": probs.tolist()}))
    code, _, err = run_cli(
        capsys, "verify", "--suite", "theorem1", "--input", str(fixture)
    )
    assert code == 2
    assert "non-finite entry" in err
    assert "signals" not in err


def test_verify_accepts_no_signaling_fixture(capsys, tmp_path):
    probs = np.full((2, 2, 2, 2), 0.25)
    fixture = tmp_path / "uniform.json"
    fixture.write_text(json.dumps({"d": 2, "n": 2, "probs": probs.tolist()}))
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "theorem1", "--input", str(fixture)
    )
    assert code == 0
    assert "PASS" in out


def test_verify_determinism(capsys):
    args = ["verify", "--suite", "theorem1", "--d", "2", "--n", "2",
            "--trials", "20", "--seed", "11"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "argv,needle",
    [
        (("gamma", "--d", "1"), "d must"),
        (("in", "--d", "1", "--n", "5"), "d must"),
        (("in", "--d", "3", "--n", "0"), "n must"),
        (("bound", "--d", "1"), "d must"),
        (("bound", "--d", "3", "--eta", "0"), "eta"),
        (("bound", "--d", "3", "--eta", "1.5", "--analytic"), "eta"),
        (("bound", "--d", "3", "--mc", "--samples", "0"), "samples"),
        (("ncrit", "--d", "1"), "d must"),
        (("ncrit", "--d", "3", "--eta", "0"), "eta"),
        (("ncrit", "--d", "3", "--nmax", "1"), "max"),
        (("verify", "--suite", "theorem1", "--d", "1"), "d must"),
        (("verify", "--suite", "theorem1", "--n", "0"), "n must"),
        (("verify", "--suite", "theorem1", "--trials", "0"), "trials"),
        (("verify", "--suite", "lhv", "--d", "1"), "d must"),
        (("sweep", "--fig", "2", "--d-range", "1..3"), "range"),
        (("sweep", "--fig", "2", "--eta-list", "0"), "eta"),
        (("verify", "--suite", "lhv", "--n", "0"), "n must"),
    ],
)
def test_bad_arguments_exit_2_and_name_the_parameter(capsys, argv, needle):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert needle in err
    assert out == ""


_PAST_FLOAT = "1" + "0" * 400


@pytest.mark.parametrize(
    "argv",
    [
        ("in", "--d", "3", "--n", _PAST_FLOAT),
        ("in", "--d", "3", "--n", _PAST_FLOAT, "--asymptotic"),
        ("ncrit", "--d", "3", "--nmax", _PAST_FLOAT),
        ("sweep", "--fig", "3", "--n-range", f"2..{_PAST_FLOAT}"),
    ],
)
def test_integers_past_the_float_range_exit_2(capsys, argv):
    # an OverflowError once left a traceback and exit 1, the failed-check code
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert "too large" in err
    # it names the option and the limit, where Python's message named neither
    option = next(a for a, value in zip(argv, argv[1:]) if _PAST_FLOAT in value)
    assert err.startswith(f"error: {option} is too large: N may be at most ")


_MAX_COUNT = int(sys.float_info.max) // 2  # the largest N whose 2N is a float


@pytest.mark.parametrize(
    "argv,option",
    [
        (("in", "--d", "3", "--n"), "--n"),
        (("in", "--d", "3", "--asymptotic", "--n"), "--n"),
        (("ncrit", "--d", "3", "--nmax"), "--nmax"),
        (("sweep", "--fig", "2", "--n-range"), "--n-range"),
    ],
)
def test_settings_counts_stop_where_2n_leaves_the_float_range(capsys, argv, option):
    last = str(_MAX_COUNT)
    for count, expected in ((last, (0, 3)), (str(_MAX_COUNT + 1), (2,))):
        value = f"{count}..{count}" if option == "--n-range" else count
        code, _, err = run_cli(capsys, *argv, value)
        assert code in expected
        if code == 2:
            assert err == f"error: {option} is too large: N may be at most {float(last)!r}\n"


@pytest.mark.parametrize(
    "extra,rows",
    [
        (("--n-range", "2..1000000000"), 999_999_999),
        (("--n-range", "2..1000001"), 1_000_000),
        (("--n-range", "2..1000002"), 1_000_001),
        (("--n-range", "1..250001", "--d-range", "2..5"), 1_000_004),
        (("--n-range", "1..100001", "--eta-list", ",".join(["0.5"] * 10)), 1_000_010),
    ],
)
def test_sweep_caps_the_row_count(capsys, monkeypatch, extra, rows):
    monkeypatch.setattr("cryptononlocal.cli._sweep_rows", lambda *_: [])
    code, _, err = run_cli(capsys, "sweep", "--fig", "2", *extra)
    if rows <= 10**6:
        assert code == 0
    else:
        assert code == 2
        assert f"sweep of {rows} rows exceeds the cap of 1000000 rows" in err


def _uniform_probs(d=2, n=2):
    return np.full((n, n, d, d), 1.0 / (d * d))


def _probs_with(value, at=(0, 0, 0, 0)):
    probs = _uniform_probs().astype(object)
    probs[at] = value
    return probs.tolist()


def _negative_probs():
    probs = _uniform_probs()
    probs[0, 0, 0, 0] = -0.25
    probs[0, 0, 0, 1] = 0.75
    return probs.tolist()


def _signaling_probs():
    probs = np.zeros((2, 2, 2, 2))
    probs[:, 0, 0, 0] = 1.0
    probs[:, 1, 1, 0] = 1.0  # Alice's outcome tracks Bob's setting
    return probs.tolist()


UNIFORM = _uniform_probs().tolist()
# P(X=0, Y=0 | A, B) = 1: no-signaling and normalized, so written with
# strings or booleans in place of numbers it names only the type defect
CERTAIN_00 = np.zeros((2, 2, 2, 2))
CERTAIN_00[:, :, 0, 0] = 1.0


def _certain_00_with_one_true():
    probs = CERTAIN_00.astype(object)
    probs[0, 0, 0, 0] = True
    return probs.tolist()


def _fx(probs=UNIFORM, **fields):
    return {"d": 2, "n": 2, "probs": probs, **fields}


@pytest.mark.parametrize(
    "payload,needle",
    [
        pytest.param(_fx([[[[0.5, 0.5], [0.0]]]]), "rectangular", id="ragged"),
        pytest.param(_fx(d=3), "does not match", id="d-mismatch"),
        pytest.param(_fx(n=3), "does not match", id="n-mismatch"),
        pytest.param(_fx(_probs_with("x")), "numbers", id="string"),
        pytest.param(_fx(_probs_with({})), "numbers", id="object"),
        pytest.param(
            _fx(np.where(CERTAIN_00 == 1, "1", "0").tolist()),
            "has dtype <U1",
            id="string-array",
        ),
        pytest.param(_fx((CERTAIN_00 == 1).tolist()), "has dtype bool", id="boolean-array"),
        pytest.param(
            _fx(_certain_00_with_one_true()), "an entry has dtype bool", id="boolean-entry"
        ),
        pytest.param(_fx(_negative_probs()), "negative", id="negative"),
        pytest.param(
            _fx((_uniform_probs() * 1.2).tolist()), "not normalized", id="unnormalized"
        ),
        pytest.param(_fx(n=10**12), "does not match", id="huge-n"),
        pytest.param(_fx(_probs_with(float("nan"))), "non-finite entry", id="nan"),
        pytest.param(
            _fx(np.full((2, 2, 2, 2), 1e308).tolist()),
            "setting pair not normalized",
            id="overflowing-sums",
        ),
        pytest.param(_fx(_signaling_probs()), "signals", id="signaling"),
        pytest.param([2, 2, UNIFORM], "JSON object", id="top-level-list"),
        pytest.param(_fx(d=2.5), "d must be an integer >= 2, got 2.5", id="float-d"),
        pytest.param(
            _fx(np.ones((2, 2, 1, 1)).tolist(), d=1),
            "d must be an integer >= 2, got 1",
            id="d-one",
        ),
        pytest.param(_fx([], n=0), "n must be an integer >= 1", id="n-zero"),
        pytest.param({"d": 2, "probs": UNIFORM}, "missing key 'n'", id="missing-key"),
        pytest.param("{d: 2, n: 2}", "not JSON", id="not-json"),
        pytest.param(_fx(2**1100), "numbers: int too large", id="huge-int"),
        pytest.param("[" * 100_000 + "]" * 100_000, "nested too deeply", id="deep"),
    ],
)
def test_verify_input_rejects_bad_fixture(capsys, tmp_path, payload, needle):
    fixture = tmp_path / "fixture.json"
    fixture.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code, out, err = run_cli(
        capsys, "verify", "--suite", "theorem1", "--input", str(fixture)
    )
    assert code == 2
    assert needle in err
    assert out == ""


def test_verify_input_signaling_fixture_exits_2(capsys, tmp_path):
    fixture = tmp_path / "signaling.json"
    fixture.write_text(json.dumps(_fx(_signaling_probs())))
    code, out, err = run_cli(
        capsys, "verify", "--suite", "theorem1", "--input", str(fixture)
    )
    assert code == 2
    assert err == "error: bad input distribution: distribution signals (residual 1 > 1e-09)\n"
    assert out == ""


def test_verify_theorem1_checks_each_box_once(capsys, tmp_path, monkeypatch):
    calls = []
    validate = JointDistribution.validate

    def counted(self, *args, **kwargs):
        calls.append(self)
        return validate(self, *args, **kwargs)

    monkeypatch.setattr(JointDistribution, "validate", counted)
    fixture = tmp_path / "uniform.json"
    fixture.write_text(json.dumps(_fx()))
    assert run_cli(capsys, "verify", "--suite", "theorem1", "--input", str(fixture))[0] == 0
    assert len(calls) == 1
    calls.clear()
    assert run_cli(capsys, "verify", "--suite", "theorem1", "--trials", "7")[0] == 0
    assert len(calls) == 7


@pytest.mark.parametrize("suite", ["lemma", "lhv", "contradiction"])
def test_verify_input_only_for_theorem1(capsys, tmp_path, suite):
    fixture = tmp_path / "bad.json"
    fixture.write_text("[1,2")
    code, out, err = run_cli(
        capsys, "verify", "--suite", suite, "--d", "2", "--n", "2",
        "--trials", "2", "--input", str(fixture),
    )
    assert code == 2
    assert "--input is read only by --suite theorem1" in err
    assert out == ""


def test_verify_unreadable_input_is_an_io_error(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(
        capsys, "verify", "--suite", "theorem1", "--input", str(missing)
    )
    assert code == 4
    assert f"cannot read {missing}" in err
    assert out == ""
