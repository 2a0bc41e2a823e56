"""The benchmark's four workloads, their jobs and their correctness checks.

Every job calls the library through an ``api`` namespace: the plain
functions in an untraced run, span-recording wrappers in a traced run.  A
workload's jobs come in cycles; one cycle visits every point of the
workload's grid once, in an order and with per-job seeds drawn from the
run's seed, so every run measures the same mix of job sizes.

Why each workload exists:

* ``mc-sphere`` -- ``leggett_bound_mc`` with sphere-uniform hidden states.
  ``bloch.sample_sphere`` and the ``leggett`` reduction do nearly all the
  work; chunking and O(d) sampling show here.
* ``mc-haar`` -- the same call with Haar-pure hidden states, which runs a
  per-sample Python loop through ``bloch.state_to_bloch``.  Kept apart from
  mc-sphere so that a change which speeds one hidden-state path and slows
  the other cannot hide in a mixed total.
* ``critical-scan`` -- ``find_critical_n`` over d = 2..24 and four purities:
  one ``quantum.cglmp_chained_value`` call per N scanned, plus the Born-rule
  and closed-form tensors as cross-checks.  ``bloch`` does no work here, so
  it is the bypass workload for every Monte Carlo change.
* ``verify-suite`` -- theorem-1 and lemma trials on random no-signaling
  boxes, the local deterministic floor and the contradiction certificate:
  small tensors, where the cost is Python overhead in ``nosignaling`` plus
  ``quantum.chained_value``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import types
from dataclasses import dataclass

import numpy as np

import cryptononlocal
from cryptononlocal import bloch, cli, leggett, nosignaling, quantum

ETAS = (0.5, 0.7, 0.9, 1.0)

# Critical settings counts locked by the acceptance suite (d = 2..8).
LOCKED_CRITICAL_N = {
    (2, 0.5): 10, (2, 0.7): 8, (2, 0.9): 6, (2, 1.0): 5,
    (3, 0.5): 30, (3, 0.7): 22, (3, 0.9): 17, (3, 1.0): 15,
    (4, 0.5): 67, (4, 0.7): 48, (4, 0.9): 37, (4, 1.0): 34,
    (5, 0.5): 124, (5, 0.7): 89, (5, 0.9): 69, (5, 1.0): 63,
    (6, 0.5): 208, (6, 0.7): 149, (6, 0.9): 116, (6, 1.0): 105,
    (7, 0.5): 323, (7, 0.7): 231, (7, 0.9): 180, (7, 1.0): 162,
    (8, 0.5): 475, (8, 0.7): 339, (8, 0.9): 264, (8, 1.0): 238,
}  # fmt: skip

# sha256 of the CLI's stdout, recorded from the library as it stands; a
# change that alters these bytes on purpose must record the new digest.
CLI_DIGESTS = {
    ("bound", "--d", "3", "--mc"): (
        "4167c7a095396d7c2dc097d2feb49b62771272df3a0c8bdf76f7742cae365b5c"
    ),
    ("sweep", "--fig", "3"): (
        "561326dcb4ab0ab311e50c9287d87acf4a57c48b8f7dde4e37a568bd2094c1a4"
    ),
    ("verify", "--suite", "theorem1", "--trials", "1000"): (
        "6bb1081fccff119f975e4cb0e636733e96839ef57951286646f0d1489edf2b3e"
    ),
}

# Functions the jobs call, by layer.  Each becomes one span in a traced run.
API_FUNCTIONS = {
    bloch: ("substream",),
    quantum: (
        "chained_settings",
        "cglmp_bases",
        "maximally_entangled",
        "joint_distribution",
        "closed_form_probs",
        "chained_value",
        "cglmp_chained_value",
    ),
    leggett: (
        "basis_to_bloch",
        "leggett_bound_mc",
        "leggett_bound_analytic",
        "leggett_bound_floor",
        "find_critical_n",
    ),
    nosignaling: (
        "random_no_signaling",
        "check_no_signaling",
        "verify_shift_bound",
        "check_agreement_bound",
        "statistical_distance",
        "lhv_min_chained",
        "strategy_chained_value",
        "deterministic_contradiction",
    ),
    cli: ("main",),
}


def make_api(wrap=None) -> types.SimpleNamespace:
    """Namespace of the library functions the jobs call, optionally wrapped."""
    ns = types.SimpleNamespace(LocalModel=leggett.LocalModel)
    for module, names in API_FUNCTIONS.items():
        for name in names:
            func = getattr(module, name)
            setattr(ns, name, wrap(func) if wrap else func)
    return ns


@dataclass(frozen=True)
class JobResult:
    ok: bool
    fingerprint: tuple
    std_error: float | None = None


def run_cli(api, argv: tuple[str, ...]) -> tuple[int, str]:
    """Call ``cli.main`` in-process with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = api.main(list(argv))
    return code, buf.getvalue()


def cli_output_ok(argv: tuple[str, ...], code: int, stdout: str | bytes) -> bool:
    data = stdout.encode() if isinstance(stdout, str) else stdout
    return code == 0 and hashlib.sha256(data).hexdigest() == CLI_DIGESTS[argv]


class Workload:
    """A grid of job parameters, the job itself and its warm-up."""

    name = ""
    kernel = ""  # speed-gauge kernel in calibrate.KERNELS
    cycle_s = 1.0  # nominal seconds per cycle when the benchmark was defined
    min_cycles = 1
    cli_argv: tuple[str, ...] | None = None
    seeded_jobs = True  # whether each job takes its own seed

    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        self.grid = self.make_grid()

    def make_grid(self) -> list[tuple]:
        raise NotImplementedError

    def run(self, api, params: tuple) -> JobResult:
        raise NotImplementedError

    def warm_up(self, api) -> None:
        raise NotImplementedError

    def cycle(self, rng: np.random.Generator) -> list[tuple]:
        """One pass over the grid in a seeded order, with seeded job seeds."""
        order = rng.permutation(len(self.grid))
        jobs = []
        for i in order:
            seed = (int(rng.integers(0, 2**63)),) if self.seeded_jobs else ()
            jobs.append(self.grid[i] + seed)
        return jobs


class MonteCarlo(Workload):
    """``leggett_bound_mc`` for one (d, eta) point, checked within 5 sigma."""

    u_mode = ""
    dims = (3, 4, 5, 6)

    def make_grid(self):
        return [(d, eta) for d in self.dims for eta in ETAS]

    def reference(self, api, d: int, eta: float) -> float:
        raise NotImplementedError

    def samples(self, d: int) -> int:
        raise NotImplementedError

    def job(self, api, d: int, eta: float, seed: int, samples: int) -> JobResult:
        settings = api.chained_settings(d, 1)
        alice, _ = api.cglmp_bases(settings)
        basis = api.basis_to_bloch(alice[0])
        model = api.LocalModel(d=d, eta=eta, u_mode=self.u_mode)
        est = api.leggett_bound_mc(basis, model, samples, seed)
        ref = self.reference(api, d, eta)
        ok = (
            est.samples == samples
            and est.std_error > 0
            and abs(est.value - ref) <= 5.0 * est.std_error
        )
        return JobResult(ok, (est.value, est.std_error), est.std_error)

    def run(self, api, params):
        return self.job(api, *params, self.samples(params[0]))

    def warm_up(self, api):
        for d in self.dims:
            self.job(api, d, 1.0, 0, self.warm_up_samples)


class MCSphere(MonteCarlo):
    name = "mc-sphere"
    u_mode = "sphere-uniform"
    kernel = "gaussian_block"
    cycle_s = 1.98
    cli_argv = ("bound", "--d", "3", "--mc")

    # 2**16-sample chunks per job, fewer at larger d so that every job
    # costs about the same here; with four equal-time levels the median job
    # would sit in the gap between the d=4 and d=5 levels and jump with noise.
    chunks = {3: 8, 4: 5, 5: 3, 6: 2}
    warm_up_samples = 2**10

    def samples(self, d):
        return 2**11 if self.tiny else self.chunks[d] * 2**16

    def reference(self, api, d, eta):
        return api.leggett_bound_analytic(d, eta).value


class MCHaar(MonteCarlo):
    name = "mc-haar"
    u_mode = "haar-pure"
    kernel = "bloch_map_loop"
    cycle_s = 1.87

    warm_up_samples = 2**8

    def samples(self, d):
        # ~15 us per sample here, so a job is a fraction of one chunk
        return 2**8 if self.tiny else 2**13

    def reference(self, api, d, eta):
        return eta / d  # exact Haar-pure value: the weights are flat Dirichlet


class CriticalScan(Workload):
    """``find_critical_n`` for one (d, eta) point with its cross-checks."""

    name = "critical-scan"
    kernel = "closed_form_loop"
    cycle_s = 4.78
    # the slowest few grid points form the tail: see each of them three times
    min_cycles = 3
    cli_argv = ("sweep", "--fig", "3")
    seeded_jobs = False
    n_max = 100_000
    # Tensor cross-checks stay within N*d <= 1600, a 41 MB complex tensor,
    # and run on the locked range d <= 8.  A job whose N_crit*d exceeds the
    # cap is cross-checked at the largest N under it, floor(1600/d), which
    # is N = 200 at d = 8.
    tensor_cap = 1600

    def make_grid(self):
        dims = range(2, 6) if self.tiny else range(2, 25)
        return [(d, eta) for d in dims for eta in ETAS]

    def run(self, api, params):
        d, eta = params
        n = api.find_critical_n(d, eta, self.n_max)
        floor = api.leggett_bound_floor(d, eta)
        i_n = api.cglmp_chained_value(d, n)
        ok = i_n < floor and (n == 1 or api.cglmp_chained_value(d, n - 1) >= floor)
        fingerprint = (n, i_n)
        if d <= 8:
            ok = ok and LOCKED_CRITICAL_N[(d, eta)] == n
            n_chk = min(n, self.tensor_cap // d)
            settings = api.chained_settings(d, n_chk)
            exact = api.cglmp_chained_value(d, n_chk)
            born = api.chained_value(
                api.joint_distribution(api.maximally_entangled(d), settings)
            )
            closed = api.chained_value(api.closed_form_probs(settings))
            ok = (
                ok
                and abs(born - exact) <= 1e-10
                and abs(closed - exact) <= 1e-10
                and (born < floor) == (n_chk == n)
            )
            fingerprint += (born, closed)
        return JobResult(ok, fingerprint)

    def warm_up(self, api):
        self.run(api, (3, 1.0))


class VerifySuite(Workload):
    """Property trials at one (d, n) point, with the LHV floor and certificate."""

    name = "verify-suite"
    kernel = "small_box_loop"
    cycle_s = 0.384
    cli_argv = ("verify", "--suite", "theorem1", "--trials", "1000")
    lhv_cap = 10**5  # strategies d**(2n) enumerated at most
    tol = 1e-9

    def __init__(self, tiny=False):
        super().__init__(tiny)
        self.theorem_trials = 2 if tiny else 20
        self.lemma_trials = 1 if tiny else 4

    def make_grid(self):
        dims, ns = ((2, 3), (2, 3)) if self.tiny else (range(2, 7), range(2, 9))
        return [(d, n) for d in dims for n in ns]

    def run(self, api, params):
        d, n, seed = params
        ok = True
        min_shift = min_agree = math.inf
        for t in range(self.theorem_trials):
            gen = api.substream(seed, t)
            box = api.random_no_signaling(d, n, float(gen.uniform()), gen)
            signaling = api.check_no_signaling(box)
            report = api.verify_shift_bound(box, self.tol)
            ok = ok and signaling.passed and report.slack >= -self.tol
            min_shift = min(min_shift, report.slack)
        max_triangle = -math.inf
        for t in range(self.lemma_trials):
            gen = api.substream(seed, self.theorem_trials + t)
            box = api.random_no_signaling(d, n, float(gen.uniform()), gen)
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    report = api.check_agreement_bound(box, a, b, self.tol)
                    ok = ok and report.slack >= -self.tol
                    min_agree = min(min_agree, report.slack)
            p, q, r = gen.dirichlet(np.ones(d), size=3)
            sd = api.statistical_distance
            viol = sd(p, r) - (sd(p, q) + sd(q, r))
            ok = ok and viol <= 1e-12
            max_triangle = max(max_triangle, viol)
        lhv = None
        if d ** (2 * n) <= self.lhv_cap:
            lhv, witness = api.lhv_min_chained(d, n)
            ok = (
                ok
                and lhv == d - 1
                and api.strategy_chained_value(d, witness.alice, witness.bob) == lhv
            )
        alice, _ = api.cglmp_bases(api.chained_settings(d, 2))
        cert = api.deterministic_contradiction(alice[0], alice[1], 0, 0)
        a_vec, b_vec, u = cert.vector_a, cert.vector_b, cert.best_direction
        attained = min(float(a_vec @ u), float(b_vec @ u))
        ok = (
            ok
            and cert.certified
            and cert.gap > 0
            and abs(attained - cert.max_min_overlap) <= 1e-12
        )
        return JobResult(ok, (min_shift, min_agree, max_triangle, lhv, cert.gap))

    def warm_up(self, api):
        self.run(api, (2, 2, 0))


WORKLOADS = {w.name: w for w in (MCSphere, MCHaar, CriticalScan, VerifySuite)}


def make_workload(name: str, tiny: bool = False) -> Workload:
    return WORKLOADS[name](tiny)


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _mc_hook(counts, args, kwargs):
    basis, model = _arg(args, kwargs, 0, "basis"), _arg(args, kwargs, 1, "model")
    n = int(_arg(args, kwargs, 2, "n_samples"))
    d = basis.d
    nbytes = n * (d * d - 1) * 8  # real Bloch-vector sample array
    if model.u_mode == "haar-pure":
        nbytes += n * d * 16  # complex state amplitudes
    counts["leggett.leggett_bound_mc.bytes_computed"] += nbytes
    counts["leggett.leggett_bound_mc.samples"] += n
    if d == 6:
        return (f"mc_{model.u_mode.split('-')[0]}_d6.s_per_sample", n)
    return None


def _tensor_hook(name, entry_bytes, settings_arg):
    def hook(counts, args, kwargs):
        s = _arg(args, kwargs, settings_arg, "settings")
        nbytes = (s.n * s.d) ** 2 * entry_bytes
        counts[f"{name}.bytes_computed"] += nbytes
        counts["quantum.bytes_computed"] += nbytes
        return (f"{name}(8,200).s_per_call", 1) if (s.d, s.n) == (8, 200) else None

    return hook


def _args_hook(label, want):
    def hook(counts, args, kwargs):
        return (label, 1) if tuple(args[: len(want)]) == want else None

    return hook


def _lhv_hook(counts, args, kwargs):
    d, n = _arg(args, kwargs, 0, "d"), _arg(args, kwargs, 1, "n")
    counts["nosignaling.lhv_min_chained.strategies"] += d ** (2 * n)
    return ("nosignaling.lhv_min_chained(2,8).s_per_call", 1) if (d, n) == (2, 8) else None


# Computed counts and hot-path tags, attached by span name.
SPAN_HOOKS = {
    "leggett.leggett_bound_mc": _mc_hook,
    "quantum.joint_distribution": _tensor_hook("quantum.joint_distribution", 16, 1),
    "quantum.closed_form_probs": _tensor_hook("quantum.closed_form_probs", 8, 0),
    "quantum.cglmp_chained_value": _args_hook(
        "quantum.cglmp_chained_value(3,15).s_per_call", (3, 15)
    ),
    "leggett.find_critical_n": _args_hook(
        "leggett.find_critical_n(20,1.0).s_per_call", (20, 1.0)
    ),
    "nosignaling.lhv_min_chained": _lhv_hook,
}

PACKAGE = cryptononlocal
