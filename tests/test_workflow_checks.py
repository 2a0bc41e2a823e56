"""Checks run in a child process of ``sys.executable``, each under a limit
that acts on the child alone, set in its ``preexec_fn``: a 1 GiB address
space (``RLIMIT_AS``) or one CPU (``sched_setaffinity``).

``CHECKS`` is the one table of single-child checks.  A row gives the child's
arguments, its limit, its exit code and the text it writes to stdout and
stderr together (as ``2>&1``), where ``...`` stands for any text.  The tests
after the table compare several children (pinned against pooled, one
OpenBLAS thread against two) or need a fixture file.  The CI workflow runs
pytest and nothing else, which `test_workflow_steps_after_install_are_one_pytest_call_each`
enforces, so every check is here or elsewhere in tier-1.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import resource
except ImportError:  # no resource limits on this platform
    resource = None

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

_MC_HEX = """
import sys
from cryptononlocal.leggett import LocalModel, basis_to_bloch, leggett_bound_mc
from cryptononlocal.quantum import cglmp_bases, chained_settings
u_mode, d, n = sys.argv[1], *map(int, sys.argv[2:])
basis = basis_to_bloch(cglmp_bases(chained_settings(d, 1))[0][0])
e = leggett_bound_mc(basis, LocalModel(d=d, u_mode=u_mode), n, 7)
print(e.value.hex(), e.std_error.hex())
"""


def _run(args, preexec_fn=None, returncode=0, extra_env=None, merge_stderr=False):
    """stdout of ``sys.executable *args``, which must exit with ``returncode``;
    ``extra_env`` adds to or overrides the child's environment, and
    ``merge_stderr`` sends stderr into the returned output, as ``2>&1`` does."""
    env = dict(os.environ, **(extra_env or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *args],
        env=env,
        preexec_fn=preexec_fn,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT if merge_stderr else subprocess.PIPE,
        encoding="utf-8",
        timeout=120,
    )
    assert result.returncode == returncode, result.stderr or result.stdout
    return result.stdout


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _one_gib():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# whether this platform can set each limit
_CAN_SET = {_one_cpu: hasattr(os, "sched_setaffinity"), _one_gib: resource is not None}


def _cli(command):
    return ["-m", "cryptononlocal", *command.split()]


def _code(*statements):
    return ["-c", "; ".join(statements)]


_CHAINED = "from cryptononlocal.quantum import cglmp_bases, chained_settings"
# Alice's first vector turned by 1e-11 rad within her first basis
_TURNED = (
    "import math",
    _CHAINED,
    "a, b = cglmp_bases(chained_settings(3, 1))",
    "a[0, 0] = math.cos(1e-11) * a[0, 0] + math.sin(1e-11) * a[0, 1]",
)

# id: (child's arguments, limit, exit code, expected output).  The one-CPU
# row runs the Monte Carlo chunks in sequence, without the thread pool; the
# 1 GiB rows show that large-d tensors, index tables and refusals stay small.
CHECKS = {
    "bound-d3-mc": (_cli("bound --d 3 --mc"), _one_cpu, 0, "0.336143444499 ± 0.000149599913\n"),
    "bound-d100-mc": (_cli("bound --d 100 --mc --samples 130"), _one_gib, 0, "... ± ...\n"),
    "haar-mc-d100": (
        ["-c", _MC_HEX, "haar-pure", "100", "130"], _one_gib, 0, "0x...p-... 0x...p-...\n"
    ),
    "ncrit-d100": (_cli("ncrit --d 100 --eta 0.5 --nmax 1000000"), _one_gib, 0, "830693\n"),
    "ncrit-d24-nmax-1e20": (
        _cli(f"ncrit --d 24 --eta 0.5 --nmax {10**20}"), _one_gib, 0, "11845\n"
    ),
    "sweep-fig3-d100": (
        _cli("sweep --fig 3 --d-range 100..100 --eta-list 0.5 --n-range 2..1000000"),
        _one_gib, 0, "d,N,eta,i_n,bound,l_analytic,violated\n100,830693,0.5,...,true\n",
    ),
    "in-n-401-digits": (_cli(f"in --d 3 --n {10**400}"), _one_gib, 2, "error: --n is too large..."),
    "ncrit-nmax-401-digits": (
        _cli(f"ncrit --d 3 --nmax {10**400}"), _one_gib, 2, "error: --nmax is too large..."
    ),
    # each setting pair of the Born tensor sums to 1
    "born-tensor-d100-validates": (
        _code(
            "from cryptononlocal.quantum import chained_settings, joint_distribution, "
            "maximally_entangled",
            "joint_distribution(maximally_entangled(100), chained_settings(100, 12)).validate()",
        ),
        _one_gib, 0, "",
    ),
    # the closed form at edge phases, with no numpy warning
    "closed-form-edge-gaps-sum-to-one": (
        ["-W", "error", *_code(
            "import numpy as np",
            "from cryptononlocal.quantum import ChainedSettings, closed_form_probs",
            "p = closed_form_probs(ChainedSettings(100, [0.0, 0.5, 99.999999999999, -1e-20, 1.5], "
            "[0.0] * 5))",
            "p.validate(); dev = np.abs(p.probs.sum(axis=(2, 3)) - 1).max()",
            "assert dev <= 1e-15, dev",
        )],
        _one_gib, 0, "",
    ),
    # the d = 100 verify suites: each check's tensors and index tables stay small
    "verify-d100-contradiction": (
        _cli("verify --suite contradiction --d 100"), _one_gib, 0, "...-> PASS\n"
    ),
    "verify-d100-theorem1": (
        _cli("verify --suite theorem1 --n 20 --trials 2 --d 100"), _one_gib, 0, "...-> PASS\n"
    ),
    # boxes of many slabs of Alice settings, end to end
    "verify-n600-theorem1": (
        _cli("verify --suite theorem1 --d 2 --n 600 --trials 2"), _one_gib, 0,
        "theorem1 suite: d=2 n=600 trials=2 min_slack=601.04158982108 -> PASS\n",
    ),
    "verify-d100-lemma": (
        _cli("verify --suite lemma --n 20 --trials 1 --d 100"), _one_gib, 0, "...-> PASS\n"
    ),
    "verify-d100-lhv": (
        _cli("verify --suite lhv --n 1000000 --d 100"), _one_gib, 0, "...-> PASS\n"
    ),
    "repeated-bob-column-refused": (
        _code(
            _CHAINED + ", joint_from_bases, maximally_entangled",
            "a, b = cglmp_bases(chained_settings(3, 2)); b[0, 1] = b[0, 0]",
            "joint_from_bases(maximally_entangled(3), a, b)",
        ),
        _one_gib, 1, "...ValueError: bob setting 1 is not an orthonormal basis...",
    ),
    "turned-basis-refused-by-basis-to-bloch": (
        _code(*_TURNED, "from cryptononlocal.leggett import basis_to_bloch; basis_to_bloch(a[0])"),
        _one_gib, 1, "...ValueError: basis is not an orthonormal basis...",
    ),
    "turned-basis-refused-by-joint-from-bases": (
        _code(
            *_TURNED,
            "from cryptononlocal.quantum import joint_from_bases, maximally_entangled",
            "joint_from_bases(maximally_entangled(3), a, b)",
        ),
        _one_gib, 1, "...ValueError: alice setting 1 is not an orthonormal basis...",
    ),
    "last-chained-basis-d100-maps-to-bloch": (
        _code(
            _CHAINED + "; from cryptononlocal.leggett import basis_to_bloch",
            "basis_to_bloch(cglmp_bases(chained_settings(100, 12))[0][11])",
        ),
        _one_gib, 0, "",
    ),
}


def _matches(expected, out):
    """Whether ``out`` is ``expected`` with each ``...`` standing for any text."""
    pattern = ".*".join(map(re.escape, expected.split("...")))
    return re.fullmatch(pattern, out, re.DOTALL) is not None


@pytest.mark.parametrize("check", CHECKS)
def test_child_process_check(check):
    args, limit, returncode, expected = CHECKS[check]
    if not _CAN_SET[limit]:
        pytest.skip(f"{limit.__name__} cannot be set on this platform")
    out = _run(args, limit, returncode, merge_stderr=True)
    assert _matches(expected, out), out


@pytest.mark.skipif(not _CAN_SET[_one_cpu], reason="no CPU affinity on this platform")
@pytest.mark.parametrize(
    "u_mode,d,n_samples",
    [
        # four chunks, the last of 7 samples
        ("haar-pure", 3, 3 * 65536 + 7),
        ("sphere-uniform", 3, 3 * 65536 + 7),
        # two chunks of 64-row blocks, whose products OpenBLAS may split over its threads
        ("haar-pure", 51, 2 * 65536),
        # two chunks, the last of 7 samples, of 64-row blocks, each block's
        # projection summed over 240-coordinate slices
        ("sphere-uniform", 17, 65536 + 7),
    ],
)
def test_mc_estimate_same_pinned_to_one_cpu_and_pooled(u_mode, d, n_samples):
    # pinned to one CPU the chunks run in sequence, without the thread pool
    args = ["-c", _MC_HEX, u_mode, str(d), str(n_samples)]
    pinned = _run(args, preexec_fn=_one_cpu)
    assert len(pinned.split()) == 2  # value and standard error
    assert pinned == _run(args)


_BORN_SHA256 = """
import hashlib
from cryptononlocal.quantum import chained_settings, joint_distribution, maximally_entangled
for d, n in ((8, 200), (100, 12)):
    probs = joint_distribution(maximally_entangled(d), chained_settings(d, n)).probs
    print(hashlib.sha256(probs.tobytes()).hexdigest())
"""


@pytest.mark.skipif(not _CAN_SET[_one_cpu], reason="no CPU affinity on this platform")
def test_born_tensor_same_for_blas_threads_pinned_and_pooled():
    # (8, 200) runs on the thread pool in products OpenBLAS keeps in one
    # thread; (100, 12) is one task whose whole products it may split
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    outputs = []
    for threads in ("1", "2"):
        blas = dict.fromkeys(blas_vars, threads)
        for preexec_fn in (None, _one_cpu):
            outputs.append(_run(["-c", _BORN_SHA256], preexec_fn, extra_env=blas))
    assert len(outputs[0].split()) == 2
    assert outputs == outputs[:1] * 4


@pytest.mark.skipif(not _CAN_SET[_one_gib], reason="no resource limits on this platform")
def test_signaling_fixture_exits_2_in_one_gib(tmp_path):
    # Alice's outcome follows Bob's setting: a box that signals
    box = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]] * 2
    fixture = tmp_path / "signaling.json"
    fixture.write_text(json.dumps({"d": 2, "n": 2, "probs": box}))
    _run([*_cli("verify --suite theorem1 --input"), str(fixture)], _one_gib, returncode=2)


# one pytest call, as ``[VAR=value ...] [taskset -c N] python[3] [-X dev] -m pytest [args]``,
# with no second command, pipe or command substitution
_PYTEST_CALL = re.compile(
    r"(\w+=[^\s;&|`]+ )*(taskset -c \d+ )?python3? (-X dev )?-m pytest( [^;&|`\n]*)?"
)


def test_workflow_steps_after_install_are_one_pytest_call_each():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    steps, current = [], None
    for line in workflow.splitlines():
        step = re.match(r"\s*- (?:name|uses): (.*)", line)
        if step:
            current = {"name": step[1], "run": None}
            steps.append(current)
        run = re.match(r"\s*run: (.*)", line)
        if run:
            current["run"] = run[1]
    names = [step["name"] for step in steps]
    after_install = steps[names.index("Install") + 1 :]
    assert len(after_install) >= 3, names  # tier-1, the one-CPU Monte Carlo tests, perfbench
    for step in after_install:
        # a block scalar (``run: |``) reads as "|" and fails too
        assert step["run"] and _PYTEST_CALL.fullmatch(step["run"]) and "$(" not in step["run"], step
