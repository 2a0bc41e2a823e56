"""Checks the CI workflow used to run as inline shell, each run here as a
subprocess of ``sys.executable`` whose limits act on the child alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import resource
except ImportError:  # no resource limits on this platform
    resource = None

SRC = str(Path(__file__).resolve().parents[1] / "src")

_HAAR_HEX = """
import sys
from cryptononlocal.leggett import LocalModel, basis_to_bloch, leggett_bound_mc
from cryptononlocal.quantum import cglmp_bases, chained_settings
d, n = map(int, sys.argv[1:])
basis = basis_to_bloch(cglmp_bases(chained_settings(d, 1))[0][0])
e = leggett_bound_mc(basis, LocalModel(d=d, u_mode="haar-pure"), n, 7)
print(e.value.hex(), e.std_error.hex())
"""


def _run(args, preexec_fn=None, returncode=0, extra_env=None):
    """stdout of ``sys.executable *args``, which must exit with ``returncode``;
    ``extra_env`` adds to or overrides the child's environment."""
    env = dict(os.environ, **(extra_env or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *args],
        env=env,
        preexec_fn=preexec_fn,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == returncode, result.stderr
    return result.stdout


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _one_gib():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform"
)
# four chunks, the last of 7 samples, and two chunks of 64-row blocks, whose
# products OpenBLAS may split over its threads
@pytest.mark.parametrize("d,n_samples", [(3, 3 * 65536 + 7), (51, 2 * 65536)])
def test_haar_estimate_same_pinned_to_one_cpu_and_pooled(d, n_samples):
    # pinned to one CPU the chunks run in sequence, without the thread pool
    args = ["-c", _HAAR_HEX, str(d), str(n_samples)]
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


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform"
)
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


# the d = 100 Born tensor and closed form of edge phases in a 1 GiB address
# space: each setting pair sums to 1, and no numpy warning is raised
@pytest.mark.skipif(resource is None, reason="no resource limits on this platform")
def test_born_tensor_at_d100_validates_in_one_gib():
    code = (
        "from cryptononlocal.quantum import chained_settings, joint_distribution, "
        "maximally_entangled; joint_distribution(maximally_entangled(100), "
        "chained_settings(100, 12)).validate()"
    )
    _run(["-c", code], _one_gib)


@pytest.mark.skipif(resource is None, reason="no resource limits on this platform")
def test_closed_form_edge_gaps_sum_to_one_in_one_gib():
    code = (
        "import numpy as np; from cryptononlocal.quantum import ChainedSettings, "
        "closed_form_probs; p = closed_form_probs(ChainedSettings(100, [0.0, 0.5, "
        "99.999999999999, -1e-20, 1.5], [0.0] * 5)); p.validate(); "
        "dev = np.abs(p.probs.sum(axis=(2, 3)) - 1).max(); assert dev <= 1e-15, dev"
    )
    _run(["-W", "error", "-c", code], _one_gib)


# the d = 100 verify suites in a 1 GiB address space: each check's tensors
# and index tables stay small at large d
@pytest.mark.skipif(resource is None, reason="no resource limits on this platform")
@pytest.mark.parametrize(
    "suite",
    [
        ["contradiction"],
        ["theorem1", "--n", "20", "--trials", "2"],
        ["lemma", "--n", "20", "--trials", "1"],
        ["lhv", "--n", "1000000"],
    ],
    ids=lambda suite: suite[0],
)
def test_verify_suite_at_d100_in_one_gib(suite):
    out = _run(["-m", "cryptononlocal", "verify", "--suite", *suite, "--d", "100"], _one_gib)
    assert out.endswith("-> PASS\n")


@pytest.mark.skipif(resource is None, reason="no resource limits on this platform")
def test_signaling_fixture_exits_2_in_one_gib(tmp_path):
    # Alice's outcome follows Bob's setting: a box that signals
    box = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]] * 2
    fixture = tmp_path / "signaling.json"
    fixture.write_text(json.dumps({"d": 2, "n": 2, "probs": box}))
    argv = ["-m", "cryptononlocal", "verify", "--suite", "theorem1", "--input", str(fixture)]
    _run(argv, _one_gib, returncode=2)
