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


def _run(args, preexec_fn=None, returncode=0):
    """stdout of ``sys.executable *args``, which must exit with ``returncode``."""
    env = dict(os.environ)
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
