"""Benchmark for cryptononlocal: four seeded closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/`` next
to this directory; without it the command exits with code 2.

One client runs jobs back to back (a closed loop: the next job starts when
the previous one returns) in the single benchmark process.  Jobs come in
cycles that visit the workload's whole grid (see ``workloads.py``), and the
timed phase runs as many whole cycles as took ``--seconds`` when the
benchmark was defined.  Every job checks its own result; the CLI command of
the workload is run in fresh subprocesses and its stdout compared with a
recorded digest; the first job is rerun and must give bit-identical results.

Times are in nominal seconds: each job's wall time divided by the machine's
speed factor around it, measured by a reference kernel between jobs, and
subprocess times as ratios to paired reference spawns (``calibrate.py``).
The same times in wall-clock seconds are reported as the ``raw.*`` rows.

``--trace 0`` reports the end-to-end metrics:

* ``jobs_per_s``          jobs completed / time of the timed phase, less
                          the speed gauge's samples
* ``job_s_p50``           median wall time of one job
* ``job_s_tail``          highest percentile with at least 10 jobs beyond it
* ``time_to_accuracy_s``  Monte Carlo only: median of job_s * (std_error/1e-4)^2
* ``cli_s``               median wall time of the workload's CLI subprocess
* ``setup_s``             spawn of a fresh interpreter to ready: import plus
                          one untimed warm-up of the workload (median of spawns)
* ``peak_rss_mb``         peak resident memory of a fresh process that runs
                          the first cycle (untimed)
* ``failed_frac``         failed checks / checks attempted

``--trace 1`` runs the first cycle alternately untraced and traced, records
a span for every call that crosses into a layer (``spans.py``) and reports
per-layer calls, self time and share, counts computed from call arguments,
per-call times of the hot-path rows, and the tracing overhead.

Both modes print one line per metric with its unit, then a run record, and
end with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
The run record and the spans are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One benchmark thread: keep BLAS single-threaded, in this process and in
# every subprocess it spawns.  Must be set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# A seed kept out of benchmark development, for re-checking later claims.
HELD_OUT_SEED = 7919
# Fresh interpreters per run for setup_s and for cli_s, after one untimed spawn.
SPAWNS = 7
SUBPROCESS_TIMEOUT = 60

# Per-function rows printed on every workload, zero where it makes no such call.
NAMED_ROWS = (
    "bloch.sample_sphere",
    "bloch.sample_haar_pure",
    "bloch.state_to_bloch",
    "quantum.cglmp_chained_value",
    "quantum.joint_distribution",
    "quantum.closed_form_probs",
    "quantum.chained_value",
    "leggett.leggett_bound_mc",
    "leggett.find_critical_n",
    "nosignaling.random_no_signaling",
    "nosignaling.verify_shift_bound",
    "nosignaling.check_no_signaling",
    "nosignaling.check_agreement_bound",
    "nosignaling.lhv_min_chained",
    "cli.main",
)

PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "w = workloads.make_workload(sys.argv[3]); w.warm_up(workloads.make_api()); "
    "print('ready', flush=True)"
)
MEMORY_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import run; "
    "run.memory_probe(sys.argv[3], int(sys.argv[4]), sys.argv[5] == '1')"
)

class BenchError(Exception):
    """The benchmark cannot run here."""


def load_library():
    """Import the library from ``src/`` of this checkout, and the workloads."""
    init = SRC / "cryptononlocal" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"library source not found at {init}")
    sys.path.insert(0, str(SRC))
    import workloads

    loaded = Path(workloads.PACKAGE.__file__).resolve()
    if loaded != init.resolve():
        raise BenchError(f"imported cryptononlocal from {loaded}, expected {init}")
    return workloads


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def spawn_ready(cmd: list[str]) -> tuple[float, str]:
    """Seconds from spawning ``cmd`` until it prints its ready line, and the
    rest of its output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=SUBPROCESS_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{cmd[:3]} failed (exit {proc.returncode})")
    return elapsed, rest


def reference_spawn() -> float:
    return spawn_ready([sys.executable, "-c", calibrate.SPAWN_REFERENCE])[0]


def _malloc_trim():
    """``malloc_trim`` of the C library, or a no-op where there is none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return lambda: None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return lambda: trim(0)


release_memory = _malloc_trim()


def memory_probe(name: str, seed: int, tiny: bool) -> None:
    """Run the first cycle of the workload; print its peak RSS and checks.

    Runs in a fresh interpreter.  Freed heap memory goes back to the OS
    before every job, so the peak is the largest job's own, not what the
    allocator kept from the jobs before it in a seed's order.
    """
    import numpy as np

    workloads = load_library()
    workload = workloads.make_workload(name, tiny)
    api = workloads.make_api()
    workload.warm_up(api)
    print("ready", flush=True)
    oks = []
    for params in workload.cycle(np.random.default_rng(seed)):
        release_memory()
        oks.append(workload.run(api, params).ok)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"peak_rss_mb": rss_mb, "oks": oks}))


def measure_setup(name: str, seed: int, spawns: int, tiny: bool):
    """Set-up probe spawns, each paired with a reference spawn, after one
    untimed memory-probe spawn, which also fills the bytecode and file caches.

    Returns the spawn times, the reference times and the memory probe's
    peak RSS and checks.
    """
    cmd = [sys.executable, "-c", MEMORY_PROBE, str(SRC), str(BENCH_DIR), name,
           str(seed), "1" if tiny else "0"]  # fmt: skip
    memory = json.loads(spawn_ready(cmd)[1])
    cmd = [sys.executable, "-c", PROBE, str(SRC), str(BENCH_DIR), name]
    times, refs = [], []
    for _ in range(spawns):
        refs.append(reference_spawn())
        times.append(spawn_ready(cmd)[0])
    return times, refs, memory["peak_rss_mb"], memory["oks"]


def measure_cli(workloads, argv: tuple[str, ...], spawns: int):
    """CLI subprocess wall times, paired reference spawns, and check results."""
    cmd = [sys.executable, "-m", "cryptononlocal", *argv]
    times, refs, oks = [], [], []
    for _ in range(spawns):
        refs.append(reference_spawn())
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            timeout=SUBPROCESS_TIMEOUT,
        )
        times.append(time.perf_counter() - t0)
        oks.append(workloads.cli_output_ok(argv, proc.returncode, proc.stdout))
    return times, refs, oks


def spawn_nominal(times: list[float], refs: list[float]) -> float:
    """Median of spawn/reference ratios, in nominal seconds."""
    return statistics.median(t / r for t, r in zip(times, refs)) * calibrate.SPAWN_NOMINAL_S


def results_digest(fingerprints) -> str:
    """sha256 over the repr of every result: equal digests, bit-identical runs."""
    return hashlib.sha256(repr(fingerprints).encode()).hexdigest()


def tail_percentile(times: list[float], beyond_min: int = 10):
    """Highest integer percentile (nearest rank) with >= beyond_min jobs above."""
    s = sorted(times)
    n = len(s)
    for q in range(99, 0, -1):
        idx = math.ceil(q / 100 * n) - 1
        beyond = n - 1 - idx
        if beyond >= beyond_min:
            return s[idx], q, beyond
    return s[-1], 100, 0


def run_jobs(workload, api, jobs, recorder=None, gauge=None):
    """Run jobs back to back.

    Returns per-job (start, seconds, JobResult) and the wall time of the
    loop less the gauge's samples taken in it.
    """
    out = []
    spent = gauge.spent_s if gauge is not None else 0.0
    t_start = time.perf_counter()
    for j, params in enumerate(jobs):
        if gauge is not None:
            gauge.maybe_measure()
        if recorder is not None:
            recorder.job_id = j
        t0 = time.perf_counter()
        result = workload.run(api, params)
        out.append((t0, time.perf_counter() - t0, result))
    loop_s = time.perf_counter() - t_start
    if gauge is not None:
        loop_s -= gauge.spent_s - spent
    return out, loop_s


def timed_phase(workload, api, rng, seconds: float, gauge):
    """The closed loop: as many whole cycles as take ``seconds`` at this commit.

    The cycle count comes from the workload's nominal cycle time, so every
    run of a workload, on any commit and in any speed phase, measures the
    same jobs and the tail percentile is taken over the same job count.
    Returns the jobs; per job, its wall time, its time in nominal seconds
    and its result; and the wall time of the phase less the gauge's samples.
    """
    jobs, records = [], []
    cycles = max(workload.min_cycles, round(seconds / workload.cycle_s))
    spent = gauge.spent_s
    t_start = time.perf_counter()
    for _ in range(1 if workload.tiny else cycles):
        cycle = workload.cycle(rng)
        records += run_jobs(workload, api, cycle, gauge=gauge)[0]
        jobs += cycle
    phase_s = time.perf_counter() - t_start - (gauge.spent_s - spent)
    gauge.measure()
    return jobs, [
        (t, t / gauge.factor_at(t0 + 0.5 * t), r) for t0, t, r in records
    ], phase_s


def untraced_run(workloads, name, seed, seconds, tiny):
    import numpy as np

    spawns = 1 if tiny else SPAWNS
    workload = workloads.make_workload(name, tiny)
    api = workloads.make_api()
    setup, setup_refs, rss_mb, probe_oks = measure_setup(name, seed, spawns, tiny)
    workload.warm_up(api)
    gauge = calibrate.SpeedGauge(workload.kernel)
    jobs, records, phase_s = timed_phase(
        workload, api, np.random.default_rng(seed), seconds, gauge
    )
    raw_s = [t for t, _, _ in records]
    job_s = [t for _, t, _ in records]
    # the phase in nominal seconds, at the jobs' own mean speed factor
    phase_nominal_s = phase_s * sum(job_s) / sum(raw_s)
    checks = [r.ok for _, _, r in records] + probe_oks
    rerun = workload.run(api, jobs[0])
    checks.append(rerun.fingerprint == records[0][2].fingerprint)
    cli_times = cli_refs = []
    if workload.cli_argv is not None:
        cli_times, cli_refs, cli_oks = measure_cli(workloads, workload.cli_argv, spawns)
        checks += cli_oks
    tail, q, beyond = tail_percentile(job_s)
    n_jobs = len(records)
    failed = checks.count(False)
    rows = [
        ("jobs_per_s", n_jobs / phase_nominal_s, "jobs/s",
         f"{n_jobs} jobs / timed phase less gauge samples"),
        ("job_s_p50", statistics.median(job_s), "s", f"n={n_jobs} jobs"),
        ("job_s_tail", tail, "s", f"p{q}: {beyond} jobs beyond, n={n_jobs}"),
    ]  # fmt: skip
    errs = [(t, r.std_error) for _, t, r in records if r.std_error]
    if errs:
        tta = statistics.median(t * (e / 1e-4) ** 2 for t, e in errs)
        rows.append(("time_to_accuracy_s", tta, "s", "std_error 1e-4"))
    else:
        rows.append(("time_to_accuracy_s", None, "s", "not Monte Carlo"))
    if cli_times:
        argv = " ".join(workload.cli_argv)
        rows.append(
            ("cli_s", spawn_nominal(cli_times, cli_refs), "s", f"{spawns} spawns: {argv}")
        )
    else:
        rows.append(("cli_s", None, "s", "no CLI path for this workload"))
    rows += [
        ("setup_s", spawn_nominal(setup, setup_refs), "s", f"{spawns} spawns"),
        ("peak_rss_mb", rss_mb, "MiB", "ru_maxrss of one cycle in a fresh process"),
        ("failed_frac", failed / len(checks), "ratio", f"{failed}/{len(checks)}"),
    ]
    # the same times in wall-clock seconds, not divided by the speed factor
    rows += [
        ("raw.jobs_per_s", n_jobs / phase_s, "jobs/s", "wall clock"),
        ("raw.job_s_p50", statistics.median(raw_s), "s", "wall clock"),
        ("raw.job_s_tail", tail_percentile(raw_s)[0], "s", f"wall clock, p{q}"),
        ("raw.setup_s", statistics.median(setup), "s", "wall clock"),
    ]
    if cli_times:
        rows.append(("raw.cli_s", statistics.median(cli_times), "s", "wall clock"))
    extra = {
        "jobs": n_jobs,
        "cycles": n_jobs // len(workload.grid),
        "speed_kernel": workload.kernel,
        "speed_factors": gauge.factors,
        "job_s": job_s,
        "job_raw_s": raw_s,
        "setup_spawns_s": setup,
        "setup_reference_spawns_s": setup_refs,
        "cli_spawns_s": cli_times,
        "cli_reference_spawns_s": cli_refs,
        "phase_s": phase_s,
        "tail_percentile": q,
        "tail_beyond": beyond,
        "results_sha256": results_digest([r.fingerprint for _, _, r in records]),
    }
    return rows, len(checks), failed, extra


def one_pass(workloads, workload, api, jobs, recorder=None, gauge=None):
    """One cycle of jobs, then the in-process CLI call.

    Returns the wall time less the gauge's samples, the checks, the
    results, and the jobs' loop time and per-job wall times.
    """
    records, loop_s = run_jobs(workload, api, jobs, recorder, gauge)
    checks = [r.ok for _, _, r in records]
    prints = [r.fingerprint for _, _, r in records]
    cli_s = 0.0
    if workload.cli_argv is not None:
        if recorder is not None:
            recorder.job_id = len(jobs)
        t1 = time.perf_counter()
        code, stdout = workloads.run_cli(api, workload.cli_argv)
        checks.append(workloads.cli_output_ok(workload.cli_argv, code, stdout))
        prints.append(stdout)
        cli_s = time.perf_counter() - t1
    return loop_s + cli_s, checks, prints, (loop_s, [t for _, t, _ in records])


def traced_run(workloads, name, seed, seconds, tiny):
    import numpy as np
    from spans import LAYERS, SpanRecorder

    workload = workloads.make_workload(name, tiny)
    api = workloads.make_api()
    workload.warm_up(api)
    jobs = workload.cycle(np.random.default_rng(seed))
    recorder = SpanRecorder(workloads.SPAN_HOOKS)
    traced_api = workloads.make_api(recorder.wrap)
    gauge = calibrate.SpeedGauge(workload.kernel)
    plain_walls, traced_walls, traced_raw, checks = [], [], [], []
    plain_loop_s, plain_job_s = 0.0, []
    t_start = time.perf_counter()
    while True:
        # passes are timed in nominal seconds, gauged while they run
        t0 = time.perf_counter()
        wall, ok, plain_prints, (loop_s, job_s) = one_pass(
            workloads, workload, api, jobs, gauge=gauge
        )
        plain_walls.append(wall / gauge.factor_at(t0 + 0.5 * wall))
        plain_loop_s += loop_s
        plain_job_s += job_s
        checks += ok
        recorder.patch_boundaries(workloads.PACKAGE)
        t0 = time.perf_counter()
        try:
            wall, ok, traced_prints, _ = one_pass(
                workloads, workload, traced_api, jobs, recorder, gauge
            )
        finally:
            recorder.unpatch()
        gauge.measure()
        traced_raw.append(wall)
        traced_walls.append(wall / gauge.factor_at(t0 + 0.5 * wall))
        checks += ok
        # tracing must not change a single result
        checks.append(plain_prints == traced_prints)
        if time.perf_counter() - t_start >= seconds:
            break
    passes = len(traced_walls)
    # the speed factor of the traced passes, to report span times in
    # nominal seconds like the end-to-end metrics
    speed = sum(traced_raw) / sum(traced_walls)
    summary = recorder.summary()
    traced_total = sum(traced_raw)
    by_name, by_layer = summary["by_name"], summary["by_layer"]

    def name_row(key, field):
        value = by_name.get(key, {}).get(field, 0) / passes
        return value / speed if field == "self_s" else value

    rows = []
    for layer in LAYERS:
        row = by_layer[layer]
        rows += [
            (f"{layer}.calls", row["calls"] / passes, "count", "per pass"),
            (f"{layer}.self_s", row["self_s"] / passes / speed, "s", "per pass"),
            (f"{layer}.share", row["self_s"] / traced_total, "ratio", "of job time"),
        ]
    top_level = sum(r["self_s"] for r in by_name.values())
    bench_s = (traced_total - top_level) / passes / speed
    rows.append(("bench.self_s", bench_s, "s", "benchmark job code"))
    called = {k for k, row in by_name.items() if row["calls"]}
    for key in sorted(called.union(NAMED_ROWS)):
        rows.append((f"{key}.calls", name_row(key, "calls"), "count", "per pass"))
        rows.append((f"{key}.self_s", name_row(key, "self_s"), "s", "per pass"))
    scan = by_name.get("leggett.find_critical_n", {}).get("calls", 0)
    evals = summary["child_calls"].get("leggett.find_critical_n", {}).get(
        "quantum.cglmp_chained_value", 0
    )
    rows.append(
        (
            "leggett.find_critical_n.evals_per_result",
            evals / scan if scan else 0,
            "count",
            "computed: I_N evaluations / N_crit results",
        )
    )
    cglmp = by_name.get("quantum.cglmp_chained_value", {"calls": 0, "self_s": 0.0})
    rows.append(
        (
            "quantum.cglmp_chained_value.s_per_call",
            cglmp["self_s"] / cglmp["calls"] / speed if cglmp["calls"] else 0.0,
            "s",
            "",
        )
    )
    for key in (
        "leggett.leggett_bound_mc.bytes_computed",
        "leggett.leggett_bound_mc.samples",
        "quantum.joint_distribution.bytes_computed",
        "quantum.closed_form_probs.bytes_computed",
        "quantum.bytes_computed",
        "nosignaling.lhv_min_chained.strategies",
    ):
        unit = "B" if key.endswith("bytes_computed") else "count"
        rows.append((key, recorder.counts.get(key, 0) / passes, unit, "computed"))
    for label, values in sorted(summary["tagged"].items()):
        rows.append(
            (f"hot.{label}", statistics.median(values) / speed, "s", f"median of {len(values)}")
        )
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    rows.append(("trace.overhead", overhead, "ratio", f"median of {passes} pass pairs"))
    # wall-clock job times of the untraced passes, not divided by the speed
    # factor: the figures to compare when a change alters the kind of work
    # in a hot path, which the workload's gauge kernel no longer matches
    tail, q, _ = tail_percentile(plain_job_s)
    n_plain = len(plain_job_s)
    rows += [
        ("raw.jobs_per_s", n_plain / plain_loop_s, "jobs/s", f"wall clock, {n_plain} untraced jobs"),
        ("raw.job_s_p50", statistics.median(plain_job_s), "s", "wall clock"),
        ("raw.job_s_tail", tail, "s", f"wall clock, p{q}"),
        ("speed.factor", speed, "ratio", "wall-clock / nominal seconds, traced passes"),
    ]  # fmt: skip
    extra = {
        "jobs": len(jobs),
        "passes": passes,
        "speed_kernel": workload.kernel,
        "speed_factor": speed,
        "speed_factors": gauge.factors,
        "plain_pass_s": plain_walls,
        "traced_pass_s": traced_walls,
        "spans": len(recorder),
        "results_sha256": results_digest(plain_prints),
        "spans_file": None,
    }
    if not tiny:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{name}-seed{seed}.npz"
        recorder.write(str(path))
        extra["spans_file"] = str(path.relative_to(ROOT))
    return rows, len(checks), checks.count(False), extra


def blas_threads():
    """Threads OpenBLAS uses, read from the library numpy loaded, if found."""
    import glob

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libs / "libscipy_openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cryptononlocal").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(workloads, args, extra) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cryptononlocal": workloads.PACKAGE.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "grid_points": len(workloads.make_workload(args.workload, args.tiny).grid),
        **extra,
    }


def run(args) -> dict:
    workloads = load_library()
    if args.trace:
        rows, attempted, failed, extra = traced_run(
            workloads, args.workload, args.seed, args.seconds, args.tiny
        )
    else:
        rows, attempted, failed, extra = untraced_run(
            workloads, args.workload, args.seed, args.seconds, args.tiny
        )
    record = run_record(workloads, args, extra)
    record["metrics"] = {k: {"value": v, "unit": u, "note": n} for k, v, u, n in rows}
    record["attempted"], record["failed"] = attempted, failed
    return record


def contract_metrics(record: dict, trace: int) -> dict:
    """The metrics BENCHMARK.json lists for this mode, by name and unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    return {
        n: {"value": record["metrics"][n]["value"], "unit": record["metrics"][n]["unit"]}
        for n in names
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(
        ("mc-sphere", "mc-haar", "critical-scan", "verify-suite")))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-check")
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key, m in record["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{key:<48} {value:>14} {m['unit']:<7} {m['note']}")
    slim = {k: v for k, v in record.items() if k not in ("job_s", "job_raw_s", "metrics")}
    print("run record: " + json.dumps(slim, sort_keys=True))
    if not args.tiny:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": contract_metrics(record, args.trace),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
