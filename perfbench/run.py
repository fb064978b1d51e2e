"""Closed-loop benchmark of quatsvd.

From the root of a checkout:

    python3 perfbench/run.py --workload square-full --seed 1 --seconds 30 --trace 0

runs one workload (see workloads.py and README.md) against the sources
in ``src/`` for about ``--seconds`` seconds, checks every job against an
independent reference (reference.py), and prints a summary, the
environment and, as the last line, one JSON object.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` reports
its per-layer metrics, taken by wrapping package functions (tracing.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from itertools import chain
from pathlib import Path

# One BLAS thread on every commit: with two, small-matrix jobs swung
# tenfold from thread spin-up.  Set before numpy first loads, here and,
# through the environment, in every child process.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, BLAS_THREADS))

import numpy as np  # noqa: E402

from reference import adjoint, negative_control  # noqa: E402
from speed import NOMINAL_S, Speed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, JobRunner, cycles, run_child  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5     # fresh set-ups per run, and at least SETUP_MIN_S of them
SETUP_MIN_S = 4.0
STARTUP_SAMPLES = 3
TAIL_BEYOND = 10
TAIL_FLOOR = 75.0
TAIL_SEGMENT = 150   # a multiple of every cycle length


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _tail_of(ordered: list[float]) -> tuple[float, int]:
    n = len(ordered)
    index = max(n - 1 - TAIL_BEYOND, math.ceil(TAIL_FLOOR / 100 * n) - 1, 0)
    return ordered[index], index + 1


def tail(times: list[float]) -> tuple[float, str]:
    """Tail job time and a note saying which percentile it is.

    On a run of fewer than 2 * TAIL_SEGMENT jobs: the highest percentile
    with TAIL_BEYOND jobs beyond it, but never below TAIL_FLOOR, which
    holds where TAIL_BEYOND would reach down to the median.  On a longer
    run: the same for each segment of TAIL_SEGMENT consecutive jobs, and
    the median over the segments, so that one slow episode of the host
    moves it little."""
    n = len(times)
    if n < 2 * TAIL_SEGMENT:
        value, rank = _tail_of(sorted(times))
        return value, f"p{100 * rank / n:.1f} of {n} timed jobs ({n - rank} beyond)"
    segments = [sorted(times[i:i + TAIL_SEGMENT])
                for i in range(0, n - TAIL_SEGMENT + 1, TAIL_SEGMENT)]
    value = statistics.median(_tail_of(seg)[0] for seg in segments)
    rank = _tail_of(segments[0])[1]
    return value, (f"the median over {len(segments)} segments of {TAIL_SEGMENT} consecutive "
                   f"jobs of each one's p{100 * rank / TAIL_SEGMENT:.0f} "
                   f"({TAIL_SEGMENT - rank} beyond), from {n} timed jobs")


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    l2 = "unknown"
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "2":
                l2 = (index / "size").read_text().strip()
        except OSError:
            pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": int(BLAS_THREADS), "l2_cache": l2}


def _run_loop(cycle_stream, seconds, run_one):
    """Closed loop over whole cycles until `seconds` have passed."""
    start = time.perf_counter()
    for cycle in cycle_stream:
        for case in cycle:
            run_one(case)
        if time.perf_counter() - start >= seconds:
            return time.perf_counter() - start
    raise AssertionError("input stream ended")


def _untraced(runner, stream, seconds, setup):
    """End-to-end metrics of a closed loop with no wrappers installed.
    Times are scaled to reference machine speed (speed.py)."""
    outcomes, speed = [], Speed()

    def run_one(case):
        outcomes.append(runner.run(case))
        speed.add(outcomes[-1].seconds)

    measured = _run_loop(stream, seconds, run_one)
    times = [t for t in speed.scaled() if math.isfinite(t)]
    if not times:
        raise RuntimeError("every job raised; nothing was timed")
    ok = sum(o.ok for o in outcomes)
    tail_s, tail_note = tail(times)
    peak_kb = (runner.child_peak_kb if runner.workload.cli
               else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    metrics = {
        "setup_s": statistics.median(setup.scaled()),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "jobs_per_s": ok / sum(times),
        "ok_ratio": ok / len(outcomes),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    kernel = speed.kernel_times + setup.kernel_times
    notes = [f"job_tail_s is {tail_note}; "
             f"setup_s is the median of {len(setup.jobs)} fresh set-ups",
             f"failed_ratio = {1 - ok / len(outcomes):.4f}",
             f"times are at reference speed, where the calibration kernel takes "
             f"{NOMINAL_S * 1e3:g} ms; it took {statistics.median(kernel) * 1e3:.2f} ms "
             f"(median of {len(kernel)}, range {min(kernel) * 1e3:.2f}-{max(kernel) * 1e3:.2f})",
             f"unscaled: job_p50_s {statistics.median(t for t in speed.raw if math.isfinite(t)):.6g}, "
             f"setup_s {statistics.median(setup.raw):.6g}"]
    return outcomes, measured, metrics, notes


def _traced(runner, stream, seconds, env):
    """Per-layer metrics.  Every input runs twice, traced and plain, in
    alternating order, so the two medians compare the same inputs."""
    tracer = Tracer()
    traced, plain, lapack = [], [], []

    def run_one(case):
        for with_trace in (False, True) if len(plain) % 2 else (True, False):
            if with_trace:
                tracer.job = len(traced)
                tracer.install()
                runner.tracer = tracer
            try:
                outcome = runner.run(case)
            finally:
                tracer.uninstall()
                runner.tracer = None
            (traced if with_trace else plain).append(outcome)
        adj = adjoint(case.a)
        t0 = time.perf_counter()
        np.linalg.svd(adj, compute_uv=runner.workload.want_vectors)
        lapack.append(time.perf_counter() - t0)

    measured = _run_loop(stream, seconds, run_one)
    metrics = tracer.layer_metrics(len(traced))
    metrics["cli.exit_mismatch"] = sum(o.wrong_exit for o in traced) / len(traced)
    startup = [run_child([sys.executable, "-c", "import quatsvd.cli"], env)[0]
               for _ in range(STARTUP_SAMPLES)]
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["ref.lapack_adjoint_s"] = statistics.fmean(lapack)
    metrics["ref.qsvd_over_lapack"] = metrics["qsvd.s"] / metrics["ref.lapack_adjoint_s"]
    metrics["trace.overhead_ratio"] = (statistics.median(o.seconds for o in traced)
                                       / statistics.median(o.seconds for o in plain))
    return traced + plain, measured, metrics, []


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "quatsvd" / "__init__.py").is_file():
        print(f"error: no quatsvd sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import quatsvd
    import quatsvd.cli

    if Path(quatsvd.__file__).resolve().parent != (SRC / "quatsvd").resolve():
        print(f"error: quatsvd was imported from {quatsvd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        # The checker must pass a true decomposition and catch two planted errors.
        small = np.random.default_rng(args.seed).standard_normal((10, 7, 4))
        res = quatsvd.qsvd(quatsvd.QMatrix(small))
        checker_ok = negative_control(small, res.u.data, res.sigma, res.v.data)

        stream = cycles(workload, args.seed)
        first = next(stream)
        runner = JobRunner(quatsvd, workload, workdir, SRC, children=not args.trace)
        if args.trace:
            runner.run(first[0])                   # warm-up, untimed
            result = _traced(runner, chain([first], stream), args.seconds, env)
        else:
            probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
                     workload.name, str(args.seed), str(workdir)]
            setup, started = Speed(), time.perf_counter()
            while (len(setup.jobs) < SETUP_SAMPLES
                   or time.perf_counter() - started < SETUP_MIN_S):
                seconds, code, _ = run_child(probe, env)
                if code != 0:
                    print(f"error: set-up probe exited with {code}", file=sys.stderr)
                    return 1
                setup.add(seconds)
            runner.run(first[0])                   # warm-up, untimed
            result = _untraced(runner, chain([first], stream), args.seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes, measured, metrics, notes = result
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    failed = sum(not o.ok for o in outcomes)
    correct = checker_ok and not any(o.wrong for o in outcomes)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(outcomes)} jobs in {measured:.1f} s, {failed} failed, "
          f"checker control {'passed' if checker_ok else 'FAILED'}")
    for note in notes:
        print("  " + note)
    print("  env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": bool(correct), "attempted": len(outcomes), "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
