"""The benchmark's workloads: seeded inputs and the closed-loop job of each.

Every workload is one client in one process that starts a job only after
the previous one has finished.  Inputs come from ``--seed`` alone and
repeat in fixed cycles, so every run sees the same mix of shapes and
kinds whatever its length; a run stops at a cycle boundary.

Extreme scales (2^+-1000) and NaN/Inf entries are left out on purpose:
on those inputs the seed fails by exhausting the QR sweep budget, which
would time the budget rather than the algorithm.  Rank-deficient inputs
stay in, including the ones that the seed's ``check`` wrongly rejects.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from reference import (factors_ok, hamilton_matmul, read_matrix, reference_sigma,
                       sigma_ok, write_qmat)

SQUARE_N = 128
# (rows, cols, rank): rank None is a full-rank random matrix, otherwise
# X @ Y with a thin inner dimension.  Square, tall and wide, all <= 48 on
# a side, 5 of 15 rank-deficient.  The odd count puts the job median
# inside one shape's times rather than between two shapes.
BATCH_SHAPES = (
    (48, 48, None), (40, 16, None), (16, 40, None), (24, 24, 3), (32, 8, None),
    (8, 32, 2), (12, 12, None), (48, 20, 4), (20, 48, None), (36, 36, None),
    (6, 30, None), (30, 30, 5), (28, 12, None), (4, 44, 1), (44, 44, 6),
)
CLI_SHAPE = (200, 24)
CLI_RANK = 3
CHILD_TIMEOUT_S = 120.0
CLI_SNIPPET = "import sys; from quatsvd.cli import main; sys.exit(main(sys.argv[1:]))"


@dataclass(frozen=True)
class Case:
    a: np.ndarray     # (r, c, 4) components (w, x, y, z)
    kind: str         # "full", "rankdef", or "corrupt" (check must reject)

    @property
    def expected_check_code(self) -> int:
        return 1 if self.kind == "corrupt" else 0


def _matrix(rng, rows, cols, rank=None) -> np.ndarray:
    if rank is None:
        return rng.standard_normal((rows, cols, 4))
    return hamilton_matmul(rng.standard_normal((rows, rank, 4)),
                           rng.standard_normal((rank, cols, 4)))


def _square_cycle(rng):
    return [Case(_matrix(rng, SQUARE_N, SQUARE_N), "full")]


def _batch_cycle(rng):
    return [Case(_matrix(rng, r, c, k), "full" if k is None else "rankdef")
            for r, c, k in BATCH_SHAPES]


def _cli_cycle(rng):
    r, c = CLI_SHAPE
    return [Case(_matrix(rng, r, c), "full"),
            Case(_matrix(rng, r, c, CLI_RANK), "rankdef"),
            Case(_matrix(rng, r, c), "corrupt")]


@dataclass(frozen=True)
class Workload:
    name: str
    make_cycle: Callable[[np.random.Generator], list[Case]]
    want_vectors: bool
    cli: bool


WORKLOADS = {w.name: w for w in (
    Workload("square-full", _square_cycle, want_vectors=True, cli=False),
    Workload("batch-values", _batch_cycle, want_vectors=False, cli=False),
    Workload("cli-svd-check", _cli_cycle, want_vectors=True, cli=True),
)}


def cycles(workload: Workload, seed: int):
    rng = np.random.default_rng(seed)
    while True:
        yield workload.make_cycle(rng)


@dataclass
class Outcome:
    seconds: float    # time spent in the program, checks excluded
    ok: bool          # correct outputs and, for the CLI, the right exit codes
    wrong: bool       # a wrong answer given as a success, not a refusal
    wrong_exit: bool = False   # `check` exit code other than expected


class JobRunner:
    """Runs jobs of one workload.  Only the calls into the package, or the
    child processes running its CLI, are timed; input files are written
    and outputs are checked outside the timed regions.

    With ``children=False`` the CLI commands run through
    ``quatsvd.cli.main`` in this process, so that wrappers installed by a
    tracer see the calls inside them.
    """

    def __init__(self, quatsvd, workload: Workload, workdir: Path, src: Path,
                 children: bool = True):
        self.quatsvd = quatsvd
        self.workload = workload
        self.workdir = workdir
        self.children = children
        self.tracer = None     # set to a Tracer for the jobs it should see
        self.child_peak_kb = 0
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def run(self, case: Case) -> Outcome:
        try:
            if self.workload.cli:
                return self._cli_job(case)
            return self._qsvd_job(case)
        except Exception:  # a job that raises is a failed job; keep measuring
            traceback.print_exc(file=sys.stderr)
            return Outcome(float("nan"), ok=False, wrong=False)

    def _call(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)

    def _qsvd_job(self, case: Case) -> Outcome:
        want = self.workload.want_vectors
        a = self.quatsvd.QMatrix(case.a)
        t0 = time.perf_counter()
        res = self._call("qsvd", self.quatsvd.qsvd, a, want_vectors=want)
        seconds = time.perf_counter() - t0
        ref = reference_sigma(case.a)
        good = sigma_ok(case.a.shape[:2], res.sigma, ref)
        if want:
            good = good and factors_ok(case.a, res.u.data, res.sigma, res.v.data, ref)
        return Outcome(seconds, ok=good, wrong=not good)

    def _cli_job(self, case: Case) -> Outcome:
        d = self.workdir
        a_path, out = d / "a.qmat", d / "out"
        write_qmat(a_path, case.a)
        svd_s, svd_code = self._cli("svd", [str(a_path), "--out-dir", str(out)])
        files = {k: out / f"{k}.{'rmat' if k == 'S' else 'qmat'}" for k in "USV"}
        good = False
        if svd_code == 0:
            u, s, v = (read_matrix(files[k]) for k in "USV")
            sigma = np.diagonal(s)[:min(case.a.shape[:2])]
            ref = reference_sigma(case.a)
            good = (s.shape == case.a.shape[:2] and sigma_ok(case.a.shape[:2], sigma, ref)
                    and factors_ok(case.a, u, sigma, v, ref))
            if case.kind == "corrupt":
                idx = np.unravel_index(np.argmax(np.abs(v)), v.shape)
                v[idx] = -v[idx]
                write_qmat(files["V"], v)
        check_s, check_code = self._cli("check", [
            str(a_path), "--u", str(files["U"]), "--s", str(files["S"]), "--v", str(files["V"])])
        ok = svd_code == 0 and good and check_code == case.expected_check_code
        accepted_bad = case.kind == "corrupt" and check_code == 0
        return Outcome(svd_s + check_s, ok=ok, wrong=(svd_code == 0 and not good) or accepted_bad,
                       wrong_exit=check_code != case.expected_check_code)

    def _cli(self, command: str, args: list[str]) -> tuple[float, int]:
        argv = [command, *args]
        if not self.children:
            main = self.quatsvd.cli.main
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = self._call(f"cli.{command}", main, argv)
            return time.perf_counter() - t0, code
        seconds, code, peak_kb = run_child([sys.executable, "-c", CLI_SNIPPET, *argv], self.env)
        self.child_peak_kb = max(self.child_peak_kb, peak_kb)
        return seconds, code


def run_child(argv: list[str], env: dict) -> tuple[float, int, int]:
    """Run a child process to its end: wall seconds, exit code, peak RSS in KiB."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss


def warm_up(quatsvd, workload: Workload, case: Case, workdir: Path) -> None:
    """One job with no checks and no timing, as a fresh user would run it."""
    if not workload.cli:
        quatsvd.qsvd(quatsvd.QMatrix(case.a), want_vectors=workload.want_vectors)
        return
    import quatsvd.cli
    a_path, out = workdir / "a.qmat", workdir / "out"
    write_qmat(a_path, case.a)
    with contextlib.redirect_stdout(io.StringIO()):
        quatsvd.cli.main(["svd", str(a_path), "--out-dir", str(out)])
        quatsvd.cli.main(["check", str(a_path), "--u", str(out / "U.qmat"),
                          "--s", str(out / "S.rmat"), "--v", str(out / "V.qmat")])
