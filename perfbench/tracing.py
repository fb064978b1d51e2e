"""Per-layer spans taken from outside the package.

The tracer replaces package functions by timing wrappers at the sites
where the package imports them, so the package's own calls go through
the wrappers and ``src/`` stays untouched.  Modules are looked up in
``sys.modules`` because the package ``__init__`` shadows the
``quatsvd.qsvd`` submodule attribute with the function of that name.
Spans stay in memory; metrics are computed once, after the run.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass

# Wrapped import sites: module -> functions it imported from other layers.
SITES = {
    "quatsvd.qsvd": ("bidiagonalize", "extract_band", "bidiag_svd",
                     "adjoint_singular_values", "reconstruct"),
    "quatsvd.bidiag": ("left_householder", "right_householder"),
    "quatsvd.cli": ("qsvd", "verify", "read_qmatrix", "read_rmatrix",
                    "write_qmatrix", "write_rmatrix"),
}
BUILDS = ("left_householder", "right_householder")
READS = ("read_qmatrix", "read_rmatrix")
WRITES = ("write_qmatrix", "write_rmatrix")


def bidiag_flops(rows: int, cols: int, accumulate: bool) -> float:
    """Real flops of the reflector applications in the seed's
    ``bidiagonalize``, computed from the shape (reflector builds and
    snaps left out).  Applying one reflector to an m x n block of
    quaternions costs 92 m n: two Hamilton products of 32 and 28 m n, a
    subtraction of 4 m n and a scaling of 28 m n."""
    r, c = max(rows, cols), min(rows, cols)
    total = 0.0
    for k in range(c):
        total += (r - k) * (c - k) + (r - k) * (c - 1 - k)
        if accumulate:
            total += (r - k) * r + c * (c - 1 - k)
    return 92.0 * total


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None     # index of the enclosing span
    job: int
    start: float
    end: float = 0.0
    failed: bool = False
    work: float = 0.0      # flops for bidiagonalize, bytes for file I/O

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, self.job, 0.0)
        self.spans.append(span)
        self._stack.append(index)
        if name == "bidiagonalize":
            rows, cols = args[0].shape
            span.work = bidiag_flops(rows, cols, kwargs.get("accumulate", True))
        elif name in READS:
            span.work = os.path.getsize(args[0])
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if name in WRITES:
                span.work = os.path.getsize(args[1])

    def install(self) -> None:
        for module_name, names in SITES.items():
            module = sys.modules[module_name]
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self._wrapper(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def layer_metrics(self, jobs: int) -> dict[str, float]:
        """Per-job means over `jobs` traced jobs; rates are totals over totals."""
        spans = self.spans

        def total(*names):
            return sum(s.seconds for s in spans if s.name in names)

        def count(*names):
            return sum(1 for s in spans if s.name in names)

        def work(*names):
            return sum(s.work for s in spans if s.name in names)

        def in_children(parent, *names):
            return sum(s.seconds for s in spans if s.name in names
                       and s.parent is not None and spans[s.parent].name == parent)

        def rate(amount, seconds):
            return amount / seconds if seconds > 0.0 else 0.0

        read_s, write_s = total(*READS), total(*WRITES)
        per_job = {
            "bidiag.s": total("bidiagonalize"),
            "bidiag.self_s": total("bidiagonalize") - in_children("bidiagonalize", *BUILDS),
            "bidiag.calls": count("bidiagonalize"),
            "householder.build_s": total(*BUILDS),
            "householder.build_calls": count(*BUILDS),
            "rsvd.s": total("bidiag_svd"),
            "rsvd.calls": count("bidiag_svd"),
            "qsvd.s": total("qsvd"),
            "qsvd.self_s": total("qsvd") - in_children("qsvd", "bidiagonalize", "bidiag_svd"),
            "qsvd.verify_s": total("verify"),
            "qsvd.verify_self_s": total("verify") - in_children(
                "verify", "reconstruct", "adjoint_singular_values"),
            "qsvd.reconstruct_s": total("reconstruct"),
            "oracle.s": total("adjoint_singular_values"),
            "oracle.failed": sum(1 for s in spans
                                 if s.name == "adjoint_singular_values" and s.failed),
            "formats.read_s": read_s,
            "formats.write_s": write_s,
            "formats.bytes_read": work(*READS),
            "formats.bytes_written": work(*WRITES),
            "cli.svd_s": total("cli.svd"),
            "cli.check_s": total("cli.check"),
        }
        out = {k: v / jobs for k, v in per_job.items()}
        out["bidiag.gflops_computed"] = rate(work("bidiagonalize"), total("bidiagonalize")) / 1e9
        out["formats.read_mb_s"] = rate(work(*READS), read_s) / 1e6
        out["formats.write_mb_s"] = rate(work(*WRITES), write_s) / 1e6
        return out
