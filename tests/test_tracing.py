"""The benchmark's per-layer tracer against the package.

``perfbench/tracing.py`` wraps functions at the sites where the package
imports them (``SITES``).  A module that stops importing one of
those names would break ``perfbench/run.py --trace 1``; this test makes
that a test failure instead.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import quatsvd.cli  # noqa: F401  (loads every module the tracer wraps)
from quatsvd import random_qmatrix

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_site_and_restores_it():
    tracing = _load_tracing()
    sites = [(sys.modules[m], name) for m, names in tracing.SITES.items() for name in names]
    originals = [getattr(module, name) for module, name in sites]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, name), original in zip(sites, originals):
            assert getattr(module, name) is not original
        qsvd = sys.modules["quatsvd.qsvd"].qsvd
        rng = np.random.default_rng(0)
        for shape in [(3, 2), (2, 3)]:
            qsvd(random_qmatrix(*shape, rng))
    finally:
        tracer.uninstall()
    for (module, name), original in zip(sites, originals):
        assert getattr(module, name) is original
    metrics = tracer.layer_metrics(jobs=2)
    assert metrics["bidiag.calls"] == 1
    assert metrics["rsvd.calls"] == 1
    # Two left and one right reflector per reduction of a 3 x 2 or 2 x 3.
    assert metrics["householder.build_calls"] == 3
