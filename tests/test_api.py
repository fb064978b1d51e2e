"""The public surface: what the package exports, and what it no longer does."""

import importlib

import pytest

import quatsvd

# Test-only references, kept in tests/references.py.
MOVED = ["apply_left", "apply_right", "right_householder_direct", "jacobi_eigen",
         "NotSymmetric"]


def test_every_exported_name_resolves():
    assert len(quatsvd.__all__) == len(set(quatsvd.__all__))
    for name in quatsvd.__all__:
        assert getattr(quatsvd, name) is not None, name


@pytest.mark.parametrize("module", ["quatsvd", "quatsvd.householder", "quatsvd.oracle",
                                    "quatsvd.errors"])
def test_test_only_references_are_not_in_the_package(module):
    mod = importlib.import_module(module)
    for name in MOVED:
        assert not hasattr(mod, name), (module, name)
        assert name not in getattr(mod, "__all__", ())
