"""The public surface: what the package exports, and what it no longer does."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import quatsvd

# Test-only references, kept in tests/references.py.
MOVED = ["apply_left", "apply_right", "right_householder_direct", "jacobi_eigen",
         "NotSymmetric", "form_matrix"]
# Public names that no longer exist: the builders map onto e1 only, a
# reflector does not record its side, and the oracle runs on LAPACK with
# no sweep cap of its own.
REMOVED = ["BadTarget", "Side", "MAX_SWEEPS"]
# Attributes the pipeline never read, deleted or moved to tests/references.py.
GONE_ATTRIBUTES = {
    quatsvd.Quaternion: ["inverse", "__truediv__", "abs_squared", "is_zero"],
    quatsvd.QMatrix: ["scale_left", "scale_right"],
    quatsvd.QVector: ["outer_hermitian"],
    quatsvd.HouseholderReflector: ["zeta", "z", "side"],
}


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


@pytest.mark.parametrize("module", ["quatsvd", "quatsvd.householder", "quatsvd.errors",
                                    "quatsvd.oracle"])
def test_removed_names_are_gone(module):
    mod = importlib.import_module(module)
    for name in REMOVED:
        assert not hasattr(mod, name), (module, name)
        assert name not in getattr(mod, "__all__", ())


@pytest.mark.parametrize("cls", GONE_ATTRIBUTES, ids=lambda cls: cls.__name__)
def test_removed_attributes_are_gone(cls):
    for name in GONE_ATTRIBUTES[cls]:
        assert not hasattr(cls, name), (cls.__name__, name)


@pytest.mark.parametrize("build", [quatsvd.left_householder, quatsvd.right_householder])
def test_builders_take_only_the_vector(build):
    assert len(inspect.signature(build).parameters) == 1


SOURCES = sorted(p for p in Path(quatsvd.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
SOURCES.append(Path(__file__).with_name("references.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    """A name imported into a module is read somewhere in it; __init__.py,
    whose imports are its re-exports, is left out, and the tests'
    references.py is checked too."""
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, sorted(imported - used)
