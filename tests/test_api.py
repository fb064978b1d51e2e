"""The public surface: what the package exports, and what it no longer does."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import quatsvd

# Test-only references, kept in tests/references.py.
MOVED = ["apply_left", "apply_right", "right_householder_direct", "jacobi_eigen",
         "NotSymmetric", "form_matrix"]
# Public names that no longer exist: the builders map onto e1 only and
# take and return plain arrays, a reflector does not record its side, the
# oracle runs on LAPACK with no sweep cap of its own, and the band SVD
# takes (d, e) and returns (W, sigma, X) as plain arrays.
REMOVED = ["BadTarget", "Side", "MAX_SWEEPS", "HouseholderReflector", "QVector",
           "BidiagonalBand", "RealSvdResult"]
# Attributes the pipeline never read, deleted or moved to tests/references.py.
GONE_ATTRIBUTES = {
    quatsvd.Quaternion: ["inverse", "__truediv__", "abs_squared", "is_zero"],
    quatsvd.QMatrix: ["scale_left", "scale_right"],
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
                                    "quatsvd.oracle", "quatsvd.qmat", "quatsvd.rsvd"])
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


def test_every_private_name_is_read():
    """A private name defined at the top level of a module in
    src/quatsvd/, or in the body of one of its classes, is read somewhere
    in the package, as a name or as an attribute; so no helper outlives
    its last caller.  And the reduction builds no reflector object: the
    builders' results are plain arrays."""
    package = Path(quatsvd.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in package.glob("*.py")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    for name, tree in trees.items():
        bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        defined = set()
        for node in (node for body in bodies for node in body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
        assert not private - read, (name, sorted(private - read))
    bidiag = (package / "bidiag.py").read_text()
    assert not re.search(r"\b(QVector|HouseholderReflector)\b", bidiag)
