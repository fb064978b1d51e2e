"""The real adjoint, the tests' Jacobi eigensolver, and the oracle.

The oracle, ``adjoint_singular_values``, takes its values from LAPACK on
the complex adjoint; the reference it is checked against here is LAPACK
on ``real_adjoint``, a different reduction of a different matrix."""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quatsvd.oracle as oracle
from quatsvd import (
    GroupingFailure,
    NoConvergence,
    QMatrix,
    Quaternion,
    RMatrix,
    adjoint_error_bound,
    adjoint_singular_values,
    left_householder,
    qsvd,
    random_qmatrix,
    real_adjoint,
    verify,
)
from references import NotSymmetric, form_matrix, jacobi_eigen

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=5)


def diag_qmatrix(entries):
    n = len(entries)
    m = QMatrix.zeros(n, n).data
    for i, q in enumerate(entries):
        m[i, i] = [q.w, q.x, q.y, q.z]
    return QMatrix(m)


# --- adjoint construction -------------------------------------------------------


def test_adjoint_of_one_is_identity_block():
    out = real_adjoint(QMatrix.from_quaternions([[Quaternion(1)]]))
    assert np.array_equal(out.data, np.eye(4))


def test_adjoint_of_i_unit():
    out = real_adjoint(QMatrix.from_quaternions([[Quaternion(0, 1)]]))
    expect = np.array(
        [
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    assert np.array_equal(out.data, expect)


def test_adjoint_respects_unit_products():
    chi = lambda q: real_adjoint(QMatrix.from_quaternions([[q]])).data
    assert np.array_equal(chi(Quaternion(0, 1)) @ chi(Quaternion(0, 0, 1)), chi(Quaternion(0, 0, 0, 1)))


def test_adjoint_shape_and_zero():
    out = real_adjoint(QMatrix.zeros(2, 3))
    assert out.data.shape == (8, 12)
    assert not out.data.any()


@given(seeds, dims, dims, dims)
@settings(max_examples=40, deadline=None)
def test_adjoint_is_ring_homomorphism(seed, r, k, c):
    rng = np.random.default_rng(seed)
    a = random_qmatrix(r, k, rng)
    b = random_qmatrix(k, c, rng)
    lhs = real_adjoint(a @ b).data
    rhs = real_adjoint(a).data @ real_adjoint(b).data
    bound = 1e-12 * max(a.frobenius_norm() * b.frobenius_norm(), 1.0)
    assert np.linalg.norm(lhs - rhs) <= bound


@given(seeds, dims, dims)
@settings(max_examples=40, deadline=None)
def test_adjoint_sends_conj_transpose_to_transpose(seed, r, c):
    a = random_qmatrix(r, c, np.random.default_rng(seed))
    assert np.array_equal(real_adjoint(a.conj_transpose()).data, real_adjoint(a).data.T)


def test_adjoint_preserves_scaled_frobenius_norm():
    a = random_qmatrix(3, 4, np.random.default_rng(0))
    # each quaternion entry contributes its modulus to 4 rows/cols
    assert real_adjoint(a).frobenius_norm() == pytest.approx(2.0 * a.frobenius_norm(), rel=1e-14)


# --- jacobi eigensolver ----------------------------------------------------------


def test_jacobi_diagonal_passthrough():
    evals = jacobi_eigen(RMatrix(np.diag([3.0, 2.0])))
    assert np.array_equal(evals, [2.0, 3.0])


def test_jacobi_exchange_matrix():
    evals = jacobi_eigen(RMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert np.allclose(evals, [-1.0, 1.0], atol=1e-15, rtol=0)


def test_jacobi_fibonacci_matrix():
    evals = jacobi_eigen(RMatrix(np.array([[1.0, 1.0], [1.0, 2.0]])))
    expect = [(3.0 - math.sqrt(5.0)) / 2.0, (3.0 + math.sqrt(5.0)) / 2.0]
    assert np.allclose(evals, expect, atol=1e-14, rtol=0)


def test_jacobi_rejects_nonsquare_and_asymmetric():
    with pytest.raises(NotSymmetric):
        jacobi_eigen(RMatrix(np.zeros((2, 3))))
    with pytest.raises(NotSymmetric):
        jacobi_eigen(RMatrix(np.array([[1.0, 2.0], [0.0, 1.0]])))


@given(seeds, st.integers(min_value=1, max_value=10))
@settings(max_examples=40, deadline=None)
def test_jacobi_matches_library_eigensolver(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1, 1, (n, n))
    s = (m + m.T) / 2.0
    got = jacobi_eigen(RMatrix(s))
    norm = max(np.linalg.norm(s), 1e-30)
    assert np.max(np.abs(got - np.linalg.eigvalsh(s))) <= 1e-12 * norm
    # rotations preserve trace and Frobenius norm
    assert np.sum(got) == pytest.approx(np.trace(s), rel=1e-12, abs=1e-13)
    assert np.sum(got**2) == pytest.approx(norm**2, rel=1e-12)


def test_jacobi_zero_and_singleton():
    assert np.array_equal(jacobi_eigen(RMatrix(np.zeros((3, 3)))), np.zeros(3))
    assert np.array_equal(jacobi_eigen(RMatrix(np.array([[-7.0]]))), [-7.0])


# --- singular values through the adjoint ------------------------------------------


def test_adjoint_singular_values_scalars():
    assert np.allclose(
        adjoint_singular_values(QMatrix.from_quaternions([[Quaternion(2)]])), [2.0], atol=1e-14
    )
    assert np.allclose(
        adjoint_singular_values(QMatrix.from_quaternions([[Quaternion(0, 1)]])), [1.0], atol=1e-14
    )


def test_adjoint_singular_values_diagonal():
    a = diag_qmatrix([Quaternion(1, 1, 1, 1), Quaternion(1)])
    assert np.allclose(adjoint_singular_values(a), [2.0, 1.0], atol=1e-14)


def test_adjoint_singular_values_zero_matrix():
    assert np.array_equal(adjoint_singular_values(QMatrix.zeros(2, 3)), np.zeros(2))


@given(seeds, dims, dims)
@settings(max_examples=40, deadline=None)
def test_adjoint_singular_values_contract(seed, r, c):
    a = random_qmatrix(r, c, np.random.default_rng(seed))
    vals = adjoint_singular_values(a)
    assert vals.shape == (min(r, c),)
    assert np.all(vals >= 0.0)
    assert np.all(np.diff(vals) <= 0.0)
    # the adjoint carries each value four times; check against a stock SVD,
    # averaged over each run of four so that its own noise is not measured
    lib = np.linalg.svd(real_adjoint(a).data, compute_uv=False)
    assert np.max(np.abs(vals - lib.reshape(-1, 4).mean(axis=1))) <= 1e-12 * max(vals[0], 1.0)


@given(seeds, dims, dims)
@settings(max_examples=30, deadline=None)
def test_adjoint_singular_values_transpose_invariant(seed, r, c):
    a = random_qmatrix(r, c, np.random.default_rng(seed))
    va = adjoint_singular_values(a)
    vt = adjoint_singular_values(a.conj_transpose())
    assert np.max(np.abs(va - vt)) <= 1e-12 * max(va[0], 1.0)


@given(seeds, dims, dims, st.integers(min_value=0, max_value=5))
@example(0, 64, 64, 0)
@example(0, 200, 24, 0)
@example(0, 24, 200, 0)
@example(0, 128, 128, 8)
@settings(max_examples=40, deadline=None)
def test_adjoint_singular_values_within_stated_bound(seed, r, c, rank):
    # full rank for rank 0, else a product of that inner dimension
    rng = np.random.default_rng(seed)
    if rank:
        a = random_qmatrix(r, rank, rng) @ random_qmatrix(rank, c, rng)
    else:
        a = random_qmatrix(r, c, rng)
    vals = adjoint_singular_values(a)
    lib = np.linalg.svd(real_adjoint(a).data, compute_uv=False)
    ref = lib.reshape(-1, 4).mean(axis=1)
    assert np.max(np.abs(vals - ref)) <= adjoint_error_bound(a, lib[0])


@pytest.mark.parametrize("exponent", [-1000, 1000])
def test_adjoint_singular_values_scale_with_the_matrix(exponent):
    a = random_qmatrix(5, 3, np.random.default_rng(3))
    vals = adjoint_singular_values(a)
    scaled = adjoint_singular_values(QMatrix(np.ldexp(a.data, exponent)))
    assert np.max(np.abs(np.ldexp(scaled, -exponent) - vals)) <= adjoint_error_bound(a, vals[0])


@pytest.mark.parametrize("components, exponent", [
    (np.random.default_rng(0).standard_normal((5, 3, 4)), 1020),
    (np.ones((1, 1, 4)), 1022),  # sigma = 2**1023
])
def test_verify_accepts_values_near_the_overflow_threshold(components, exponent):
    # The pairs are averaged before they are scaled back, so a mean
    # of values at or above 2**1022 does not overflow.
    a = QMatrix(np.ldexp(components, exponent))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify(a, qsvd(a))
    assert report.passed, report.failures()


def test_adjoint_singular_values_sweep_cap(monkeypatch):
    # LAPACK reports a run that does not converge as LinAlgError.
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NoConvergence) as info:
        adjoint_singular_values(random_qmatrix(4, 4, np.random.default_rng(2)))
    # The band's order and norm belong to the band SVD's failures only.
    assert info.value.n is None and info.value.band_norm is None


def test_adjoint_singular_values_spread_beyond_bound(monkeypatch):
    # a negative bound is exceeded by every pair, even an exact one
    monkeypatch.setattr(oracle, "BOUND_FACTOR", -1.0)
    with pytest.raises(GroupingFailure):
        adjoint_singular_values(random_qmatrix(3, 2, np.random.default_rng(6)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adjoint_singular_values_rejects_non_finite(bad):
    a = random_qmatrix(3, 2, np.random.default_rng(5))
    a.data[1, 0, 2] = bad
    with pytest.raises(NoConvergence):
        adjoint_singular_values(a)


def test_oracle_shares_no_decomposition_code():
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported <= {"__future__", "errors", "qmat"}
    linalg = {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
              and node.value.attr == "linalg"}
    assert linalg <= {"svd", "LinAlgError"}
    # The tests' reference is LAPACK on real_adjoint(a); the oracle must
    # stay a different computation, on the complex adjoint.
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "adjoint_singular_values")
    assert "real_adjoint" not in {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}


def test_grouping_failure_on_lost_conditioning():
    # kappa ~ 1e9: an oracle that squares the adjoint leaves ~1e-8 of noise on
    # the four copies of 1e-9.  It must then refuse with GroupingFailure; an
    # oracle that keeps the digits must return every value within its bound.
    rng = np.random.default_rng(1)

    def rand_unitary(n):
        h1 = form_matrix(left_householder(rng.uniform(-1, 1, (n, 4))), "left")
        h2 = form_matrix(left_householder(rng.uniform(-1, 1, (n, 4))), "left")
        return h1 @ h2

    core = diag_qmatrix([Quaternion(1), Quaternion(1), Quaternion(1e-9)])
    a = rand_unitary(3) @ core @ rand_unitary(3)
    try:
        vals = adjoint_singular_values(a)
    except GroupingFailure:
        return
    assert np.max(np.abs(vals - [1.0, 1.0, 1e-9])) <= adjoint_error_bound(a, 1.0)
