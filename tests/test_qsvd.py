"""End-to-end quaternion SVD: assembly, reconstruction, verification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatsvd import (
    NonFiniteInput,
    QMatrix,
    QVector,
    QsvdResult,
    Quaternion,
    RMatrix,
    ShapeMismatch,
    form_matrix,
    left_householder,
    qsvd,
    random_qmatrix,
    reconstruct,
    verify,
)
from quatsvd.qsvd import _unitarity_residual

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=7)


def e1(n):
    v = np.zeros(n)
    v[0] = 1.0
    return v


def rand_unitary(n, rng):
    h1 = form_matrix(left_householder(QVector(rng.uniform(-1, 1, (n, 4))), e1(n)))
    h2 = form_matrix(left_householder(QVector(rng.uniform(-1, 1, (n, 4))), e1(n)))
    return h1 @ h2


def recon_error(a, res):
    return (a - reconstruct(res, a.rows, a.cols)).frobenius_norm()


def unitary_error(q):
    ident = QMatrix.identity(q.rows)
    return max(((q @ q.conj_transpose()) - ident).frobenius_norm(),
               ((q.conj_transpose() @ q) - ident).frobenius_norm())


def test_unitarity_residual_examples():
    assert _unitarity_residual(QMatrix.identity(4)) == 0.0
    assert _unitarity_residual(QMatrix.from_quaternions([[Quaternion(2)]])) == 3.0
    s = 1.0 / np.sqrt(2)
    assert _unitarity_residual(QMatrix.from_quaternions([[Quaternion(s, s)]])) <= 1e-15
    # A thin factor needs orthonormal columns only.
    assert _unitarity_residual(QMatrix(QMatrix.identity(3).data[:, :2])) == 0.0
    assert _unitarity_residual(QMatrix.zeros(2, 3)) == np.sqrt(3.0)


# --- tiny frozen cases ------------------------------------------------------------


def test_zero_scalar():
    res = qsvd(QMatrix.zeros(1, 1))
    assert np.array_equal(res.sigma, [0.0])
    assert np.array_equal(res.u.data, QMatrix.identity(1).data)
    assert np.array_equal(res.v.data, QMatrix.identity(1).data)


def test_unit_k_scalar():
    a = QMatrix.from_quaternions([[Quaternion(0, 0, 0, 1)]])
    res = qsvd(a)
    assert abs(res.sigma[0] - 1.0) <= 1e-15
    assert abs(abs(res.u[0, 0]) - 1.0) <= 1e-15
    assert recon_error(a, res) <= 1e-14


def test_zero_matrix_factors_are_exact_identities():
    a = QMatrix.zeros(3, 2)
    res = qsvd(a)
    assert np.array_equal(res.sigma, np.zeros(2))
    assert np.array_equal(res.u.data, QMatrix.identity(3).data)
    assert np.array_equal(res.v.data, QMatrix.identity(2).data)
    assert verify(a, res).passed


# --- main contract -----------------------------------------------------------------


@given(seeds, dims, dims)
@settings(max_examples=60, deadline=None)
def test_qsvd_contract(seed, r, c):
    rng = np.random.default_rng(seed)
    a = random_qmatrix(r, c, rng)
    res = qsvd(a)
    m = max(r, c)
    norm = a.frobenius_norm()

    assert res.sigma.shape == (min(r, c),)
    assert np.all(res.sigma >= 0.0)
    assert np.all(np.diff(res.sigma) <= 0.0)
    assert recon_error(a, res) <= 1e-12 * m * norm
    assert unitary_error(res.u) <= 1e-11 * m
    assert unitary_error(res.v) <= 1e-11 * m
    # unitary invariance of the Frobenius norm
    assert np.linalg.norm(res.sigma) == pytest.approx(norm, rel=1e-12, abs=1e-13)


@given(seeds, dims, dims)
@settings(max_examples=40, deadline=None)
def test_full_verify_report_passes(seed, r, c):
    a = random_qmatrix(r, c, np.random.default_rng(seed))
    report = verify(a, qsvd(a))
    assert report.passed, report.failures()
    names = [c.name for c in report.checks]
    assert names == ["reconstruction", "unitarity(U)", "unitarity(V)",
                     "nonnegativity", "ordering", "oracle"]


@given(seeds, st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_singular_values_invariant_under_unitary_sandwich(seed, n):
    rng = np.random.default_rng(seed)
    a = random_qmatrix(n, n, rng)
    p = rand_unitary(n, rng)
    q = rand_unitary(n, rng)
    sa = qsvd(a, want_vectors=False).sigma
    sb = qsvd(p @ a @ q, want_vectors=False).sigma
    assert np.max(np.abs(sa - sb)) <= 1e-10 * max(sa[0], 1.0)


@given(seeds, dims, dims)
@settings(max_examples=30, deadline=None)
def test_real_matrices_match_library_svd(seed, r, c):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1, 1, (r, c))
    sigma = qsvd(RMatrix(m).promote(), want_vectors=False).sigma
    lib = np.linalg.svd(m, compute_uv=False)
    assert np.max(np.abs(sigma - lib)) <= 1e-12 * max(lib[0], 1.0)


@given(seeds, st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=6))
@settings(max_examples=30, deadline=None)
def test_rank_one_products_have_one_singular_value(seed, r, c):
    rng = np.random.default_rng(seed)
    a = random_qmatrix(r, 1, rng) @ random_qmatrix(c, 1, rng).conj_transpose()
    sigma = qsvd(a, want_vectors=False).sigma
    assert np.all(sigma[1:] <= 1e-12 * sigma[0])


@given(seeds, st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5),
       st.integers(min_value=-1070, max_value=1020))
@settings(max_examples=80, deadline=None)
def test_power_of_two_scaling_keeps_the_contract(seed, r, c, k):
    base = np.random.default_rng(seed).uniform(-1.0, 1.0, (r, c, 4))
    a = QMatrix(np.ldexp(base, k))
    res = qsvd(a)
    report = verify(a, res, with_oracle=False)
    assert report.passed, report.failures()
    if k >= -960:
        # The entry scaling maps a and base onto the same matrix, so sigma
        # scales exactly as long as no entry of a is subnormal.
        assert np.array_equal(res.sigma, np.ldexp(qsvd(QMatrix(base)).sigma, k))


@pytest.mark.parametrize("factor", [1e300, 1e-300, 1e-310])
def test_extreme_scales_keep_relative_accuracy(factor):
    a = random_qmatrix(4, 3, np.random.default_rng(12))
    expect = qsvd(a, want_vectors=False).sigma * factor
    got = qsvd(QMatrix(a.data * factor), want_vectors=False).sigma
    assert np.max(np.abs(got - expect) / expect) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("want_vectors", [True, False])
def test_non_finite_entry_is_named(bad, want_vectors):
    a = random_qmatrix(3, 4, np.random.default_rng(6))
    a.data[2, 1, 3] = bad
    a.data[2, 3, 0] = bad
    with pytest.raises(NonFiniteInput, match=r"\(2, 1\)"):
        qsvd(a, want_vectors=want_vectors)
    assert issubclass(NonFiniteInput, ValueError)


# --- result/factor plumbing ----------------------------------------------------------


def test_values_only_skips_factors():
    a = random_qmatrix(4, 3, np.random.default_rng(5))
    full = qsvd(a)
    lean = qsvd(a, want_vectors=False)
    assert lean.u is None and lean.v is None
    assert np.array_equal(lean.sigma, full.sigma)


def leading_columns(res):
    """The result with each factor sliced to its leading min(r, c) columns."""
    n = len(res.sigma)
    return QsvdResult(u=QMatrix(res.u.data[:, :n]), sigma=res.sigma, v=QMatrix(res.v.data[:, :n]))


def test_thin_factors():
    a = random_qmatrix(6, 3, np.random.default_rng(9))
    res = leading_columns(qsvd(a))
    assert res.u.shape == (6, 3)
    assert res.v.shape == (3, 3)
    assert recon_error(a, res) <= 1e-12 * 6 * a.frobenius_norm()
    report = verify(a, res)
    assert report.passed, report.failures()


def test_thin_wide_factors():
    a = random_qmatrix(2, 5, np.random.default_rng(11))
    res = leading_columns(qsvd(a))
    assert res.u.shape == (2, 2)
    assert res.v.shape == (5, 2)
    assert recon_error(a, res) <= 1e-12 * 5 * a.frobenius_norm()


@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4)])
def test_reconstruct_of_leading_columns_equals_full(shape):
    a = random_qmatrix(*shape, np.random.default_rng(sum(shape)))
    res = qsvd(a)
    full = reconstruct(res, *shape)
    thin = reconstruct(leading_columns(res), *shape)
    assert np.array_equal(thin.data, full.data)


def test_reconstruct_validates_shapes():
    a = random_qmatrix(3, 2, np.random.default_rng(1))
    res = qsvd(a)
    with pytest.raises(ShapeMismatch):
        reconstruct(res, 2, 2)
    with pytest.raises(ShapeMismatch):
        reconstruct(qsvd(a, want_vectors=False), 3, 2)
    bad = QsvdResult(u=res.u, sigma=res.sigma[:1], v=res.v)
    with pytest.raises(ShapeMismatch):
        reconstruct(bad, 3, 2)


# --- verification report ---------------------------------------------------------------


def test_verify_flags_negated_value():
    a = random_qmatrix(3, 3, np.random.default_rng(2))
    res = qsvd(a)
    bad = QsvdResult(u=res.u, sigma=res.sigma * np.array([-1.0, 1.0, 1.0]), v=res.v)
    report = verify(a, bad)
    assert not report.passed
    assert "nonnegativity" in [c.name for c in report.failures()]


def test_verify_flags_broken_factor():
    a = random_qmatrix(3, 3, np.random.default_rng(3))
    res = qsvd(a)
    u = res.u.copy()
    u.data[:, 0, :] = 0.0
    report = verify(a, QsvdResult(u=u, sigma=res.sigma, v=res.v))
    assert not report.passed
    failed = [c.name for c in report.failures()]
    assert "unitarity(U)" in failed
    assert "unitarity(V)" not in failed


def test_verify_flags_shuffled_order():
    a = random_qmatrix(4, 4, np.random.default_rng(8))
    res = qsvd(a)
    if res.sigma[0] == res.sigma[1]:  # pragma: no cover - random ties don't happen
        pytest.skip("degenerate draw")
    shuffled = res.sigma[[1, 0, 2, 3]]
    report = verify(a, QsvdResult(u=res.u, sigma=shuffled, v=res.v))
    assert not report.passed
    assert "ordering" in [c.name for c in report.failures()]


def test_verify_accepts_rank_deficient_products():
    # The oracle must resolve exact zeros to its own bound, far inside tol;
    # a Gram-matrix oracle left ~1e-8 of noise there and rejected these.
    rng = np.random.default_rng(26)
    for _ in range(50):
        a = random_qmatrix(6, 2, rng) @ random_qmatrix(2, 5, rng)
        report = verify(a, qsvd(a))
        assert report.passed, report.failures()


def test_verify_oracle_bound_includes_the_oracle_floor():
    # The oracle is accurate to 8 n eps (n = 96 here), so a tol below that
    # must not turn its own error into a rejection of correct factors.
    a = random_qmatrix(200, 24, np.random.default_rng(0))
    report = verify(a, qsvd(a), tol=1e-14)
    assert report.passed, report.failures()
    assert report["oracle"].bound > 1e-14


def test_verify_without_oracle_has_five_checks():
    a = random_qmatrix(2, 2, np.random.default_rng(4))
    report = verify(a, qsvd(a), with_oracle=False)
    assert [c.name for c in report.checks] == [
        "reconstruction", "unitarity(U)", "unitarity(V)", "nonnegativity", "ordering"]
    assert report["ordering"].bound == 0.0
    with pytest.raises(KeyError):
        report["oracle"]
