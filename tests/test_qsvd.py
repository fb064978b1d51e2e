"""End-to-end quaternion SVD: assembly, reconstruction, verification."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatsvd import (
    NonFiniteInput,
    QMatrix,
    QsvdResult,
    Quaternion,
    RMatrix,
    ShapeMismatch,
    adjoint_singular_values,
    bidiagonalize,
    left_householder,
    qsvd,
    random_qmatrix,
    reconstruct,
    verify,
)
from quatsvd.qsvd import _exponent, _unitarity_residual
from references import form_matrix

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=7)


def rand_unitary(n, rng):
    h1 = form_matrix(left_householder(rng.uniform(-1, 1, (n, 4))), "left")
    h2 = form_matrix(left_householder(rng.uniform(-1, 1, (n, 4))), "left")
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


@pytest.mark.parametrize("axis", [0, 1])
def test_unitarity_residual_sees_a_zeroed_row_or_column(axis):
    # One Gram M* M suffices for a square factor: a zeroed row, which only
    # M M* seems to show, gives M* M - I = -m* m, of norm |m|^2 = 1.
    a = random_qmatrix(6, 6, np.random.default_rng(21))
    res = qsvd(a)
    u = res.u.copy()
    if axis == 0:
        u.data[2] = 0.0
    else:
        u.data[:, 2] = 0.0
    assert _unitarity_residual(u) == pytest.approx(1.0, rel=1e-13)
    report = verify(a, QsvdResult(u=u, sigma=res.sigma, v=res.v), with_oracle=False)
    assert "unitarity(U)" in [c.name for c in report.failures()]
    assert report["unitarity(V)"].passed


@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (3, 5), (24, 24), (200, 24), (24, 200),
                                   (128, 128)])
def test_one_gram_agrees_with_both_products(shape):
    res = qsvd(random_qmatrix(*shape, np.random.default_rng(5)))
    for q in (res.u, res.v):
        one, both = _unitarity_residual(q), unitary_error(q)
        assert one <= both
        assert both - one <= max(shape) * np.finfo(float).eps


@pytest.mark.parametrize("bad", [1e300, np.inf, np.nan])
def test_verify_fails_a_huge_or_non_finite_factor_entry_without_warning(bad):
    a = random_qmatrix(5, 3, np.random.default_rng(9))
    res = qsvd(a)
    u = res.u.copy()
    u.data[1, 2, 3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify(a, QsvdResult(u=u, sigma=res.sigma, v=res.v))
    assert not report.passed
    assert "unitarity(U)" in [c.name for c in report.failures()]


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


# --- results beyond the float range ----------------------------------------------------


def real_1e308(rows, cols):
    """A real matrix of 1e308s.  The 8 x 1 column's B and sigma, sqrt(8) *
    1e308, are beyond the float range; the 2 x 2's B fits, with entries
    sqrt(2) * 1e308, and its sigma_max = 2e308 does not."""
    data = np.zeros((rows, cols, 4))
    data[..., 0] = 1e308
    return QMatrix(data)


def gaussian(r, c, seed):
    return QMatrix(np.random.default_rng(seed).standard_normal((r, c, 4)))


@pytest.mark.parametrize("want_vectors", [True, False])
def test_sigma_beyond_the_float_range_raises(want_vectors):
    big = QMatrix(np.ldexp(gaussian(32, 32, 0).data, 1020))
    for a in (big, real_1e308(8, 1), real_1e308(2, 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="beyond the float range"):
                qsvd(a, want_vectors=want_vectors)


@pytest.mark.parametrize("want_vectors", [True, False])
def test_sigma_at_the_top_of_the_float_range_is_exact(want_vectors):
    base = gaussian(16, 16, 0)
    a = QMatrix(np.ldexp(base.data, 1020))
    res = qsvd(a, want_vectors=want_vectors)
    assert 1.5e308 < res.sigma[0] < np.finfo(np.float64).max
    # The prescale maps a and base onto the same matrix.
    assert np.array_equal(res.sigma, np.ldexp(qsvd(base, want_vectors=False).sigma, 1020))
    if want_vectors:
        report = verify(a, res)
        assert report.passed, report.failures()


@pytest.mark.parametrize("accumulate", [True, False])
def test_bidiagonalize_raises_for_a_band_beyond_the_float_range(accumulate):
    for a in (real_1e308(8, 1), QMatrix(np.full((2, 2, 4), 1e308))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="beyond the float range"):
                bidiagonalize(a, accumulate=accumulate)


def test_bidiagonalize_keeps_a_band_at_the_top_of_the_float_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = bidiagonalize(real_1e308(2, 2))
    b = res.bidiagonal.data
    assert b[0] == pytest.approx([np.sqrt(2.0) * 1e308] * 2, rel=1e-15)
    assert not b[1].any()


@pytest.mark.parametrize("k", [1020, -1000, 1021, -999, 3])
def test_bidiagonalize_scales_exactly_by_powers_of_two(k):
    # Its own prescale maps a, base and qsvd's prescaled copy onto the same
    # work copy, for odd and even k: B and the residue scale exactly, L and
    # R do not change at all.
    base = random_qmatrix(16, 9, np.random.default_rng(3))
    a = np.ldexp(base.data, k)
    want = bidiagonalize(base)
    got = bidiagonalize(QMatrix(a))
    assert np.array_equal(got.bidiagonal.data, np.ldexp(want.bidiagonal.data, k))
    assert got.snap_residue == np.ldexp(want.snap_residue, k)
    assert np.array_equal(got.left.data, want.left.data)
    assert np.array_equal(got.right.data, want.right.data)
    prescaled = bidiagonalize(QMatrix(np.ldexp(a, -_exponent(a))))
    assert np.array_equal(prescaled.left.data, got.left.data)
    assert np.array_equal(prescaled.right.data, got.right.data)


def test_oracle_raises_for_a_value_beyond_the_float_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="beyond the float range"):
            adjoint_singular_values(real_1e308(8, 1))


def test_verify_fails_the_oracle_check_for_a_sigma_beyond_the_float_range():
    top = np.finfo(np.float64).max
    res = QsvdResult(u=QMatrix.identity(8), sigma=np.array([top]), v=QMatrix.identity(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify(real_1e308(8, 1), res)
    assert report["oracle"].value == np.inf and not report.passed


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


@pytest.mark.parametrize("sigma, failed", [
    ([np.nan, 1.0, 0.5], {"nonnegativity", "ordering"}),
    ([1.0, np.nan, 0.5], {"nonnegativity", "ordering"}),
    ([np.inf, np.inf, 0.5], {"ordering"}),
    ([1.0, 0.5, -np.inf], {"nonnegativity"}),
])
def test_verify_fails_a_non_finite_sigma_without_warning(sigma, failed):
    a = random_qmatrix(3, 3, np.random.default_rng(2))
    res = qsvd(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify(a, QsvdResult(u=res.u, sigma=np.array(sigma), v=res.v))
    assert failed | {"reconstruction", "oracle"} <= {c.name for c in report.failures()}
