"""SVD of real bidiagonal bands."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quatsvd.rsvd as rsvd
from quatsvd import NoConvergence, NonFiniteInput, RMatrix, bidiag_svd
from references import jacobi_eigen

seeds = st.integers(min_value=0, max_value=2**32 - 1)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def random_band(n, rng):
    return rng.uniform(-1, 1, n), rng.uniform(-1, 1, n - 1)


def dense(d, e):
    """The reference matrix of the band (d, e)."""
    return np.diag(d) + np.diag(e, 1)


def band_norm(d, e):
    return np.linalg.norm(np.concatenate((d, e)))


def recon_error(d, e, res):
    w, sigma, x = res
    return np.linalg.norm(w @ np.diag(sigma) @ x.T - dense(d, e))


def orth_error(m):
    return np.linalg.norm(m.T @ m - np.eye(m.shape[0]))


# --- small frozen cases ---------------------------------------------------------


def test_singleton_band():
    w, sigma, x = bidiag_svd([5.0], [])
    assert np.array_equal(sigma, [5.0])
    assert np.array_equal(w, [[1.0]])
    assert np.array_equal(x, [[1.0]])


def test_negative_singleton_folds_sign_into_x():
    w, sigma, x = bidiag_svd([-2.0], [])
    assert np.array_equal(sigma, [2.0])
    assert np.array_equal(w, [[1.0]])
    assert np.array_equal(x, [[-1.0]])


def test_already_diagonal_band_gets_sorted():
    d, e = [3.0, 4.0], [0.0]
    res = bidiag_svd(d, e)
    assert np.array_equal(res[1], [4.0, 3.0])
    assert recon_error(d, e, res) == 0.0


def test_golden_ratio_band():
    d, e = [1.0, 1.0], [1.0]
    res = bidiag_svd(d, e)
    assert abs(res[1][0] - PHI) <= 1e-14
    assert abs(res[1][1] - 1.0 / PHI) <= 1e-14
    assert recon_error(d, e, res) <= 1e-14


# --- zero-diagonal splitting -----------------------------------------------------


def test_interior_zero_diagonal_yields_exact_zero_sigma():
    d, e = [1.0, 0.0, 2.0], [1.0, 1.0]
    res = w, sigma, x = bidiag_svd(d, e)
    assert sigma[-1] == 0.0
    assert recon_error(d, e, res) <= 1e-14 * band_norm(d, e)
    assert orth_error(w) <= 1e-14
    assert orth_error(x) <= 1e-14


def test_trailing_zero_diagonal_yields_exact_zero_sigma():
    d, e = [1.0, 2.0, 0.0], [1.0, 1.0]
    res = bidiag_svd(d, e)
    assert res[1][-1] == 0.0
    assert recon_error(d, e, res) <= 1e-14 * band_norm(d, e)


def test_zero_band():
    w, sigma, _ = bidiag_svd([0.0, 0.0], [0.0])
    assert np.array_equal(sigma, [0.0, 0.0])
    assert np.array_equal(w, np.eye(2))
    w, sigma, x = bidiag_svd([0.0, 0.0], [0.0], want_vectors=False)
    assert np.array_equal(sigma, [0.0, 0.0])
    assert w is None and x is None


# --- properties -------------------------------------------------------------------


@given(seeds, st.integers(min_value=1, max_value=20))
@settings(max_examples=80, deadline=None)
def test_band_svd_contract(seed, n):
    d, e = random_band(n, np.random.default_rng(seed))
    res = w, sigma, x = bidiag_svd(d, e)
    norm = band_norm(d, e)

    assert np.all(sigma >= 0.0)
    assert np.all(np.diff(sigma) <= 0.0)
    assert recon_error(d, e, res) <= 1e-13 * n * max(norm, 1.0)
    assert orth_error(w) <= 1e-12 * n
    assert orth_error(x) <= 1e-12 * n
    # rotations preserve the Frobenius norm
    assert np.linalg.norm(sigma) == pytest.approx(norm, rel=1e-12, abs=1e-15)


@given(seeds, st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_sigma_squares_match_gram_eigenvalues(seed, n):
    d, e = random_band(n, np.random.default_rng(seed))
    b = dense(d, e)
    evals = jacobi_eigen(RMatrix(b.T @ b))
    got = np.sort(bidiag_svd(d, e, want_vectors=False)[1] ** 2)
    assert np.max(np.abs(got - evals)) <= 1e-10 * band_norm(d, e) ** 2


@given(seeds, st.integers(min_value=1, max_value=12))
@settings(max_examples=30, deadline=None)
def test_values_only_mode(seed, n):
    d, e = random_band(n, np.random.default_rng(seed))
    full = bidiag_svd(d, e)
    w, sigma, x = bidiag_svd(d, e, want_vectors=False)
    assert np.array_equal(sigma, full[1])
    assert w is None and x is None


@pytest.mark.parametrize("n", [1, 2, 5, 20])
def test_band_matrix_is_the_dense_band(n):
    """bidiag_svd builds the band's matrix in one allocation: sigma and the
    signed factors are bit for bit those of LAPACK on the reference
    matrix, also for a band with an exact zero inside; W and X come back
    C-ordered."""
    rng = np.random.default_rng(n)
    bands = [random_band(n, rng)]
    if n > 2:
        d, e = bands[0][0].copy(), bands[0][1].copy()
        d[n // 2] = e[n // 2] = 0.0
        bands.append((d, e))
    for d, e in bands:
        b = dense(d, e)
        got_w, got_sigma, got_x = bidiag_svd(d, e)
        sigma = np.linalg.svd(b, compute_uv=False)
        assert got_sigma.tobytes() == sigma.tobytes()
        assert bidiag_svd(d, e, want_vectors=False)[1].tobytes() == sigma.tobytes()
        w, _, xt = np.linalg.svd(b)
        flip = np.where(w[np.argmax(np.abs(w), axis=0), np.arange(n)] < 0.0, -1.0, 1.0)
        assert got_w.flags.c_contiguous and got_x.flags.c_contiguous
        assert got_w.tobytes() == (w * flip).tobytes()
        assert got_x.tobytes() == (xt.T * flip).tobytes()


def test_graded_band_keeps_small_values():
    d, e = [1e6, 1.0, 1e-6], [1.0, 1e-3]
    res = bidiag_svd(d, e)
    assert recon_error(d, e, res) <= 1e-13 * 3 * band_norm(d, e)
    assert res[1][-1] > 0.0  # far above underflow, must not be flushed


@pytest.mark.parametrize("want_vectors", [True, False])
def test_strongly_graded_band_keeps_its_determinant(want_vectors):
    # |det B| = prod |d_i| for a bidiagonal B, so the product of the singular
    # values checks every one of them to relative accuracy, down to 1e-20.
    d = np.array([1.0, 1e-5, 1e-10, 1e-15, 1e-20])
    sigma = bidiag_svd(d, np.ones(4), want_vectors=want_vectors)[1]
    assert np.prod(sigma) / np.prod(np.abs(d)) == pytest.approx(1.0, rel=1e-12, abs=0)


@pytest.fixture
def lapack_fails(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(rsvd.np.linalg, "svd", fail)


def test_lapack_failure_raises_no_convergence(lapack_fails):
    for want_vectors in (True, False):
        with pytest.raises(NoConvergence) as info:
            bidiag_svd([1.0, 2.0], [1.0], want_vectors=want_vectors)
        # The error carries the band's order and norm, in its message too.
        assert info.value.n == 2
        assert info.value.band_norm == np.sqrt(6.0)
        assert "n=2" in str(info.value) and repr(float(np.sqrt(6.0))) in str(info.value)


def test_band_svd_has_no_python_loops():
    tree = ast.parse(Path(rsvd.__file__).read_text())
    loops = [node for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While))]
    assert loops == []


# --- band input -------------------------------------------------------------------


def test_band_rejects_mismatched_superdiagonal():
    with pytest.raises(ValueError):
        bidiag_svd([1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        bidiag_svd([], [])


def test_band_rejects_more_than_one_axis():
    with pytest.raises(ValueError, match=r"band d .* shape \(2, 2\)"):
        bidiag_svd(np.array([[3.0, 0.0], [0.0, 2.0]]), np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError, match=r"band d .* shape \(2, 2\)"):
        bidiag_svd(np.array([[3.0, 1.0], [2.0, 5.0]]), [1.0])
    with pytest.raises(ValueError, match=r"band e .* shape \(1, 1\)"):
        bidiag_svd([3.0, 2.0], np.array([[1.0]]))
    # An empty e of two axes is no superdiagonal of a singleton band.
    for shape in [(1, 0), (0, 3)]:
        with pytest.raises(ValueError, match=re.escape(
                f"band e must be one-dimensional, got shape {shape}")):
            bidiag_svd([1.0], np.zeros(shape))


def test_band_rejects_complex_entries():
    with pytest.raises(TypeError, match="complex128"):
        bidiag_svd(np.array([1.0 + 1j, 2.0]), [1.0])
    with pytest.raises(TypeError, match="complex128"):
        bidiag_svd([1.0, 2.0], np.array([1j]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_band_rejects_non_finite_entries(bad):
    for d, e, where in [([bad, 1.0], [1.0], "d[0]"), ([1.0, 2.0, bad], [1.0, bad], "d[2]"),
                        ([1.0, 2.0, 3.0], [1.0, bad], "e[1]"), ([bad], [], "d[0]")]:
        with pytest.raises(NonFiniteInput, match=re.escape(f"{where} is not finite")):
            bidiag_svd(d, e)


@pytest.mark.parametrize("d, e, norm", [
    ([3.0, 4.0], [12.0], 13.0),
    ([1e200, 1.0], [1e200], np.sqrt(2) * 1e200),  # squaring 1e200 overflows
    ([1e-200] * 2, [1e-200], np.sqrt(3) * 1e-200),  # squaring 1e-200 underflows
    ([2.0 ** 1000, -0.75 * 2 ** 1000], [0.3 * 2 ** 1000], math.hypot(1, 0.75, 0.3) * 2 ** 1000),
    ([2.0 ** -1000, -0.75 * 2 ** -1000], [0.3 * 2 ** -1000],
     math.hypot(1, 0.75, 0.3) * 2 ** -1000),
    ([5e-324, 2.0 ** -1060], [-3e-320], math.hypot(5e-324, 2.0 ** -1060, 3e-320)),
    ([2.0 ** 1023] * 3, [2.0 ** 1023] * 2, math.inf),  # every entry finite, the norm not
], ids=["3-4-12", "1e200", "1e-200", "2**1000", "2**-1000", "subnormal",
        "beyond-the-float-range"])
def test_band_norm_at_extreme_scales(lapack_fails, d, e, norm):
    # The norm NoConvergence carries.  An infinite or NaN entry never
    # reaches it: the input check rejects it first
    # (test_band_rejects_non_finite_entries).
    with pytest.raises(NoConvergence) as info:
        bidiag_svd(d, e, want_vectors=False)
    assert info.value.band_norm == pytest.approx(norm, rel=4 * np.finfo(float).eps, abs=0.0)
