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
from quatsvd import BidiagonalBand, NoConvergence, NonFiniteInput, RMatrix, bidiag_svd
from references import jacobi_eigen

seeds = st.integers(min_value=0, max_value=2**32 - 1)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def random_band(n, rng):
    d = rng.uniform(-1, 1, n)
    e = rng.uniform(-1, 1, n - 1) if n > 1 else []
    return BidiagonalBand(d, e)


def recon_error(band, res):
    rebuilt = res.w.data @ np.diag(res.sigma) @ res.x.data.T
    return np.linalg.norm(rebuilt - band.dense().data)


def orth_error(m):
    return np.linalg.norm(m.data.T @ m.data - np.eye(m.data.shape[0]))


# --- small frozen cases ---------------------------------------------------------


def test_singleton_band():
    res = bidiag_svd(BidiagonalBand([5.0], []))
    assert np.array_equal(res.sigma, [5.0])
    assert np.array_equal(res.w.data, [[1.0]])
    assert np.array_equal(res.x.data, [[1.0]])


def test_negative_singleton_folds_sign_into_x():
    res = bidiag_svd(BidiagonalBand([-2.0], []))
    assert np.array_equal(res.sigma, [2.0])
    assert np.array_equal(res.w.data, [[1.0]])
    assert np.array_equal(res.x.data, [[-1.0]])


def test_already_diagonal_band_gets_sorted():
    band = BidiagonalBand([3.0, 4.0], [0.0])
    res = bidiag_svd(band)
    assert np.array_equal(res.sigma, [4.0, 3.0])
    assert recon_error(band, res) == 0.0


def test_golden_ratio_band():
    band = BidiagonalBand([1.0, 1.0], [1.0])
    res = bidiag_svd(band)
    assert abs(res.sigma[0] - PHI) <= 1e-14
    assert abs(res.sigma[1] - 1.0 / PHI) <= 1e-14
    assert recon_error(band, res) <= 1e-14


# --- zero-diagonal splitting -----------------------------------------------------


def test_interior_zero_diagonal_yields_exact_zero_sigma():
    band = BidiagonalBand([1.0, 0.0, 2.0], [1.0, 1.0])
    res = bidiag_svd(band)
    assert res.sigma[-1] == 0.0
    assert recon_error(band, res) <= 1e-14 * band.frobenius_norm()
    assert orth_error(res.w) <= 1e-14
    assert orth_error(res.x) <= 1e-14


def test_trailing_zero_diagonal_yields_exact_zero_sigma():
    band = BidiagonalBand([1.0, 2.0, 0.0], [1.0, 1.0])
    res = bidiag_svd(band)
    assert res.sigma[-1] == 0.0
    assert recon_error(band, res) <= 1e-14 * band.frobenius_norm()


def test_zero_band():
    band = BidiagonalBand([0.0, 0.0], [0.0])
    res = bidiag_svd(band)
    assert np.array_equal(res.sigma, [0.0, 0.0])
    assert np.array_equal(res.w.data, np.eye(2))


# --- properties -------------------------------------------------------------------


@given(seeds, st.integers(min_value=1, max_value=20))
@settings(max_examples=80, deadline=None)
def test_band_svd_contract(seed, n):
    band = random_band(n, np.random.default_rng(seed))
    res = bidiag_svd(band)
    norm = band.frobenius_norm()

    assert np.all(res.sigma >= 0.0)
    assert np.all(np.diff(res.sigma) <= 0.0)
    assert recon_error(band, res) <= 1e-13 * n * max(norm, 1.0)
    assert orth_error(res.w) <= 1e-12 * n
    assert orth_error(res.x) <= 1e-12 * n
    # rotations preserve the Frobenius norm
    assert np.linalg.norm(res.sigma) == pytest.approx(norm, rel=1e-12, abs=1e-15)


@given(seeds, st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_sigma_squares_match_gram_eigenvalues(seed, n):
    band = random_band(n, np.random.default_rng(seed))
    b = band.dense().data
    evals = jacobi_eigen(RMatrix(b.T @ b))
    got = np.sort(bidiag_svd(band, want_vectors=False).sigma ** 2)
    assert np.max(np.abs(got - evals)) <= 1e-10 * band.frobenius_norm() ** 2


@given(seeds, st.integers(min_value=1, max_value=12))
@settings(max_examples=30, deadline=None)
def test_values_only_mode(seed, n):
    band = random_band(n, np.random.default_rng(seed))
    full = bidiag_svd(band)
    lean = bidiag_svd(band, want_vectors=False)
    assert np.array_equal(lean.sigma, full.sigma)
    assert np.array_equal(lean.w.data, np.eye(n))
    assert np.array_equal(lean.x.data, np.eye(n))


def test_graded_band_keeps_small_values():
    band = BidiagonalBand([1e6, 1.0, 1e-6], [1.0, 1e-3])
    res = bidiag_svd(band)
    assert recon_error(band, res) <= 1e-13 * 3 * band.frobenius_norm()
    assert res.sigma[-1] > 0.0  # far above underflow, must not be flushed


@pytest.mark.parametrize("want_vectors", [True, False])
def test_strongly_graded_band_keeps_its_determinant(want_vectors):
    # |det B| = prod |d_i| for a bidiagonal B, so the product of the singular
    # values checks every one of them to relative accuracy, down to 1e-20.
    d = np.array([1.0, 1e-5, 1e-10, 1e-15, 1e-20])
    res = bidiag_svd(BidiagonalBand(d, np.ones(4)), want_vectors=want_vectors)
    assert np.prod(res.sigma) / np.prod(np.abs(d)) == pytest.approx(1.0, rel=1e-12, abs=0)


def test_lapack_failure_raises_no_convergence(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(rsvd.np.linalg, "svd", fail)
    band = BidiagonalBand([1.0, 2.0], [1.0])
    for want_vectors in (True, False):
        with pytest.raises(NoConvergence) as info:
            bidiag_svd(band, want_vectors=want_vectors)
        # The error carries the band's order and norm, in its message too.
        assert info.value.n == 2
        assert info.value.band_norm == band.frobenius_norm() == np.sqrt(6.0)
        assert "n=2" in str(info.value) and repr(float(np.sqrt(6.0))) in str(info.value)


def test_band_svd_has_no_python_loops():
    tree = ast.parse(Path(rsvd.__file__).read_text())
    loops = [node for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While))]
    assert loops == []


# --- band container ---------------------------------------------------------------


def test_band_rejects_mismatched_superdiagonal():
    with pytest.raises(ValueError):
        BidiagonalBand([1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        BidiagonalBand([], [])


def test_band_rejects_complex_entries():
    with pytest.raises(TypeError, match="complex128"):
        BidiagonalBand(np.array([1.0 + 1j, 2.0]), [1.0])
    with pytest.raises(TypeError, match="complex128"):
        BidiagonalBand([1.0, 2.0], np.array([1j]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_band_rejects_non_finite_entries(bad):
    for d, e, where in [([bad, 1.0], [1.0], "d[0]"), ([1.0, 2.0, bad], [1.0, bad], "d[2]"),
                        ([1.0, 2.0, 3.0], [1.0, bad], "e[1]"), ([bad], [], "d[0]")]:
        with pytest.raises(NonFiniteInput, match=re.escape(f"{where} is not finite")):
            BidiagonalBand(d, e)


def test_band_dense_and_norm():
    band = BidiagonalBand([3.0, 4.0], [12.0])
    assert np.array_equal(band.dense().data, [[3.0, 12.0], [0.0, 4.0]])
    assert band.frobenius_norm() == 13.0
    assert BidiagonalBand([7.0], []).dense().data.shape == (1, 1)


@pytest.mark.parametrize("d, e, norm", [
    ([1e200, 1.0], [1e200], np.sqrt(2) * 1e200),  # squaring 1e200 overflows
    ([1e-200] * 2, [1e-200], np.sqrt(3) * 1e-200),  # squaring 1e-200 underflows
    ([2.0 ** 1000, -0.75 * 2 ** 1000], [0.3 * 2 ** 1000], math.hypot(1, 0.75, 0.3) * 2 ** 1000),
    ([2.0 ** -1000, -0.75 * 2 ** -1000], [0.3 * 2 ** -1000],
     math.hypot(1, 0.75, 0.3) * 2 ** -1000),
    ([5e-324, 2.0 ** -1060], [-3e-320], math.hypot(5e-324, 2.0 ** -1060, 3e-320)),
    ([2.0 ** 1023] * 3, [2.0 ** 1023] * 2, math.inf),  # every entry finite, the norm not
], ids=["1e200", "1e-200", "2**1000", "2**-1000", "subnormal", "beyond-the-float-range"])
def test_band_norm_at_extreme_scales(d, e, norm):
    # An infinite or NaN entry never reaches the norm: the band rejects it
    # (test_band_rejects_non_finite_entries).
    got = BidiagonalBand(d, e).frobenius_norm()
    assert got == pytest.approx(norm, rel=4 * np.finfo(float).eps, abs=0.0)
