"""Householder bidiagonalization of quaternion matrices."""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quatsvd.bidiag as bidiag
from quatsvd import (
    NotBidiagonal,
    QMatrix,
    QVector,
    Quaternion,
    RMatrix,
    apply_left,
    apply_right,
    bidiagonalize,
    check_bidiagonal,
    extract_band,
    form_matrix,
    left_householder,
    random_qmatrix,
    right_householder,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=7)
EPS = 2.0 ** -52


def e1(n):
    v = np.zeros(n)
    v[0] = 1.0
    return v


def recon_error(a: QMatrix, res) -> float:
    lhs = res.left @ a @ res.right
    return (lhs - res.bidiagonal.promote()).frobenius_norm()


def unitary_error(q: QMatrix) -> float:
    n = q.rows
    ident = QMatrix.identity(n)
    return max(
        ((q @ q.conj_transpose()) - ident).frobenius_norm(),
        ((q.conj_transpose() @ q) - ident).frobenius_norm(),
    )


# --- frozen examples ---------------------------------------------------------


def test_one_by_one_example():
    q = Quaternion(1, 1, 1, 1)
    res = bidiagonalize(QMatrix.from_quaternions([[q]]))
    assert res.upper
    assert res.bidiagonal.data.shape == (1, 1)
    assert abs(res.bidiagonal.data[0, 0] - 2.0) <= 1e-15
    # L is conj(q)/2, R is the 1x1 identity (no right reflector fires)
    expect = np.array([[[0.5, -0.5, -0.5, -0.5]]])
    assert np.allclose(res.left.data, expect, atol=1e-15, rtol=0)
    assert np.array_equal(res.right.data, QMatrix.identity(1).data)


def test_zero_matrix_is_fixed_point():
    a = QMatrix.zeros(3, 2)
    res = bidiagonalize(a)
    assert np.array_equal(res.left.data, QMatrix.identity(3).data)
    assert np.array_equal(res.right.data, QMatrix.identity(2).data)
    assert np.array_equal(res.bidiagonal.data, np.zeros((3, 2)))
    assert res.snap_residue == 0.0
    assert res.upper


def test_real_matrix_stays_real_valued():
    a = RMatrix(np.array([[3.0, 0.0], [4.0, 0.0], [0.0, 1.0]])).promote()
    res = bidiagonalize(a)
    assert recon_error(a, res) <= 1e-14
    assert abs(res.bidiagonal.data[0, 0] - 5.0) <= 1e-14


# --- reference implementation cross-check ------------------------------------


def _embed(m: QMatrix, size: int, offset: int) -> QMatrix:
    full = QMatrix.identity(size).data
    full[offset:, offset:, :] = m.data
    return QMatrix(full)


def explicit_bidiagonalize(a: QMatrix):
    """Slow reference: form every reflector as a dense matrix and multiply."""
    r, c = a.shape
    if c > r:
        lt, bt, rt = explicit_bidiagonalize(a.conj_transpose())
        return rt.conj_transpose(), RMatrix(bt.data.T.copy()), lt.conj_transpose()
    left = QMatrix.identity(r)
    right = QMatrix.identity(c)
    work = a.copy()
    for k in range(c):
        h = left_householder(QVector(work.data[k:, k, :].copy()), e1(r - k))
        hm = _embed(form_matrix(h), r, k)
        work = hm @ work
        left = hm @ left
        if k <= c - 2:
            g = right_householder(QVector(work.data[k, k + 1 :, :].copy()), e1(c - 1 - k))
            gm = _embed(form_matrix(g), c, k + 1)
            work = work @ gm
            right = right @ gm
    return left, RMatrix(work.data[..., 0].copy()), right


@given(seeds, dims, dims)
@settings(max_examples=40, deadline=None)
def test_matches_dense_reference(seed, r, c):
    rng = np.random.default_rng(seed)
    a = random_qmatrix(r, c, rng)
    res = bidiagonalize(a)
    left, band, right = explicit_bidiagonalize(a)
    scale = max(a.frobenius_norm(), 1.0)
    assert (res.left - left).frobenius_norm() <= 1e-10 * scale
    assert (res.right - right).frobenius_norm() <= 1e-10 * scale
    assert np.linalg.norm(res.bidiagonal.data - band.data) <= 1e-10 * scale


def reflector_bidiagonalize(a: QMatrix):
    """Reference from the public reflector API on the interleaved layout,
    with no snapping: (L, real part of L A R, R)."""
    r, c = a.shape
    if c > r:
        left, band, right = reflector_bidiagonalize(a.conj_transpose())
        return right.conj_transpose(), band.T, left.conj_transpose()
    work, left, right = a.copy(), QMatrix.identity(r), QMatrix.identity(c)
    for k in range(c):
        h = left_householder(QVector(work.data[k:, k, :].copy()), e1(r - k))
        work.data[k:] = apply_left(h, QMatrix(work.data[k:])).data
        left.data[k:] = apply_left(h, QMatrix(left.data[k:])).data
        if k <= c - 2:
            g = right_householder(QVector(work.data[k, k + 1:, :].copy()), e1(c - 1 - k))
            work.data[:, k + 1:] = apply_right(g, QMatrix(work.data[:, k + 1:])).data
            right.data[:, k + 1:] = apply_right(g, QMatrix(right.data[:, k + 1:])).data
    return left, work.data[..., 0], right


# 15, 16, 17 and 33 cross the edges of the 16-reflector compact-WY panels
# in which the factors are formed.
@pytest.mark.parametrize("shape", [(8, 8), (12, 5), (5, 12), (1, 9), (9, 1), (12, 12),
                                   (15, 15), (16, 16), (17, 17), (33, 33), (40, 17),
                                   (17, 40), (40, 40)])
@pytest.mark.parametrize("rank", [None, 1, 3, 5])
def test_matches_reflector_api_reference(shape, rank):
    r, c = shape
    rng = np.random.default_rng(r * 100 + c + (rank or 0))
    for _ in range(5):
        if rank is None:
            a = random_qmatrix(r, c, rng)
        else:
            a = random_qmatrix(r, rank, rng) @ random_qmatrix(rank, c, rng)
        res = bidiagonalize(a)
        left, band, right = reflector_bidiagonalize(a)
        unit = 64 * max(r, c) * EPS
        assert np.abs(res.bidiagonal.data - band).max() <= unit * a.frobenius_norm()
        # Beyond the rank the trailing block is rounding noise, and reflectors
        # built from noise are arbitrary: compare the factors where the
        # leading reflectors alone determine them (rows of L, columns of R).
        n = max(r, c) if rank is None else rank
        assert np.abs(res.left.data[:n] - left.data[:n]).max() <= unit
        assert np.abs(res.right.data[:, :n] - right.data[:, :n]).max() <= unit


def _block_diagonal_with_zero(rng):
    """20 x 20 with a 7 x 7 block, a zero 1 x 1 block, then a 12 x 12 block:
    both reflectors of step 7 and the right one of step 6 are identities,
    inside the first compact-WY panel of 16 recorded reflectors."""
    data = np.zeros((20, 20, 4))
    data[:7, :7] = rng.standard_normal((7, 7, 4))
    data[8:, 8:] = rng.standard_normal((12, 12, 4))
    return QMatrix(data)


@pytest.mark.parametrize("shape", [(64, 64), (100, 30)])
def test_formed_factors_are_unitary(shape):
    r, c = shape
    a = random_qmatrix(r, c, np.random.default_rng(r + c))
    res = bidiagonalize(a)
    unit = 64 * max(r, c) * EPS
    assert unitary_error(res.left) <= unit
    assert unitary_error(res.right) <= unit
    assert recon_error(a, res) <= unit * a.frobenius_norm()


def _count_reflections(monkeypatch):
    calls = []
    for name in ("_reflect_left", "_reflect_right"):
        original = getattr(bidiag, name)

        def counted(u, z4, block, name=name, original=original):
            calls.append((name, block.shape))
            return original(u, z4, block)
        monkeypatch.setattr(bidiag, name, counted)
    return calls


@pytest.mark.parametrize("accumulate", [True, False])
def test_each_reflector_is_applied_once_to_the_work_block(monkeypatch, accumulate):
    calls = _count_reflections(monkeypatch)
    r, c = 9, 6
    bidiagonalize(random_qmatrix(r, c, np.random.default_rng(3)), accumulate=accumulate)
    expect = []
    for k in range(c):
        expect.append(("_reflect_left", (r - k, 4, c - k)))
        if k <= c - 2:
            expect.append(("_reflect_right", (r - k, 4, c - 1 - k)))
    assert calls == expect


def test_identity_reflectors_inside_a_panel(monkeypatch):
    calls = _count_reflections(monkeypatch)
    a = _block_diagonal_with_zero(np.random.default_rng(8))
    res = bidiagonalize(a)
    names = [name for name, _ in calls]
    # Steps 0..19 minus the identities at step 7 (left, right) and 6 (right).
    assert names.count("_reflect_left") == 19
    assert names.count("_reflect_right") == 19 - 2
    left, band, right = reflector_bidiagonalize(a)
    unit = 64 * 20 * EPS
    assert np.abs(res.bidiagonal.data - band).max() <= unit * a.frobenius_norm()
    assert np.abs(res.left.data - left.data).max() <= unit
    assert np.abs(res.right.data - right.data).max() <= unit


def test_reduction_avoids_interleaved_hamilton_kernels():
    tree = ast.parse(Path(bidiag.__file__).read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert not names & {"_hmatmul", "_apply_left_block", "_apply_right_block",
                        "Quaternion", "_conj", "_MUL", "_FROM_T"}


# --- contract properties ------------------------------------------------------


@given(seeds, dims, dims)
@settings(max_examples=60, deadline=None)
def test_factorization_contract(seed, r, c):
    rng = np.random.default_rng(seed)
    a = random_qmatrix(r, c, rng)
    res = bidiagonalize(a)
    norm = a.frobenius_norm()
    m = max(r, c)

    assert res.upper == (c <= r)
    assert res.bidiagonal.data.shape == (r, c)
    # band is exactly banded and exactly real: snapping is part of the contract
    assert check_bidiagonal(res.bidiagonal, upper=res.upper, tol=0.0)
    assert res.snap_residue <= 1e-12 * norm
    assert recon_error(a, res) <= 1e-12 * m * norm
    assert unitary_error(res.left) <= 1e-11 * m
    assert unitary_error(res.right) <= 1e-11 * m
    # unitary maps preserve the Frobenius norm, so the band inherits it
    assert res.bidiagonal.frobenius_norm() == pytest.approx(norm, rel=1e-12, abs=1e-13)


@given(seeds, dims, dims)
@settings(max_examples=30, deadline=None)
def test_band_only_mode_matches(seed, r, c):
    rng = np.random.default_rng(seed)
    a = random_qmatrix(r, c, rng)
    full = bidiagonalize(a)
    lean = bidiagonalize(a, accumulate=False)
    assert lean.left is None and lean.right is None
    assert np.array_equal(lean.bidiagonal.data, full.bidiagonal.data)
    assert lean.snap_residue == full.snap_residue
    assert lean.upper == full.upper


def test_wide_matrix_gives_lower_band():
    rng = np.random.default_rng(7)
    a = random_qmatrix(2, 5, rng)
    res = bidiagonalize(a)
    assert not res.upper
    assert check_bidiagonal(res.bidiagonal, upper=False, tol=0.0)
    assert not check_bidiagonal(res.bidiagonal, upper=True, tol=0.0)
    assert recon_error(a, res) <= 1e-12 * 5 * a.frobenius_norm()


@pytest.mark.parametrize("shape", [(2, 5), (5, 12), (17, 40), (1, 9)])
@pytest.mark.parametrize("rank", [None, 1])
@pytest.mark.parametrize("accumulate", [True, False])
def test_wide_is_the_transposed_reduction_of_the_adjoint(shape, rank, accumulate):
    r, c = shape
    rng = np.random.default_rng(r * 100 + c)
    a = random_qmatrix(r, c, rng) if rank is None else \
        random_qmatrix(r, rank, rng) @ random_qmatrix(rank, c, rng)
    wide = bidiagonalize(a, accumulate=accumulate)
    tall = bidiagonalize(a.conj_transpose(), accumulate=accumulate)
    assert not wide.upper and tall.upper
    assert np.array_equal(wide.bidiagonal.data, tall.bidiagonal.data.T)
    assert wide.snap_residue == tall.snap_residue
    if accumulate:
        assert np.array_equal(wide.left.data, tall.right.conj_transpose().data)
        assert np.array_equal(wide.right.data, tall.left.conj_transpose().data)
    else:
        assert wide.left is None and wide.right is None


# (shape, out-of-band entry to plant or None); 3-4-5 norms are exact.
@pytest.mark.parametrize("shape, outside", [((7, 4), (6, 1)), ((7, 4), (1, 3)),
                                            ((5, 5), (0, 4)), ((6, 1), (5, 0)),
                                            ((1, 1), None)])
@pytest.mark.parametrize("outside_scale", [2.0 ** -48, 2.0 ** -56])
def test_snap_band_drops_exactly_the_planted_noise(shape, outside, outside_scale):
    rows, cols = shape
    rng = np.random.default_rng(rows * 10 + cols)
    band = np.zeros((rows, cols))
    k = np.arange(cols)
    band[k, k] = rng.standard_normal(cols)
    band[k[:-1], k[:-1] + 1] = rng.standard_normal(cols - 1)
    work = np.zeros((rows, 4, cols))
    work[:, 0, :] = band
    # Vector part of norm 5 * 2**-52 on the last diagonal entry.
    work[cols - 1, 2:, cols - 1] = [3 * 2.0 ** -52, 4 * 2.0 ** -52]
    expect = 5 * 2.0 ** -52
    if outside is not None:
        work[outside[0], [0, 2], outside[1]] = [3 * outside_scale, 4 * outside_scale]
        expect = max(expect, 5 * outside_scale)
    got, residue = bidiag._snap_band(work)
    assert residue == expect
    assert np.array_equal(got, band)


def _snap_per_column(work):
    """Reference: the snap done column by column inside the reduction
    loop, as (band, residue) of a planar (rows, 4, cols) array."""
    work = work.copy()
    rows, _, cols = work.shape
    residue = 0.0
    for k in range(cols):
        below = work[k + 1:, :, k]
        residue = max(residue, float(np.linalg.norm(work[k, 1:, k])),
                      float(np.linalg.norm(below, axis=-1).max()) if below.size else 0.0)
        work[k, 1:, k] = 0.0
        work[k + 1:, :, k] = 0.0
        if k <= cols - 2:
            right = work[k, :, k + 2:].T
            residue = max(residue, float(np.linalg.norm(work[k, 1:, k + 1])),
                          float(np.linalg.norm(right, axis=-1).max()) if right.size else 0.0)
            work[k, 1:, k + 1] = 0.0
            work[k, :, k + 2:] = 0.0
    return work[:, 0, :], residue


@pytest.mark.parametrize("shape", [(1, 1), (6, 1), (2, 2), (9, 9), (40, 17), (64, 64)])
def test_snap_band_matches_the_per_column_snap(shape):
    rows, cols = shape
    rng = np.random.default_rng(rows * 100 + cols)
    in_band = np.eye(rows, cols, dtype=bool) | np.eye(rows, cols, 1, dtype=bool)
    for rep in range(40):
        work = rng.standard_normal((rows, 4, cols)) * 10.0 ** rng.uniform(-18, 3, (rows, 4, cols))
        if rep % 2:
            # Let the band's vector parts hold the largest dropped value.
            work.transpose(0, 2, 1)[~in_band] *= 1e-20
        band, residue = bidiag._snap_band(work)
        ref_band, ref_residue = _snap_per_column(work)
        assert residue == ref_residue
        assert np.array_equal(band, ref_band)


@pytest.mark.parametrize("shape", [(4, 6), (6, 4)])
@pytest.mark.parametrize("accumulate", [True, False])
def test_snap_residue_scales_with_the_input(shape, accumulate):
    """At 2**1000 the squares of the dropped values would overflow and at
    2**-1000 underflow; the residue must scale with the input instead.
    At 2**-1000 the dropped values are subnormal inside the reduction
    itself, which rounds them to multiples of 2**-1074, so there the
    residue is held to a few of those units."""
    rng = np.random.default_rng(sum(shape))
    for _ in range(20):
        a = random_qmatrix(*shape, rng)
        base = bidiagonalize(a, accumulate=accumulate).snap_residue
        assert base > 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = bidiagonalize(QMatrix(np.ldexp(a.data, 1000)), accumulate=accumulate)
            tiny = bidiagonalize(QMatrix(np.ldexp(a.data, -1000)), accumulate=accumulate)
        assert big.snap_residue == np.ldexp(base, 1000)
        assert abs(tiny.snap_residue - np.ldexp(base, -1000)) <= 4 * 2.0 ** -1074


# --- band predicates ----------------------------------------------------------


@pytest.mark.parametrize(
    "m, upper, ok",
    [
        ([[1.0, 0.0], [0.0, 1.0]], True, True),
        ([[1.0, 0.0], [1.0, 1.0]], True, False),
        ([[1.0, 0.0], [1.0, 1.0]], False, True),
        ([[1.0, 2.0, 0.0], [0.0, 3.0, 4.0]], True, True),
        ([[1.0, 2.0, 5.0], [0.0, 3.0, 4.0]], True, False),
        ([[1.0], [2.0], [0.0]], False, True),
        ([[1.0], [2.0], [0.0]], True, False),
    ],
)
def test_check_bidiagonal_table(m, upper, ok):
    assert check_bidiagonal(RMatrix(np.array(m)), upper=upper) == ok


def test_check_bidiagonal_tolerance():
    m = RMatrix(np.array([[1.0, 0.0], [1e-13, 1.0]]))
    assert not check_bidiagonal(m, upper=True)
    assert check_bidiagonal(m, upper=True, tol=1e-12)


@pytest.mark.parametrize(
    "m, lower, d, e",
    [
        ([[3.0, 0.0], [0.0, 4.0]], False, [3.0, 4.0], [0.0]),
        ([[1.0, 1.0], [0.0, 1.0]], False, [1.0, 1.0], [1.0]),
        # wide upper band: the entry hanging past the square block drops off
        ([[1.0, 2.0, 0.0], [0.0, 3.0, 4.0]], False, [1.0, 3.0], [2.0]),
        ([[1.0, 0.0], [2.0, 3.0], [0.0, 4.0]], True, [1.0, 3.0], [2.0]),
        ([[5.0]], False, [5.0], []),
    ],
)
def test_extract_band_table(m, lower, d, e):
    got_d, got_e = extract_band(RMatrix(np.array(m)), lower=lower)
    assert np.array_equal(got_d, np.array(d))
    assert np.array_equal(got_e, np.array(e))


def test_extract_band_rejects_full_matrix():
    with pytest.raises(NotBidiagonal):
        extract_band(RMatrix(np.array([[1.0, 1.0], [1.0, 1.0]])))


def test_extract_band_respects_lower_flag():
    m = RMatrix(np.array([[1.0, 0.0], [2.0, 3.0]]))
    with pytest.raises(NotBidiagonal):
        extract_band(m)  # read as upper it has a stray subdiagonal
    d, e = extract_band(m, lower=True)
    assert np.array_equal(d, [1.0, 3.0])
    assert np.array_equal(e, [2.0])
