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
    NonFiniteInput,
    NotBidiagonal,
    QMatrix,
    Quaternion,
    RMatrix,
    adjoint_singular_values,
    bidiagonalize,
    check_bidiagonal,
    extract_band,
    left_householder,
    qsvd,
    random_qmatrix,
    right_householder,
    verify,
)
from references import (
    apply_left,
    apply_right,
    form_matrix,
    known_sigma_matrix,
    random_orthonormal_columns,
    scale_left,
    scale_right,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=7)
EPS = 2.0 ** -52


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


def _bare(h):
    """`h` without its unit scalar: the projector I - u u* alone."""
    return h[0], np.array([1.0, 0.0, 0.0, 0.0])


def _z(h) -> Quaternion:
    """The unit scalar of `h`'s transformation, conj(zeta)."""
    return Quaternion(*h[1]).conjugate()


def _pivot(size: int, offset: int, z: Quaternion) -> QMatrix:
    """The identity with z at (offset, offset): the scalar on the pivot only."""
    d = QMatrix.identity(size)
    d[offset, offset] = z
    return d


def explicit_bidiagonalize(a: QMatrix):
    """Slow reference: form every reflector as a dense matrix and multiply.
    Each reflector's scalar multiplies its pivot row (left) or column
    (right) only."""
    r, c = a.shape
    if c > r:
        lt, bt, rt = explicit_bidiagonalize(a.conj_transpose())
        return rt.conj_transpose(), RMatrix(bt.data.T.copy()), lt.conj_transpose()
    left = QMatrix.identity(r)
    right = QMatrix.identity(c)
    work = a.copy()
    for k in range(c):
        h = left_householder(work.data[k:, k, :].copy())
        hm = _pivot(r, k, _z(h)) @ _embed(form_matrix(_bare(h), "left"), r, k)
        work = hm @ work
        left = hm @ left
        if k <= c - 2:
            g = right_householder(work.data[k, k + 1 :, :].copy())
            gm = _embed(form_matrix(_bare(g), "right"), c, k + 1) @ _pivot(c, k + 1, _z(g))
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
    with no snapping: (L, real part of L A R, R).  Each reflector's scalar
    multiplies its pivot row (left) or column (right) only."""
    r, c = a.shape
    if c > r:
        left, band, right = reflector_bidiagonalize(a.conj_transpose())
        return right.conj_transpose(), band.T, left.conj_transpose()
    work, left, right = a.copy(), QMatrix.identity(r), QMatrix.identity(c)
    for k in range(c):
        h = left_householder(work.data[k:, k, :].copy())
        for m in (work, left):
            m.data[k:] = apply_left(_bare(h), QMatrix(m.data[k:])).data
            m.data[k:k + 1] = scale_left(QMatrix(m.data[k:k + 1]), _z(h)).data
        if k <= c - 2:
            g = right_householder(work.data[k, k + 1:, :].copy())
            for m in (work, right):
                m.data[:, k + 1:] = apply_right(_bare(g), QMatrix(m.data[:, k + 1:])).data
                m.data[:, k + 1:k + 2] = scale_right(QMatrix(m.data[:, k + 1:k + 2]), _z(g)).data
    return left, work.data[..., 0], right


# 15, 16, 17 and 33 cross the edges of the 16-step panels in which the
# work block is repacked and the factors are formed.
@pytest.mark.parametrize("shape", [(8, 8), (12, 5), (5, 12), (1, 9), (9, 1), (12, 12),
                                   (15, 15), (16, 16), (17, 17), (33, 33), (40, 17),
                                   (17, 40), (40, 40), (33, 20), (20, 33)])
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


def _block_diagonal_with_zero(rng, at=7, n=20):
    """n x n with an `at` x `at` block, a zero 1 x 1 block, then the rest:
    both reflectors of step `at` and the right one of step `at` - 1 are
    identities.  The default puts them inside the first compact-WY panel
    of 16 recorded reflectors."""
    data = np.zeros((n, n, 4))
    data[:at, :at] = rng.standard_normal((at, at, 4))
    data[at + 1:, at + 1:] = rng.standard_normal((n - at - 1, n - at - 1, 4))
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


@pytest.mark.parametrize("shape", [(256, 256), (300, 40)])
def test_chained_scalars_keep_long_factors_unitary(shape):
    """The loop applies bare reflectors and the factors get the unit
    scalars chained over every step: after 256 steps the chain has not
    drifted off the unit sphere, and L A R is still the band."""
    r, c = shape
    a = random_qmatrix(r, c, np.random.default_rng(r * c))
    res = bidiagonalize(a)
    unit = 64 * max(r, c) * EPS
    assert unitary_error(res.left) <= unit
    assert unitary_error(res.right) <= unit
    assert recon_error(a, res) <= unit * a.frobenius_norm()


@pytest.mark.parametrize("shape", [(40, 17), (17, 40), (33, 33), (64, 64)])
@pytest.mark.parametrize("rank", [None, 1, 3])
def test_values_only_band_is_the_moduli_of_full_mode(shape, rank):
    """Both modes run the same bare loop and take the band as moduli: a
    nonnegative band, bit for bit the same with and without the factors."""
    r, c = shape
    rng = np.random.default_rng(r * 100 + c)
    a = random_qmatrix(r, c, rng) if rank is None else \
        random_qmatrix(r, rank, rng) @ random_qmatrix(rank, c, rng)
    full = bidiagonalize(a)
    lean = bidiagonalize(a, accumulate=False)
    assert np.all(lean.bidiagonal.data >= 0.0)
    assert np.array_equal(lean.bidiagonal.data, full.bidiagonal.data)
    assert lean.snap_residue == full.snap_residue


@pytest.mark.parametrize("at", [15, 16])
def test_rank_deficient_block_after_identity_reflectors(at):
    """An identity reflector at step 15 or 16, at the edge of the first
    panel, resets the chain of scalars; the trailing block has rank 3, so
    the reflectors past it are built from rounding noise and the factors
    are compared where the leading reflectors determine them."""
    n, rank = 24, 3
    rng = np.random.default_rng(at)
    data = np.zeros((n, n, 4))
    data[:at, :at] = rng.standard_normal((at, at, 4))
    tail = n - at - 1
    data[at + 1:, at + 1:] = (random_qmatrix(tail, rank, rng)
                              @ random_qmatrix(rank, tail, rng)).data
    a = QMatrix(data)
    res = bidiagonalize(a)
    left, band, right = reflector_bidiagonalize(a)
    unit = 64 * n * EPS
    m = at + 1 + rank
    assert np.abs(res.bidiagonal.data - band).max() <= unit * a.frobenius_norm()
    assert np.abs(res.left.data[:m] - left.data[:m]).max() <= unit
    assert np.abs(res.right.data[:, :m] - right.data[:, :m]).max() <= unit
    assert recon_error(a, res) <= unit * a.frobenius_norm()


@pytest.mark.parametrize("width", [1, 5, 16])
def test_wy_t_inverts_the_strict_block_upper_gram(width):
    """T = inv(I + strict block-upper(V* V)) for reflectors of norm sqrt(2),
    in the (component, column) order of the real form V."""
    rng = np.random.default_rng(width)
    m = 20
    vp = rng.standard_normal((m, 4, width))
    vp *= np.sqrt(2.0) / np.linalg.norm(vp, axis=(0, 1))
    vmat = np.matmul(bidiag._LMAT_OF, vp).reshape(4 * m, 4 * width)
    column = np.arange(4 * width) % width
    strict_upper = column[:, np.newaxis] < column[np.newaxis, :]
    expect = np.linalg.inv(np.eye(4 * width) + (vmat.T @ vmat) * strict_upper)
    got = bidiag._wy_t(vmat, width)
    assert np.linalg.norm(got - expect) <= 64 * EPS * np.linalg.norm(expect)


def _count_reflections(monkeypatch):
    """Records (kernel, block shape, c0) of every call, after checking that
    the block is C-contiguous: the reduction runs on a per-panel buffer so
    that its in-place updates never see a strided view."""
    calls = []
    for name in ("_reflect_left", "_reflect_right"):
        original = getattr(bidiag, name)

        def counted(u, rows, c0=0, name=name, original=original):
            assert rows.flags.c_contiguous
            calls.append((name, rows.shape, c0))
            return original(u, rows, c0)
        monkeypatch.setattr(bidiag, name, counted)
    return calls


@pytest.mark.parametrize("accumulate", [True, False])
def test_each_reflector_is_applied_once_to_the_work_block(monkeypatch, accumulate):
    calls = _count_reflections(monkeypatch)
    # 40 x 20 crosses the edge of the 16-step panels at which the reduction
    # repacks the trailing block; 9 x 6 stays inside the first panel.
    for r, c in [(9, 6), (40, 20)]:
        calls.clear()
        bidiagonalize(random_qmatrix(r, c, np.random.default_rng(3)), accumulate=accumulate)
        expect = []
        for k in range(c):
            # Rows k.. of the buffer that holds the panel's trailing block.
            k0 = 16 * (k // 16)
            expect.append(("_reflect_left", (r - k, 4, c - k0), k - k0))
            if k <= c - 2:
                expect.append(("_reflect_right", (r - k, 4, c - k0), k - k0 + 1))
        assert calls == expect


def test_identity_reflectors_inside_a_panel(monkeypatch):
    calls = _count_reflections(monkeypatch)
    # Identities inside the first panel, at its last step and at the first
    # step of the second.
    for at, n in [(7, 20), (15, 24), (16, 24)]:
        calls.clear()
        a = _block_diagonal_with_zero(np.random.default_rng(8), at, n)
        res = bidiagonalize(a)
        names = [name for name, _, _ in calls]
        # Every step, the identities at step `at` (left, right) and `at` - 1
        # (right) included: a zero u is applied as an exact no-op.
        assert names.count("_reflect_left") == n
        assert names.count("_reflect_right") == n - 1
        left, band, right = reflector_bidiagonalize(a)
        unit = 64 * n * EPS
        assert np.abs(res.bidiagonal.data - band).max() <= unit * a.frobenius_norm()
        assert np.abs(res.left.data - left.data).max() <= unit
        assert np.abs(res.right.data - right.data).max() <= unit


def _count_builds(monkeypatch):
    """Records the name of every reflector build the reduction makes."""
    calls = []
    for name in ("left_householder", "right_householder"):
        def counted(a, name=name, original=getattr(bidiag, name)):
            calls.append(name)
            return original(a)
        monkeypatch.setattr(bidiag, name, counted)
    return calls


@pytest.mark.parametrize("shape", [(40, 40), (200, 24), (24, 200), (4, 44), (44, 4)])
@pytest.mark.parametrize("rank", [1, 3])
def test_rank_deficient_input_stops_after_its_rank(monkeypatch, shape, rank):
    """Past about step r the trailing block of rank-r input is rounding
    noise below tau = max(r, c) * eps * m, and the loop stops there; sigma
    stays within test_known_sigma's bound of the oracle and the factors
    pass verify."""
    r, c = shape
    rng = np.random.default_rng(r * 100 + c + rank)
    a = random_qmatrix(r, rank, rng) @ random_qmatrix(rank, c, rng)
    calls = _count_reflections(monkeypatch)
    for accumulate in (True, False):
        calls.clear()
        bidiagonalize(a, accumulate=accumulate)
        assert [name for name, _, _ in calls].count("_reflect_left") <= rank + 2
    full, lean = qsvd(a), qsvd(a, want_vectors=False)
    assert np.array_equal(full.sigma, lean.sigma)
    oracle = adjoint_singular_values(a)
    assert np.abs(full.sigma - oracle).max() <= 16 * max(r, c) * EPS * oracle[0]
    assert verify(a, full).passed


def test_graded_full_rank_input_runs_every_step(monkeypatch):
    """sigma from 1 down to 100 tau: no trailing block is negligible."""
    n = 30
    rng = np.random.default_rng(30)
    p, q = random_orthonormal_columns(n, n, rng), random_orthonormal_columns(n, n, rng)
    sigma = np.ones(n)
    # tau follows the largest component, which sigma_min barely moves.
    for _ in range(2):
        tau = n * EPS * np.abs(known_sigma_matrix(sigma, p, q).data).max()
        sigma = np.geomspace(1.0, 100 * tau, n)
    a = known_sigma_matrix(sigma, p, q)
    calls = _count_builds(monkeypatch)
    for accumulate in (True, False):
        calls.clear()
        bidiagonalize(a, accumulate=accumulate)
        assert calls.count("left_householder") == n
        assert calls.count("right_householder") == n - 1
    assert np.abs(qsvd(a).sigma - sigma).max() <= 16 * n * EPS


@pytest.mark.parametrize("accumulate", [True, False])
def test_negligible_diagonal_tail_keeps_its_sigma_exactly(monkeypatch, accumulate):
    """A diagonal tail below tau stops the loop, and the snap keeps the
    moduli of its band entries bit for bit, where reflectors built from
    the tail would round them; step 0's reflector rounds the 1 alone.
    The factors carry the phases of the block left unreduced too: each
    singular triplet holds to its own sigma, measured componentwise, as
    (3e-250)**2 would underflow."""
    calls = _count_builds(monkeypatch)
    for rows in (3, 5):
        calls.clear()
        a = QMatrix(np.zeros((rows, 3, 4)))
        a.data[[0, 1, 2], [0, 1, 2], [0, 2, 3]] = [1.0, 1e-200, 3e-250]
        res = bidiagonalize(a, accumulate=accumulate)
        assert calls.count("left_householder") == 2
        svd = qsvd(a, want_vectors=accumulate)
        for got in (np.diagonal(res.bidiagonal.data), svd.sigma):
            assert np.array_equal(got[1:], [1e-200, 3e-250])
            assert abs(got[0] - 1.0) <= 4 * EPS
        if accumulate:
            av = (a @ svd.v).data
            for k, s in enumerate(svd.sigma):
                residual = np.abs(av[:, k] - s * svd.u.data[:, k]).max()
                assert residual <= 16 * rows * EPS * s


@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (3, 5)])
def test_zero_matrix_stops_at_step_zero(monkeypatch, shape):
    calls = _count_builds(monkeypatch)
    for accumulate in (False, True):
        calls.clear()
        res = bidiagonalize(QMatrix(np.zeros((*shape, 4))), accumulate=accumulate)
        assert calls == ["left_householder"]
        assert not res.bidiagonal.data.any() and res.snap_residue == 0.0
    assert unitary_error(res.left) == 0.0 and unitary_error(res.right) == 0.0


@pytest.mark.parametrize("shape", [(12, 8), (8, 8)])
def test_zero_leading_column_does_not_stop_the_loop(monkeypatch, shape):
    """Step 0's pivot is zero, but the rows left to reduce are not."""
    r, c = shape
    a = random_qmatrix(r, c, np.random.default_rng(r + c))
    a.data[:, 0] = 0.0
    calls = _count_builds(monkeypatch)
    res = bidiagonalize(a)
    n = min(r, c)
    assert calls.count("right_householder") == n - 1
    assert recon_error(a, res) <= 64 * max(r, c) * EPS * a.frobenius_norm()


@pytest.mark.parametrize("c0", [1, 3])
@pytest.mark.parametrize("side", ["left", "right"])
def test_padded_update_leaves_the_columns_left_of_c0_exact(side, c0):
    """The kernels run at the buffer's full width; the columns left of c0
    get an exact zero update, and the others what the kernel gives on the
    columns from c0 on alone."""
    rng = np.random.default_rng(13 + c0)
    kernel = bidiag._reflect_left if side == "left" else bidiag._reflect_right
    for _ in range(10):
        block = rng.standard_normal((6, 4, 7)) * 10.0 ** rng.uniform(-3, 3, (6, 4, 7))
        u = rng.standard_normal((6 if side == "left" else 7 - c0, 4))
        u *= np.sqrt(2.0) / np.linalg.norm(u)
        out, alone = block.copy(), block[:, :, c0:].copy()
        kernel(u, out, c0)
        kernel(u, alone)
        assert np.array_equal(out[:, :, :c0], block[:, :, :c0])
        assert np.allclose(out[:, :, c0:], alone, rtol=0, atol=64 * EPS * np.abs(block).max())


@pytest.mark.parametrize("c0", [0, 1, 3])
def test_right_kernel_folds_the_conjugation_signs_exactly(c0):
    """The right kernel's contraction constant carries conjugation's signs,
    so that its update multiplies by u.T; a sign is exact, so the block
    gets the same bits as from the unfolded formula, the real form of t
    against (u * conj signs).T, written out here with @."""
    rng = np.random.default_rng(21 + c0)
    hamilton_lmat = bidiag._HAMILTON @ bidiag._LMAT_OF.T
    for _ in range(10):
        block = rng.standard_normal((6, 4, 7)) * 10.0 ** rng.uniform(-3, 3, (6, 4, 7))
        u = rng.standard_normal((7 - c0, 4))
        u *= np.sqrt(2.0) / np.linalg.norm(u)
        out = block.copy()
        bidiag._reflect_right(u, out, c0)
        flat = block.reshape(24, 7).copy()
        padded = np.concatenate((np.zeros((c0, 4)), u))
        tmat = ((flat @ padded).reshape(6, 16) @ hamilton_lmat).reshape(24, 4)
        flat -= tmat @ (padded * bidiag._CONJ).T
        assert np.array_equal(out, flat.reshape(6, 4, 7))


def _identity_left_reflector_under_a_superdiagonal():
    """3 x 3 inputs whose step-1 left reflector is the identity (d1 = 0)
    while row 1 still holds the superdiagonal entry e1 != 0: the real
    [[1, 0, 0], [0, 0, 1], [0, 0, 1]], a quaternion one shaped alike, and
    one with a quaternion a01, whose step-0 right reflector is not the
    identity, so the scalar chained into column 1 of R is not 1 either."""
    real = RMatrix(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])).promote()
    data = np.zeros((3, 3, 4))
    data[[0, 1, 2], [0, 2, 2]] = np.random.default_rng(11).standard_normal((3, 4))
    chained = np.zeros((3, 3, 4))
    chained[[0, 0, 1, 2], [0, 1, 2, 2]] = np.random.default_rng(12).standard_normal((4, 4))
    return [real, QMatrix(data), QMatrix(chained)]


@pytest.mark.parametrize("a", _identity_left_reflector_under_a_superdiagonal())
def test_identity_left_reflector_keeps_the_scalars_on_their_rows(a):
    res = bidiagonalize(a)
    d, e = extract_band(res.bidiagonal)
    assert d[1] == 0.0 and e[1] != 0.0
    unit = 64 * 3 * EPS
    assert recon_error(a, res) <= unit * a.frobenius_norm()
    assert unitary_error(res.left) <= unit
    assert unitary_error(res.right) <= unit
    left, band, right = reflector_bidiagonalize(a)
    assert np.abs(res.bidiagonal.data - band).max() <= unit * a.frobenius_norm()
    assert np.abs(res.left.data - left.data).max() <= unit
    assert np.abs(res.right.data - right.data).max() <= unit


@pytest.mark.parametrize("side", ["left", "right"])
def test_kernels_apply_the_bare_reflector(side):
    """The kernels apply exactly I - u u*, with no unit scalar: u = 0
    leaves the block bit for bit, and a random u acts as the public
    reflector API's bare reflector."""
    rng = np.random.default_rng(12)
    kernel, apply = ((bidiag._reflect_left, apply_left) if side == "left"
                     else (bidiag._reflect_right, apply_right))
    m = 5 if side == "left" else 3
    block = rng.standard_normal((5, 4, 3))
    out = block.copy()
    kernel(np.zeros((m, 4)), out)
    assert np.array_equal(out, block)
    for _ in range(10):
        u = rng.standard_normal((m, 4))
        u *= np.sqrt(2.0) / np.linalg.norm(u)
        bare = u, np.array([1.0, 0.0, 0.0, 0.0])
        out = block.copy()
        kernel(u, out)
        expect = apply(bare, QMatrix(block.transpose(0, 2, 1).copy())).data.transpose(0, 2, 1)
        assert np.allclose(out, expect, rtol=0, atol=64 * EPS * np.abs(block).max())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("accumulate", [True, False])
def test_non_finite_entry_is_named(bad, accumulate):
    """The first bad entry in A's own row-major order is named.  A wide A
    is reduced through its conjugate transpose, whose planar copy meets
    entry (2, 0) before (1, 2), and an Inf may come before a NaN."""
    a = random_qmatrix(4, 3, np.random.default_rng(6))
    a.data[2, 1, 3] = bad
    a.data[3, 2, 0] = bad
    with pytest.raises(NonFiniteInput, match=r"\(2, 1\)"):
        bidiagonalize(a, accumulate=accumulate)
    for shape, first, second in [((3, 4), bad, bad), ((4, 3), np.inf, np.nan),
                                 ((3, 4), np.inf, np.nan)]:
        a = random_qmatrix(*shape, np.random.default_rng(6))
        a.data[1, 2, 1] = first
        a.data[2, 0, 0] = second
        with pytest.raises(NonFiniteInput, match=r"\(1, 2\)"):
            bidiagonalize(a, accumulate=accumulate)


def test_reduction_avoids_interleaved_hamilton_kernels():
    tree = ast.parse(Path(bidiag.__file__).read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert not names & {"_hmatmul", "_apply_left_block", "_apply_right_block",
                        "Quaternion", "_conj", "_MUL", "_FROM_T", "_IDX", "_SIGN_L",
                        "_SIGN_R", "_hproduct", "_q4", "zeta", "zeta4"}


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
    # The band is the moduli of its entries: the negative ones turn
    # positive, and the last diagonal entry, a quaternion of norm 5 with
    # components in both halves, gives 5.
    work[cols - 1, :, cols - 1] = [3.0, 0.0, 0.0, -4.0]
    expect_band = np.abs(band)
    expect_band[cols - 1, cols - 1] = 5.0
    expect = 0.0
    if outside is not None:
        work[outside[0], [0, 2], outside[1]] = [3 * outside_scale, 4 * outside_scale]
        expect = 5 * outside_scale
    got, residue = bidiag._snap_band(work)
    assert residue == expect
    assert np.array_equal(got, expect_band)


def _snap_per_column(work):
    """Reference: the snap done column by column inside the reduction
    loop, as (band, residue) of a planar (rows, 4, cols) array: the band
    is the moduli of the band entries, the residue the largest norm of an
    entry outside the band."""
    work = work.copy()
    rows, _, cols = work.shape
    band = np.zeros((rows, cols))
    residue = 0.0
    for k in range(cols):
        below = work[k + 1:, :, k]
        band[k, k] = np.linalg.norm(work[k, :, k])
        residue = max(residue, float(np.linalg.norm(below, axis=-1).max()) if below.size else 0.0)
        if k <= cols - 2:
            right = work[k, :, k + 2:].T
            band[k, k + 1] = np.linalg.norm(work[k, :, k + 1])
            residue = max(residue,
                          float(np.linalg.norm(right, axis=-1).max()) if right.size else 0.0)
    return band, residue


@pytest.mark.parametrize("shape", [(1, 1), (6, 1), (2, 2), (9, 9), (40, 17), (64, 64)])
def test_snap_band_matches_the_per_column_snap(shape):
    rows, cols = shape
    rng = np.random.default_rng(rows * 100 + cols)
    in_band = np.eye(rows, cols, dtype=bool) | np.eye(rows, cols, 1, dtype=bool)
    for rep in range(40):
        work = rng.standard_normal((rows, 4, cols)) * 10.0 ** rng.uniform(-18, 3, (rows, 4, cols))
        if rep % 2:
            # Make everything dropped far smaller than the band, which the
            # residue must then leave out.
            work.transpose(0, 2, 1)[~in_band] *= 1e-20
        band, residue = bidiag._snap_band(work)
        ref_band, ref_residue = _snap_per_column(work)
        assert residue == ref_residue
        assert np.all(band >= 0.0)
        assert np.array_equal(band == 0.0, ~in_band | (ref_band == 0.0))
        # The band's moduli are taken by hypot, the reference's by a dot
        # product: each is within an ulp or two.
        assert np.allclose(band, ref_band, rtol=4 * EPS, atol=0)


@pytest.mark.parametrize("accumulate", [True, False])
def test_graded_diagonal_keeps_its_small_band_entries(accumulate):
    """The band is the moduli of the bare band entries; an entry 2**-600
    below the largest keeps its relative accuracy, as the real band SVD
    keeps the small values of a graded band."""
    q = np.random.default_rng(14).standard_normal((3, 4))
    scales = np.ldexp(1.0, [0, -600, -1000])
    a = QMatrix(np.zeros((3, 3, 4)))
    a.data[[0, 1, 2], [0, 1, 2]] = q * scales[:, np.newaxis]
    res = bidiagonalize(a, accumulate=accumulate)
    expect = np.linalg.norm(q, axis=1) * scales
    assert np.allclose(np.diagonal(res.bidiagonal.data), expect, rtol=8 * EPS, atol=0)


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
        ([[5.0]], True, True),
        ([[5.0]], False, True),
        ([[1.0, 2.0, 0.0]], True, True),
        ([[1.0, 2.0, 4.0]], True, False),
        ([[1.0, 2.0, 0.0]], False, False),
        ([[1.0, 0.0, 0.0]], False, True),
        ([[1.0], [0.0], [4.0]], True, False),
        ([[1.0], [0.0], [4.0]], False, False),
        ([[1.0], [2.0], [0.0]], False, True),
        # a NaN on the band is not looked at; one off it fails the check
        ([[1.0, np.nan], [0.0, 1.0]], True, True),
        ([[1.0, 0.0], [np.nan, 1.0]], True, False),
    ],
)
def test_check_bidiagonal_table(m, upper, ok):
    assert check_bidiagonal(RMatrix(np.array(m)), upper=upper) == ok


def test_check_bidiagonal_tolerance():
    m = RMatrix(np.array([[1.0, 0.0], [1e-13, 1.0]]))
    assert not check_bidiagonal(m, upper=True)
    assert check_bidiagonal(m, upper=True, tol=1e-12)
    # tall lower: the entry (2, 0) is below the subdiagonal
    m = RMatrix(np.array([[1.0, 0.0], [2.0, 1.0], [-1e-13, 3.0]]))
    assert not check_bidiagonal(m, upper=False)
    assert check_bidiagonal(m, upper=False, tol=1e-12)
    assert not check_bidiagonal(m, upper=True, tol=1e-12)


@pytest.mark.parametrize(
    "m, lower, d, e",
    [
        ([[3.0, 0.0], [0.0, 4.0]], False, [3.0, 4.0], [0.0]),
        ([[1.0, 1.0], [0.0, 1.0]], False, [1.0, 1.0], [1.0]),
        # the band entry hanging past the square block is zero, so nothing is lost
        ([[1.0, 2.0, 0.0], [0.0, 3.0, 0.0]], False, [1.0, 3.0], [2.0]),
        ([[1.0, 0.0], [2.0, 3.0], [0.0, 0.0]], True, [1.0, 3.0], [2.0]),
        ([[5.0]], False, [5.0], []),
    ],
)
def test_extract_band_table(m, lower, d, e):
    got_d, got_e = extract_band(RMatrix(np.array(m)), lower=lower)
    assert np.array_equal(got_d, np.array(d))
    assert np.array_equal(got_e, np.array(e))


@pytest.mark.parametrize(
    "m, lower",
    [
        ([[1.0, 2.0, 0.0], [0.0, 3.0, 4.0]], False),  # wide upper: entry (1, 2)
        ([[1.0, 0.0], [2.0, 3.0], [0.0, 4.0]], True),  # tall lower: entry (2, 1)
    ],
)
def test_extract_band_rejects_a_hanging_entry(m, lower):
    # Such a matrix is bidiagonal, but (d, e) cannot hold the entry past the
    # square block: dropping it gave sigma 3.650, 0.822 for 5.164, 1.827.
    assert check_bidiagonal(RMatrix(np.array(m)), upper=not lower)
    with pytest.raises(NotBidiagonal, match="past the leading square block"):
        extract_band(RMatrix(np.array(m)), lower=lower)


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
