import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatsvd.errors import NonFiniteInput, ShapeMismatch
from quatsvd.householder import left_householder, right_householder
from quatsvd.qmat import QMatrix, _q4, random_qmatrix
from quatsvd.quat import I, J, Quaternion
from references import (apply_left, apply_right, form_matrix, outer_hermitian,
                        right_householder_direct)

BUILDERS = [left_householder, right_householder, right_householder_direct]
# The side each builder's reflector acts on; the reflector does not record it.
SIDE = {left_householder: "left", right_householder: "right", right_householder_direct: "right"}
APPLY = {"left": apply_left, "right": apply_right}

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
SQRT2 = np.sqrt(2.0)


def random_vector(n, rng):
    return rng.uniform(-1, 1, (n, 4))


def vector(*entries):
    """The (n, 4) components of a vector of quaternions."""
    return np.array([_q4(q) for q in entries])


def norm(a):
    """The norm of the vector with components `a`, by the package's norm
    rule: the Frobenius norm of the one-column matrix."""
    return QMatrix(a[:, np.newaxis]).frobenius_norm()


def test_zero_vector_gives_identity():
    h = left_householder(np.zeros((2, 4)))
    u, zeta4 = h
    assert not u.any()
    assert np.array_equal(zeta4, [1.0, 0.0, 0.0, 0.0])
    a = random_qmatrix(2, 3, np.random.default_rng(0))
    assert np.array_equal(apply_left(h, a).data, a.data)


def test_real_column_example():
    a = vector(Quaternion(3), Quaternion(0), Quaternion(0))
    h = left_householder(a)
    u, zeta4 = h
    assert np.array_equal(zeta4, [-1.0, 0.0, 0.0, 0.0])
    assert u[0, 0] == pytest.approx(SQRT2, rel=1e-15)
    assert not u[1:].any()
    out = apply_left(h, a)
    target = np.zeros((3, 4))
    target[0, 0] = 3.0
    assert np.linalg.norm(out - target) <= 1e-13 * 3.0


def test_imaginary_column_example():
    a = vector(I, Quaternion(0))
    h = left_householder(a)
    u, zeta4 = h
    assert np.array_equal(zeta4, [0.0, -1.0, 0.0, 0.0])
    assert u[0, 1] == pytest.approx(SQRT2, rel=1e-15)
    out = apply_left(h, a)
    target = np.zeros((2, 4))
    target[0, 0] = 1.0
    assert np.linalg.norm(out - target) <= 1e-13


def test_right_zero_row_gives_identity():
    u, zeta4 = right_householder(np.zeros((3, 4)))
    assert not u.any()
    assert np.array_equal(zeta4, [1.0, 0.0, 0.0, 0.0])


def test_right_j_row_example():
    a = vector(J, Quaternion(0))
    g = right_householder(a)
    u, zeta4 = g
    assert np.array_equal(zeta4, [0.0, 0.0, -1.0, 0.0])
    assert u[0, 2] == pytest.approx(-SQRT2, rel=1e-15)
    out = apply_right(g, a)
    target = np.zeros((2, 4))
    target[0, 0] = 1.0
    assert np.linalg.norm(out - target) <= 1e-13


def test_right_real_row_example():
    a = vector(Quaternion(3), Quaternion(0))
    g = right_householder(a)
    u, zeta4 = g
    assert np.array_equal(zeta4, [-1.0, 0.0, 0.0, 0.0])
    assert abs(abs(u[0, 0]) - SQRT2) <= 1e-15
    out = apply_right(g, a)
    assert out[0, 0] == pytest.approx(3.0, rel=1e-13)


def test_apply_side_and_shape_checks():
    # Each side checks its own axis: the rows from the left, the columns
    # from the right.
    rng = np.random.default_rng(3)
    h = left_householder(random_vector(3, rng))
    g = right_householder(random_vector(3, rng))
    assert apply_left(h, random_qmatrix(3, 4, rng)).shape == (3, 4)
    assert apply_right(g, random_qmatrix(4, 3, rng)).shape == (4, 3)
    with pytest.raises(ShapeMismatch):
        apply_left(h, random_qmatrix(4, 3, rng))
    with pytest.raises(ShapeMismatch):
        apply_right(g, random_qmatrix(3, 4, rng))


@given(seeds, st.integers(min_value=1, max_value=20))
@settings(max_examples=80, deadline=None)
def test_reflector_invariants(seed, n):
    rng = np.random.default_rng(seed)
    a = random_vector(n, rng)
    h = left_householder(a)
    u, zeta4 = h
    # |zeta| = 1 and |u|^2 = 2 (or the identity reflector)
    assert abs(math.hypot(*zeta4) - 1.0) <= 1e-14
    if u.any():
        assert abs(norm(u) ** 2 - 2.0) <= 1e-12
    # H a = |a| e1
    out = apply_left(h, a)
    target = np.zeros((n, 4))
    target[0, 0] = norm(a)
    assert np.linalg.norm(out - target) <= 1e-13 * norm(a)


@given(seeds, st.integers(min_value=1, max_value=12))
@settings(max_examples=60, deadline=None)
def test_right_reflector_targets_row(seed, n):
    rng = np.random.default_rng(seed)
    a = random_vector(n, rng)
    g = right_householder(a)
    out = apply_right(g, a)
    target = np.zeros((n, 4))
    target[0, 0] = norm(a)
    assert np.linalg.norm(out - target) <= 1e-13 * norm(a)


@given(seeds, st.integers(min_value=1, max_value=8))
@settings(max_examples=50, deadline=None)
def test_projector_is_involution(seed, n):
    rng = np.random.default_rng(seed)
    u, _ = left_householder(random_vector(n, rng))
    m = QMatrix.identity(n) - outer_hermitian(u)
    assert ((m @ m) - QMatrix.identity(n)).frobenius_norm() <= 1e-12
    assert np.array_equal(m.data, m.conj_transpose().data)


@given(seeds, st.integers(min_value=1, max_value=8))
@settings(max_examples=50, deadline=None)
def test_form_matrix_unitary_and_consistent(seed, n):
    rng = np.random.default_rng(seed)
    h = left_householder(random_vector(n, rng))
    mat = form_matrix(h, "left")
    ident = QMatrix.identity(n)
    assert ((mat @ mat.conj_transpose()) - ident).frobenius_norm() <= 1e-12
    assert ((mat.conj_transpose() @ mat) - ident).frobenius_norm() <= 1e-12
    a = random_qmatrix(n, 5, rng)
    implicit = apply_left(h, a)
    explicit = mat @ a
    assert (implicit - explicit).frobenius_norm() <= 1e-13 * a.frobenius_norm()

    g = right_householder(random_vector(n, rng))
    b = random_qmatrix(5, n, rng)
    assert (apply_right(g, b) - b @ form_matrix(g, "right")).frobenius_norm() \
        <= 1e-13 * b.frobenius_norm()


@given(seeds, st.integers(min_value=1, max_value=10))
@settings(max_examples=50, deadline=None)
def test_apply_preserves_norm(seed, n):
    rng = np.random.default_rng(seed)
    h = left_householder(random_vector(n, rng))
    a = random_qmatrix(n, 4, rng)
    assert apply_left(h, a).frobenius_norm() == pytest.approx(
        a.frobenius_norm(), rel=1e-12)


@given(seeds, st.integers(min_value=1, max_value=10))
@settings(max_examples=60, deadline=None)
def test_direct_right_formula_matches_reduction(seed, n):
    rng = np.random.default_rng(seed)
    a = random_vector(n, rng)
    red = right_householder(a)
    direct = right_householder_direct(a)
    # same unit scalar, u flipped in sign, identical transformation
    assert np.array_equal(red[1], direct[1])
    assert np.array_equal(direct[0], -red[0])
    assert np.array_equal(form_matrix(direct, "right").data, form_matrix(red, "right").data)
    out = apply_right(direct, a)
    target = np.zeros((n, 4))
    target[0, 0] = norm(a)
    assert np.linalg.norm(out - target) <= 1e-12 * norm(a)


@pytest.mark.parametrize("build", BUILDERS)
def test_reflector_near_overflow(build):
    # alpha * (alpha + r) overflows here; the reflector must not.
    a = np.random.default_rng(8).uniform(-1, 1, (4, 4)) * 1e300
    h = build(a)
    assert norm(h[0]) == pytest.approx(SQRT2, rel=1e-14)
    out = APPLY[SIDE[build]](h, a)
    assert out[0, 0] == pytest.approx(norm(a), rel=1e-14)
    assert np.abs(out.ravel()[1:]).max() <= 1e-14 * norm(a)


@pytest.mark.parametrize("build", BUILDERS)
def test_reflector_of_an_overflowing_norm(build):
    # Every entry is finite but norm(a) = 2.1e308 is not.
    a = np.array([[1.5e308, 0.0, 0.0, 0.0]] * 2)
    h = build(a)
    assert np.isfinite(h[0]).all()
    assert norm(h[0]) ** 2 == pytest.approx(2.0, rel=1e-15)
    half = QMatrix(a[:, np.newaxis] / 2)  # apply_left overflows in u* half
    side = SIDE[build]
    out = (form_matrix(h, side) @ half if side == "left"
           else QMatrix(half.data.transpose(1, 0, 2)) @ form_matrix(h, side)).data.reshape(-1, 4)
    half_norm = norm(a / 2)
    assert out[0, 0] == pytest.approx(half_norm, rel=1e-14)
    assert np.abs(out.ravel()[1:]).max() <= 1e-14 * half_norm


@pytest.mark.parametrize("build", BUILDERS)
@pytest.mark.parametrize("k", [-500, -250, 250, 500])
def test_rescaled_norm_changes_no_bit(build, k):
    # Sums of squares near 2**(4k) take the rescaled path, sums near 1 the
    # direct one.  Largest entries in [0.5, 1) and in [1, 2) have even and
    # odd exponents.
    rng = np.random.default_rng(10)
    for n in (1, 2, 5, 17):
        for top in (1.0, 2.0):
            data = rng.uniform(-top, top, (n, 4))
            h, scaled = build(data), build(data * 4.0 ** k)
            assert np.array_equal(scaled[0], h[0])
            assert np.array_equal(scaled[1], h[1])


def test_reflector_contract():
    """A build returns the arrays (u, zeta4): u in its input's (n, 4)
    layout as float64 for any real input, C-contiguous from the package's
    builders, and zeta4 of shape (4,); the input is left as it was.  The
    reduction hands the builders strided views of its planar (m, 4, n)
    block, a column and a transposed row: u shares no memory with the
    block, and the pair is the one built from the view's contiguous copy."""
    rng = np.random.default_rng(11)
    block = rng.uniform(-1, 1, (7, 4, 6))
    views = (block[2:, :, 2], block[2, :, 3:].T)
    for build in BUILDERS:
        for data in (random_vector(5, rng), np.ones((4, 3), dtype=int).T,
                     np.zeros((3, 4))) + views:
            before = data.copy()
            u, zeta4 = build(data)
            assert u.shape == data.shape and u.dtype == np.float64
            assert u.flags.c_contiguous or build is right_householder_direct
            assert zeta4.shape == (4,) and zeta4.dtype == np.float64
            assert np.array_equal(data, before)
            assert not np.shares_memory(u, block)
            u_copy, zeta4_copy = build(np.ascontiguousarray(data))
            assert u.tobytes() == u_copy.tobytes()
            assert zeta4.tobytes() == zeta4_copy.tobytes()


@pytest.mark.parametrize("build", BUILDERS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_reflector_rejects_non_finite_entry(build, bad):
    data = np.random.default_rng(9).uniform(-1, 1, (5, 4))
    data[3, 2] = data[2, 1] = bad
    with pytest.raises(NonFiniteInput, match=r"entry 2 is not finite"):
        build(data)


def test_real_example_involution():
    a = vector(Quaternion(3), Quaternion(0), Quaternion(0))
    h = left_householder(a)
    mat = form_matrix(h, "left")
    assert ((mat @ mat) - QMatrix.identity(3)).frobenius_norm() <= 1e-12


def _special_inputs():
    """Component arrays for the e1 builds: random of several lengths, zero
    (identity), a zero first entry (zeta = 1), norms far enough from 1 to
    take the rescaled path, and all-subnormal entries."""
    rng = np.random.default_rng(19)
    cases = {f"random{n}": rng.uniform(-1, 1, (n, 4)) for n in (1, 2, 7, 48)}
    cases["zero"] = np.zeros((4, 4))
    cases["first_entry_zero"] = rng.uniform(-1, 1, (6, 4))
    cases["first_entry_zero"][0] = 0.0
    for k in (500, -500):
        cases[f"scaled_2^{k}"] = np.ldexp(rng.uniform(-1, 1, (5, 4)), k)
    cases["subnormal"] = np.ldexp(rng.uniform(-1, 1, (5, 4)), -1040)
    return cases


SPECIAL_INPUTS = _special_inputs()


@pytest.mark.parametrize("build", [left_householder, right_householder])
@pytest.mark.parametrize("name", SPECIAL_INPUTS)
def test_default_target_is_e1(build, name):
    """e1, the builders' only target: H a = norm(a) e1 within 1e-13 norm(a),
    and the right build is the closed form's bit for bit.  H is linear, so
    it is applied to a times the power of two that brings the largest entry
    near 1: at 2**-1040 the products in the apply itself would lose the
    digits the check looks at."""
    data = SPECIAL_INPUTS[name]
    h = build(data)
    a = np.ldexp(data, -int(np.frexp(np.abs(data).max())[1]))
    out = APPLY[SIDE[build]](h, a)
    target = np.zeros_like(data)
    target[0, 0] = norm(a)
    assert np.linalg.norm(out - target) <= 1e-13 * norm(a)
    if name == "first_entry_zero":
        assert np.array_equal(h[1], [1.0, 0.0, 0.0, 0.0])
    if build is right_householder:
        direct = right_householder_direct(data)
        assert np.array_equal(direct[1], h[1])
        assert np.array_equal(direct[0], -h[0])
