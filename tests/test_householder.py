from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatsvd.errors import BadTarget, NonFiniteInput, ShapeMismatch
from quatsvd.householder import (HouseholderReflector, Side, form_matrix, left_householder,
                                 right_householder)
from quatsvd.qmat import QMatrix, QVector, random_qmatrix
from quatsvd.quat import I, J, Quaternion
from references import apply_left, apply_right, right_householder_direct

BUILDERS = [left_householder, right_householder, right_householder_direct]

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
SQRT2 = np.sqrt(2.0)


def e1(n):
    v = np.zeros(n)
    v[0] = 1.0
    return v


def random_vector(n, rng):
    return QVector(rng.uniform(-1, 1, (n, 4)))


def test_zero_vector_gives_identity():
    h = left_householder(QVector.zeros(2), e1(2))
    assert h.is_identity
    assert h.zeta == Quaternion(1)
    a = random_qmatrix(2, 3, np.random.default_rng(0))
    assert np.array_equal(apply_left(h, a).data, a.data)


def test_real_column_example():
    a = QVector.from_quaternions([Quaternion(3), Quaternion(0), Quaternion(0)])
    h = left_householder(a, e1(3))
    assert h.zeta == Quaternion(-1)
    assert h.u[0].w == pytest.approx(SQRT2, rel=1e-15)
    assert abs(h.u[1]) == 0.0 and abs(h.u[2]) == 0.0
    out = apply_left(h, a)
    target = np.zeros((3, 4))
    target[0, 0] = 3.0
    assert np.linalg.norm(out.data - target) <= 1e-13 * 3.0


def test_imaginary_column_example():
    a = QVector.from_quaternions([I, Quaternion(0)])
    h = left_householder(a, e1(2))
    assert h.zeta == -I
    assert h.u[0].x == pytest.approx(SQRT2, rel=1e-15)
    out = apply_left(h, a)
    target = np.zeros((2, 4))
    target[0, 0] = 1.0
    assert np.linalg.norm(out.data - target) <= 1e-13


def test_right_zero_row_gives_identity():
    g = right_householder(QVector.zeros(3), e1(3))
    assert g.is_identity
    assert g.zeta == Quaternion(1)
    assert g.side is Side.RIGHT


def test_right_j_row_example():
    a = QVector.from_quaternions([J, Quaternion(0)])
    g = right_householder(a, e1(2))
    assert g.zeta == -J
    assert g.u[0].y == pytest.approx(-SQRT2, rel=1e-15)
    out = apply_right(g, a)
    target = np.zeros((2, 4))
    target[0, 0] = 1.0
    assert np.linalg.norm(out.data - target) <= 1e-13


def test_right_real_row_example():
    a = QVector.from_quaternions([Quaternion(3), Quaternion(0)])
    g = right_householder(a, e1(2))
    assert g.zeta == Quaternion(-1)
    assert abs(abs(g.u[0].w) - SQRT2) <= 1e-15
    out = apply_right(g, a)
    assert out[0].w == pytest.approx(3.0, rel=1e-13)


def test_bad_targets_rejected():
    a = random_vector(3, np.random.default_rng(1))
    with pytest.raises(BadTarget):
        left_householder(a, np.array([1.0, 1.0, 0.0]))  # not unit norm
    with pytest.raises(BadTarget):
        left_householder(a, QVector.from_quaternions([I, Quaternion(0), Quaternion(0)]))
    with pytest.raises(BadTarget):
        left_householder(a, np.eye(3))  # not one-dimensional
    with pytest.raises(ShapeMismatch):
        left_householder(a, e1(4))
    for build in BUILDERS:
        with pytest.raises(BadTarget):
            build(a, np.array([np.nan, 0.0, 0.0]))  # a NaN norm
        # numpy's cast to float64 would drop the imaginary part silently
        with pytest.raises(BadTarget, match="complex128"):
            build(a, np.array([0.6 + 0.5j, 0.8, 0.0]))


@pytest.mark.parametrize("build", BUILDERS)
@pytest.mark.parametrize("bad", [1e200, np.inf, np.nan])
def test_huge_target_is_a_bad_target_not_an_overflow(build, bad):
    """The target's square overflows beyond about 1.3e154; that must end in
    BadTarget, not in the RuntimeWarning the test filter makes an error."""
    with pytest.raises(BadTarget):
        build(QVector(np.ones((2, 4))), np.array([bad, 0.0]))


def test_target_as_real_qvector_accepted():
    a = random_vector(2, np.random.default_rng(2))
    v = QVector.from_quaternions([Quaternion(1), Quaternion(0)])
    h = left_householder(a, v)
    out = apply_left(h, a)
    assert abs(out[0]) == pytest.approx(a.norm(), rel=1e-13)


def test_apply_side_and_shape_checks():
    rng = np.random.default_rng(3)
    h = left_householder(random_vector(3, rng), e1(3))
    g = right_householder(random_vector(3, rng), e1(3))
    a = random_qmatrix(3, 3, rng)
    with pytest.raises(ValueError):
        apply_left(g, a)
    with pytest.raises(ValueError):
        apply_right(h, a)
    with pytest.raises(ShapeMismatch):
        apply_left(h, random_qmatrix(4, 3, rng))
    with pytest.raises(ShapeMismatch):
        apply_right(g, random_qmatrix(3, 4, rng))


@given(seeds, st.integers(min_value=1, max_value=20))
@settings(max_examples=80, deadline=None)
def test_reflector_invariants(seed, n):
    rng = np.random.default_rng(seed)
    a = random_vector(n, rng)
    h = left_householder(a, e1(n))
    # |zeta| = 1 and |u|^2 = 2 (or the identity reflector)
    assert abs(abs(h.zeta) - 1.0) <= 1e-14
    if not h.is_identity:
        assert abs(h.u.norm() ** 2 - 2.0) <= 1e-12
    # H a = |a| e1
    out = apply_left(h, a)
    target = np.zeros((n, 4))
    target[0, 0] = a.norm()
    assert np.linalg.norm(out.data - target) <= 1e-13 * a.norm()


@given(seeds, st.integers(min_value=1, max_value=12))
@settings(max_examples=60, deadline=None)
def test_right_reflector_targets_row(seed, n):
    rng = np.random.default_rng(seed)
    a = random_vector(n, rng)
    g = right_householder(a, e1(n))
    out = apply_right(g, a)
    target = np.zeros((n, 4))
    target[0, 0] = a.norm()
    assert np.linalg.norm(out.data - target) <= 1e-13 * a.norm()


@given(seeds, st.integers(min_value=1, max_value=10))
@settings(max_examples=50, deadline=None)
def test_random_real_targets(seed, n):
    rng = np.random.default_rng(seed)
    a = random_vector(n, rng)
    v = rng.uniform(-1, 1, n)
    while np.linalg.norm(v) < 1e-3:
        v = rng.uniform(-1, 1, n)
    v = v / np.linalg.norm(v)
    h = left_householder(a, v)
    out = apply_left(h, a)
    target = np.outer(v * a.norm(), [1.0, 0.0, 0.0, 0.0])
    assert np.linalg.norm(out.data - target) <= 1e-13 * a.norm()


@given(seeds, st.integers(min_value=1, max_value=8))
@settings(max_examples=50, deadline=None)
def test_projector_is_involution(seed, n):
    rng = np.random.default_rng(seed)
    h = left_householder(random_vector(n, rng), e1(n))
    m = QMatrix.identity(n) - h.u.outer_hermitian()
    assert ((m @ m) - QMatrix.identity(n)).frobenius_norm() <= 1e-12
    assert np.array_equal(m.data, m.conj_transpose().data)


@given(seeds, st.integers(min_value=1, max_value=8))
@settings(max_examples=50, deadline=None)
def test_form_matrix_unitary_and_consistent(seed, n):
    rng = np.random.default_rng(seed)
    h = left_householder(random_vector(n, rng), e1(n))
    mat = form_matrix(h)
    ident = QMatrix.identity(n)
    assert ((mat @ mat.conj_transpose()) - ident).frobenius_norm() <= 1e-12
    assert ((mat.conj_transpose() @ mat) - ident).frobenius_norm() <= 1e-12
    a = random_qmatrix(n, 5, rng)
    implicit = apply_left(h, a)
    explicit = mat @ a
    assert (implicit - explicit).frobenius_norm() <= 1e-13 * a.frobenius_norm()

    g = right_householder(random_vector(n, rng), e1(n))
    b = random_qmatrix(5, n, rng)
    assert (apply_right(g, b) - b @ form_matrix(g)).frobenius_norm() \
        <= 1e-13 * b.frobenius_norm()


@given(seeds, st.integers(min_value=1, max_value=10))
@settings(max_examples=50, deadline=None)
def test_apply_preserves_norm(seed, n):
    rng = np.random.default_rng(seed)
    h = left_householder(random_vector(n, rng), e1(n))
    a = random_qmatrix(n, 4, rng)
    assert apply_left(h, a).frobenius_norm() == pytest.approx(
        a.frobenius_norm(), rel=1e-12)


@given(seeds, st.integers(min_value=1, max_value=10))
@settings(max_examples=60, deadline=None)
def test_direct_right_formula_matches_reduction(seed, n):
    rng = np.random.default_rng(seed)
    a = random_vector(n, rng)
    red = right_householder(a, e1(n))
    direct = right_householder_direct(a, e1(n))
    # same unit scalar, u flipped in sign, identical transformation
    assert red.zeta == direct.zeta
    assert np.array_equal(direct.u.data, -red.u.data)
    assert np.array_equal(form_matrix(direct).data, form_matrix(red).data)
    out = apply_right(direct, a)
    target = np.zeros((n, 4))
    target[0, 0] = a.norm()
    assert np.linalg.norm(out.data - target) <= 1e-12 * a.norm()


@pytest.mark.parametrize("build", BUILDERS)
def test_reflector_near_overflow(build):
    # alpha * (alpha + r) overflows here; the reflector must not.
    a = QVector(np.random.default_rng(8).uniform(-1, 1, (4, 4)) * 1e300)
    h = build(a, e1(4))
    assert h.u.norm() == pytest.approx(SQRT2, rel=1e-14)
    apply = apply_left if h.side is Side.LEFT else apply_right
    out = apply(h, a).data
    assert out[0, 0] == pytest.approx(a.norm(), rel=1e-14)
    assert np.abs(out.ravel()[1:]).max() <= 1e-14 * a.norm()


@pytest.mark.parametrize("build", BUILDERS)
def test_reflector_of_an_overflowing_norm(build):
    # Every entry is finite but norm(a) = 2.1e308 is not.
    a = QVector(np.array([[1.5e308, 0.0, 0.0, 0.0]] * 2))
    h = build(a, [1.0, 0.0])
    assert np.isfinite(h.u.data).all()
    assert h.u.norm() ** 2 == pytest.approx(2.0, rel=1e-15)
    half = QMatrix(a.data[:, np.newaxis] / 2)  # apply_left overflows in u* half
    out = (form_matrix(h) @ half if h.side is Side.LEFT
           else QMatrix(half.data.transpose(1, 0, 2)) @ form_matrix(h)).data.reshape(-1, 4)
    norm = QVector(a.data / 2).norm()
    assert out[0, 0] == pytest.approx(norm, rel=1e-14)
    assert np.abs(out.ravel()[1:]).max() <= 1e-14 * norm


@pytest.mark.parametrize("build", BUILDERS)
@pytest.mark.parametrize("k", [-500, -250, 250, 500])
def test_rescaled_norm_changes_no_bit(build, k):
    # Sums of squares near 2**(4k) take the rescaled path, sums near 1 the
    # direct one.  Largest entries in [0.5, 1) and in [1, 2) have even and
    # odd exponents.
    rng = np.random.default_rng(10)
    for n in (1, 2, 5, 17):
        v = rng.uniform(-1, 1, n)
        for target, top in [(e1(n), 1.0), (e1(n), 2.0), (v / np.linalg.norm(v), 2.0)]:
            data = rng.uniform(-top, top, (n, 4))
            h, scaled = build(QVector(data), target), build(QVector(data * 4.0 ** k), target)
            assert np.array_equal(scaled.u.data, h.u.data)
            assert np.array_equal(scaled.zeta4, h.zeta4)


def test_reflector_contract():
    u = np.zeros((3, 4))
    u[2, 3] = 1.0  # the only nonzero component, off the pivot
    h = HouseholderReflector(QVector(u), Quaternion(0, 1, 0, 0), Side.LEFT)
    assert not h.is_identity
    assert HouseholderReflector(QVector.zeros(3), Quaternion(1), Side.LEFT).is_identity
    assert h.zeta == Quaternion(0, 1, 0, 0) and h.z == Quaternion(0, -1, 0, 0)
    assert len(h) == 3
    with pytest.raises(FrozenInstanceError):
        h.side = Side.RIGHT

    rng = np.random.default_rng(11)
    for build in BUILDERS:
        built = build(random_vector(5, rng), e1(5))
        assert len(built) == 5
        assert isinstance(built.zeta, Quaternion) and isinstance(built.z, Quaternion)
        assert built.zeta == Quaternion(*built.zeta4)
        assert built.z == built.zeta.conjugate()


@pytest.mark.parametrize("build", BUILDERS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_reflector_rejects_non_finite_entry(build, bad):
    data = np.random.default_rng(9).uniform(-1, 1, (5, 4))
    data[3, 2] = data[2, 1] = bad
    with pytest.raises(NonFiniteInput, match=r"entry 2 is not finite"):
        build(QVector(data), e1(5))


def test_real_example_involution():
    a = QVector.from_quaternions([Quaternion(3), Quaternion(0), Quaternion(0)])
    h = left_householder(a, e1(3))
    mat = form_matrix(h)
    assert ((mat @ mat) - QMatrix.identity(3)).frobenius_norm() <= 1e-12


def _default_target_inputs():
    """Component arrays for the default target: random of several lengths,
    zero (identity), a zero first entry (zeta = 1), and the rescaled norms."""
    rng = np.random.default_rng(19)
    cases = {f"random{n}": rng.uniform(-1, 1, (n, 4)) for n in (1, 2, 7, 48)}
    cases["zero"] = np.zeros((4, 4))
    cases["first_entry_zero"] = rng.uniform(-1, 1, (6, 4))
    cases["first_entry_zero"][0] = 0.0
    for k in (500, -500):
        cases[f"scaled_2^{k}"] = np.ldexp(rng.uniform(-1, 1, (5, 4)), k)
    cases["subnormal"] = np.ldexp(rng.uniform(-1, 1, (5, 4)), -1040)
    return cases


DEFAULT_TARGET_INPUTS = _default_target_inputs()


@pytest.mark.parametrize("build", [left_householder, right_householder])
@pytest.mark.parametrize("name", DEFAULT_TARGET_INPUTS)
def test_default_target_is_e1(build, name):
    """Without a target, or with None, a build is the build onto e1, bit for bit."""
    a = QVector(DEFAULT_TARGET_INPUTS[name])
    want = build(a, e1(len(a)))
    for got in (build(a), build(a, v=None)):
        assert np.array_equal(got.u.data, want.u.data)
        assert np.array_equal(got.zeta4, want.zeta4)
        assert got.side is want.side
    if name == "first_entry_zero":
        assert np.array_equal(want.zeta4, [1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("build", [left_householder, right_householder])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_default_target_rejects_non_finite_entry(build, bad):
    data = np.random.default_rng(9).uniform(-1, 1, (5, 4))
    data[1, 3] = bad
    for target in ((), (None,), (e1(5),)):
        with pytest.raises(NonFiniteInput, match=r"entry 1 is not finite"):
            build(QVector(data), *target)
