import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quatsvd.qmat as qmat
from quatsvd.errors import ShapeMismatch
from quatsvd.householder import left_householder, right_householder
from quatsvd.qmat import QMatrix, RMatrix, _hmatmul, _q4, random_qmatrix
from quatsvd.quat import I, J, K, Quaternion
from references import (_hscale, _lmat, _rmat, form_matrix, outer_hermitian, scale_left,
                        scale_right)

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
EPS = 2.0 ** -52


def unitary_error(q: QMatrix) -> float:
    ident = QMatrix.identity(q.rows)
    return max(((q @ q.conj_transpose()) - ident).frobenius_norm(),
               ((q.conj_transpose() @ q) - ident).frobenius_norm())


def random_unitary(n, rng):
    # product of two Householder transformations: unitary by construction
    u = form_matrix(left_householder(rng.uniform(-1, 1, (n, 4))), "left")
    if n > 1:
        u = u @ form_matrix(left_householder(rng.uniform(-1, 1, (n, 4))), "left")
    return u


def test_conj_transpose_examples():
    assert QMatrix.from_quaternions([[I]]).conj_transpose()[0, 0] == -I
    eye = QMatrix.identity(3)
    assert np.array_equal(eye.conj_transpose().data, eye.data)
    m = QMatrix.from_quaternions([[Quaternion(1), J], [K, Quaternion(0)]])
    ct = m.conj_transpose()
    assert ct[0, 0] == Quaternion(1)
    assert ct[0, 1] == -K
    assert ct[1, 0] == -J
    assert ct[1, 1] == Quaternion(0)


def test_matmul_unit_entries():
    i = QMatrix.from_quaternions([[I]])
    j = QMatrix.from_quaternions([[J]])
    assert (i @ j)[0, 0] == K
    assert (j @ i)[0, 0] == -K


def test_matmul_identity():
    rng = np.random.default_rng(3)
    a = random_qmatrix(4, 3, rng)
    out = QMatrix.identity(4) @ a
    assert np.allclose(out.data, a.data, atol=0.0)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        random_qmatrix(2, 3, np.random.default_rng(0)) @ random_qmatrix(2, 3, np.random.default_rng(1))


def test_matmul_order_preserved():
    # i*j + 1*j = k + j; the flipped order would give -k + j instead
    a = QMatrix.from_quaternions([[I, Quaternion(1)]])
    b = QMatrix.from_quaternions([[J], [J]])
    assert (a @ b)[0, 0] == J + K


def extreme_components(shape, seed):
    """Components of `shape` at the edges of the float range: 2**1000,
    2**-1000, all subnormal, finite with a norm beyond the float range, and
    with one infinite or one NaN entry."""
    base = np.random.default_rng(seed).uniform(-1, 1, shape)
    cases = [np.ldexp(base, 1000), np.ldexp(base, -1000), np.ldexp(base, -1060),
             np.full(shape, 2.0 ** 1023)]
    for bad in (np.inf, np.nan):
        cases.append(base.copy())
        cases[-1].flat[-1] = bad
    return cases


def assert_norm(norm, data):
    """`norm()` of `data` is math.hypot of its components within 4 eps, inf
    beyond the float range and NaN for a NaN entry, with no warning."""
    want = math.hypot(*data.ravel().tolist())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = norm()
    assert math.isnan(got) if math.isnan(want) else got == pytest.approx(want, rel=4 * EPS, abs=0.0)


def test_vector_norms():
    """The norm of a vector is the Frobenius norm of its one-column matrix."""
    def column(*entries):
        return QMatrix.from_quaternions([[q] for q in entries])

    assert column(Quaternion(1), I).frobenius_norm() == pytest.approx(np.sqrt(2), rel=1e-15)
    assert QMatrix.zeros(3, 1).frobenius_norm() == 0.0
    v = column(Quaternion(1, 1, 1, 1), Quaternion(2))
    assert v.frobenius_norm() == pytest.approx(np.sqrt(8), rel=1e-15)
    for data in extreme_components((5, 4), 6):
        assert_norm(QMatrix(data[:, np.newaxis]).frobenius_norm, data)


def test_frobenius_norms():
    m = QMatrix.from_quaternions([[Quaternion(1), I], [J, K]])
    assert m.frobenius_norm() == pytest.approx(2.0, rel=1e-15)
    assert QMatrix.zeros(3, 2).frobenius_norm() == 0.0
    d = QMatrix.from_quaternions([[Quaternion(3), Quaternion(0)], [Quaternion(0), Quaternion(4)]])
    assert d.frobenius_norm() == pytest.approx(5.0, rel=1e-15)
    for shape in [(3, 2, 4), (200, 24, 4)]:
        for data in extreme_components(shape, 7):
            assert_norm(QMatrix(data).frobenius_norm, data)
            assert_norm(RMatrix(data[..., 0]).frobenius_norm, data[..., 0])


def test_frobenius_overflow_safe():
    m = QMatrix.from_quaternions([[Quaternion(1e200, 1e200)]])
    assert np.isfinite(m.frobenius_norm())


def test_outer_hermitian_examples():
    assert outer_hermitian(np.array([_q4(Quaternion(1))]))[0, 0] == Quaternion(1)
    assert outer_hermitian(np.array([_q4(I)]))[0, 0] == Quaternion(1)
    m = outer_hermitian(np.array([_q4(Quaternion(1)), _q4(J)]))
    assert m[0, 0] == Quaternion(1)
    assert m[0, 1] == -J
    assert m[1, 0] == J
    assert m[1, 1] == Quaternion(1)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_array_forms_follow_quaternion_multiplication(seed):
    # Every array form is derived from Quaternion.__mul__; check each one
    # against it entry by entry, on both sides.  _lmat reads qmat's
    # _LMAT_OF, the table of the reduction's kernels.
    rng = np.random.default_rng(seed)
    q, p = rng.uniform(-1, 1, (2, 4))
    tol = 8 * np.finfo(float).eps
    assert np.allclose(_lmat(q) @ p, _q4(Quaternion(*q) * Quaternion(*p)), rtol=0, atol=tol)
    assert np.allclose(_rmat(q) @ p, _q4(Quaternion(*p) * Quaternion(*q)), rtol=0, atol=tol)

    r, m, c = (int(n) for n in rng.integers(1, 5, size=3))
    a, b = rng.uniform(-1, 1, (r, m, 4)), rng.uniform(-1, 1, (m, c, 4))
    product = _hmatmul(a, b)
    left, right = _hscale(q, a, "left"), _hscale(q, a, "right")
    for i in range(r):
        for j in range(c):
            entry = Quaternion()
            for t in range(m):
                entry = entry + Quaternion(*a[i, t]) * Quaternion(*b[t, j])
            assert np.allclose(product[i, j], _q4(entry), rtol=0, atol=m * tol)
        for j in range(m):
            assert np.allclose(left[i, j], _q4(Quaternion(*q) * Quaternion(*a[i, j])),
                               rtol=0, atol=tol)
            assert np.allclose(right[i, j], _q4(Quaternion(*a[i, j]) * Quaternion(*q)),
                               rtol=0, atol=tol)


def test_real_forms_are_defined_in_qmat_only():
    names = {"_HAMILTON", "_LMAT_OF", "_RMAT_OF", "_CONJ", "_lmat", "_rmat"}
    for path in sorted(Path(qmat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        assert not defined & names or path.name == "qmat.py", path.name


@given(seeds, st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_outer_hermitian_is_exactly_hermitian(seed, n):
    rng = np.random.default_rng(seed)
    m = outer_hermitian(rng.uniform(-1, 1, (n, 4)))
    # diagonal real, off-diagonal pairs exact mirror conjugates
    assert np.all(m.data[np.arange(n), np.arange(n), 1:] == 0.0)
    ct = m.conj_transpose()
    assert np.array_equal(m.data, ct.data)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_conj_transpose_reverses_matmul(seed):
    rng = np.random.default_rng(seed)
    r, k, c = rng.integers(1, 7, size=3)
    a = random_qmatrix(int(r), int(k), rng)
    b = random_qmatrix(int(k), int(c), rng)
    lhs = (a @ b).conj_transpose()
    rhs = b.conj_transpose() @ a.conj_transpose()
    assert (lhs - rhs).frobenius_norm() <= 1e-13 * a.frobenius_norm() * b.frobenius_norm()


@given(seeds, st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_unitary_closure(seed, n):
    rng = np.random.default_rng(seed)
    p = random_unitary(n, rng)
    q = random_unitary(n, rng)
    assert unitary_error(p) <= 1e-12
    assert unitary_error(q) <= 1e-12
    assert unitary_error(p @ q) <= 1e-10


@given(seeds, st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_unit_scalar_preserves_unitarity(seed, n):
    rng = np.random.default_rng(seed)
    u = random_unitary(n, rng)
    z = Quaternion(*rng.uniform(-1, 1, 4))
    while abs(z) < 1e-3:
        z = Quaternion(*rng.uniform(-1, 1, 4))
    z = Quaternion(*(_q4(z) / abs(z)))
    assert unitary_error(scale_left(u, z)) <= 1e-12
    assert unitary_error(scale_right(u, z)) <= 1e-12


def test_real_promotion_round_trip():
    r = RMatrix(np.arange(6, dtype=float).reshape(2, 3))
    q = r.promote()
    assert not q.data[..., 1:].any()
    assert np.array_equal(q.data[..., 0], r.data)


def test_real_matrix_entries_and_product():
    r = RMatrix(np.arange(6, dtype=float).reshape(2, 3))
    assert r[1, 2] == 5.0 and type(r[1, 2]) is float
    r[0, 1] = 7
    assert r.data[0, 1] == 7.0
    with pytest.raises(TypeError):
        r[0, 1] = 1j
    assert r.data[0, 1] == 7.0
    other = RMatrix(np.arange(12, dtype=float).reshape(3, 4))
    product = r @ other
    assert isinstance(product, RMatrix)
    assert np.array_equal(product.data, r.data @ other.data)
    with pytest.raises(TypeError):
        r @ 2.0


def test_matrix_repr_names_type_and_shape():
    assert repr(QMatrix.zeros(2, 3)) == "QMatrix(2x3)"
    assert repr(RMatrix.identity(4)) == "RMatrix(4x4)"


def test_quaternion_entry_from_components():
    m = QMatrix.zeros(2, 2)
    m[1, 0] = [1.0, -2.0, 3.0, -4.0]
    assert m[1, 0] == Quaternion(1.0, -2.0, 3.0, -4.0)
    with pytest.raises(ShapeMismatch):
        m[0, 0] = [1.0, 2.0, 3.0]
    assert not m.data[0, 0].any()


def test_mixed_real_quaternion_products():
    rng = np.random.default_rng(9)
    a = random_qmatrix(3, 3, rng)
    eye = RMatrix.identity(3)
    assert np.allclose((a @ eye).data, a.data, atol=0.0)
    assert np.allclose((eye @ a).data, a.data, atol=0.0)
    # +, - and @ promote a real operand; the result equals the promoted one exactly.
    b = random_qmatrix(4, 4, rng)
    real = RMatrix(rng.standard_normal((4, 4)))
    for op in ("__add__", "__sub__", "__matmul__"):
        assert np.array_equal(getattr(b, op)(real).data, getattr(b, op)(real.promote()).data)
    assert np.array_equal((b - RMatrix.identity(4)).data[..., 1:], b.data[..., 1:])
    assert np.array_equal((b - RMatrix.identity(4)).data[..., 0], b.data[..., 0] - np.eye(4))
    tall = random_qmatrix(3, 5, rng)
    for other in (RMatrix(np.ones((5, 3))), random_qmatrix(5, 3, rng)):
        with pytest.raises(ShapeMismatch):
            tall + other
        with pytest.raises(ShapeMismatch):
            tall - other
    with pytest.raises(ShapeMismatch):
        tall @ RMatrix(np.ones((3, 5)))
    with pytest.raises(ShapeMismatch):
        RMatrix(np.ones((5, 5))) @ tall
    for other in (1.0, Quaternion(1.0), np.eye(4), b.data, "b"):
        with pytest.raises(TypeError):
            b + other
        with pytest.raises(TypeError):
            b - other
        with pytest.raises(TypeError):
            b @ other


def test_random_qmatrix_range_and_determinism():
    a = random_qmatrix(5, 4, np.random.default_rng(11))
    b = random_qmatrix(5, 4, np.random.default_rng(11))
    assert np.array_equal(a.data, b.data)
    assert np.all(np.abs(a.data) <= 1.0)
    assert a.shape == (5, 4)


def test_complex_data_rejected():
    """numpy's cast to float64 keeps only the real part, with a warning at
    most; every array entry point refuses complex data instead."""
    for cls, shape in ((left_householder, (3, 4)), (right_householder, (3, 4)),
                       (QMatrix, (2, 3, 4)), (RMatrix, (2, 3))):
        with pytest.raises(TypeError, match="complex128"):
            cls(np.ones(shape) * 1j)
        with pytest.raises(TypeError, match="complex64"):
            cls(np.ones(shape, dtype=np.complex64))
    m = QMatrix.zeros(2, 2)
    with pytest.raises(TypeError, match="complex128"):
        m[0, 1] = np.array([1.0, 1j, 0.0, 0.0])
    for scalar in (1j, np.complex128(1.0)):
        with pytest.raises(TypeError, match="complex128"):
            m[0, 1] = scalar
    assert not m.data.any()


@pytest.mark.parametrize("real", [np.float32, np.float16, np.int64])
def test_numpy_real_scalar_entries(real):
    """A numpy real scalar is a real entry, like a Python int or float."""
    value = real(2)
    expect = [2.0, 0.0, 0.0, 0.0]
    assert QMatrix.from_quaternions([[value]]).data.tolist() == [[expect]]
    m = QMatrix.zeros(2, 2)
    m[1, 0] = value
    assert m.data[1, 0].tolist() == expect


def test_degenerate_shapes_rejected():
    with pytest.raises(ShapeMismatch):
        QMatrix.zeros(0, 2)
    bad = {
        left_householder: [(0, 4), (3, 0), (4,), (2, 2, 4), (3, 3), (3, 5)],
        QMatrix: [(0, 2, 4), (2, 0, 4), (2, 2, 0), (2, 4), (1, 2, 2, 4), (2, 2, 3), (2, 2, 1)],
        RMatrix: [(0, 2), (2, 0), (4,), (2, 2, 4), ()],
    }
    for cls, shapes in bad.items():
        for shape in shapes:
            with pytest.raises(ShapeMismatch):
                cls(np.zeros(shape))
    # the accepted layouts come back C-contiguous float64
    for data in (left_householder(np.ones((4, 3), dtype=int).T)[0],
                 QMatrix(np.zeros((4, 2, 3)).transpose(1, 2, 0)).data,
                 RMatrix(np.arange(6).reshape(2, 3).T).data):
        assert data.dtype == np.float64 and data.flags.c_contiguous
