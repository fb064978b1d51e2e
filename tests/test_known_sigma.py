"""Singular values against matrices built with prescribed ones.

A = P diag(sigma) Q* with random orthonormal P and Q (xLATMS-style, see
``references.known_sigma_matrix``) gives a reference that no SVD code
computed.  Both qsvd modes must return sigma within

    C * max(r, c) * eps * sigma_max,   C = 16.

C covers three roundings: forming A (each entry a sum of n products,
of norm about sqrt(n) * eps * sigma_max in all), the loss of
orthogonality of P and Q after Gram-Schmidt twice (a few eps), and
qsvd's own backward error (a few max(r, c) * eps * sigma_max).
"""

from functools import lru_cache

import numpy as np
import pytest

from quatsvd import qsvd, verify
from references import known_sigma_matrix, random_orthonormal_columns

EPS = 2.0 ** -52
C = 16.0
SHAPES = [(12, 12), (24, 9), (9, 24)]


@lru_cache(maxsize=None)
def factors(r: int, c: int):
    """P and Q for an r x c matrix, drawn once per shape."""
    rng = np.random.default_rng(5)
    n = min(r, c)
    return random_orthonormal_columns(r, n, rng), random_orthonormal_columns(c, n, rng)


def prescribed(mode: str, n: int) -> np.ndarray:
    """Descending sigma of largest value 1 for one xLATMS-like mode."""
    i = np.arange(n)
    if mode == "geometric":  # condition number 1/eps
        return EPS ** (i / (n - 1))
    if mode == "repeated":
        return np.where(i < n // 2, 1.0, 0.5)
    if mode == "rank":  # exact rank n // 2
        return np.where(i < n // 2, 1.0 - i / n, 0.0)
    if mode == "one-large":  # condition number 1/sqrt(eps)
        return np.where(i == 0, 1.0, np.sqrt(EPS))
    raise ValueError(mode)


# (factor, exponent): sigma_max = factor * 2**exponent.  The last one is
# 2**1024 - 2**1004, just below the largest double, 2**1024 - 2**971.
SCALES = [(1.0, 0), (1.0, 1000), (1.0, -1000), (2.0 - 2.0 ** -19, 1023)]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("mode", ["geometric", "repeated", "rank", "one-large"])
def test_qsvd_recovers_prescribed_sigma(mode, shape):
    r, c = shape
    base = prescribed(mode, min(r, c))
    for factor, exponent in SCALES:
        a = known_sigma_matrix(base * factor, *factors(r, c), exponent)
        want = np.ldexp(base * factor, exponent)
        bound = C * max(r, c) * EPS * want[0]
        full = qsvd(a)
        values = qsvd(a, want_vectors=False)
        assert np.abs(full.sigma - want).max() <= bound, (factor, exponent)
        assert np.abs(values.sigma - want).max() <= bound, (factor, exponent)
        report = verify(a, full)
        assert report.passed, (factor, exponent, report.failures())


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("want_vectors", [True, False])
def test_sigma_just_above_the_largest_double_raises(shape, want_vectors):
    # sigma_max = 2**1024 + 2**1004; every entry of A is finite.
    r, c = shape
    base = prescribed("geometric", min(r, c))
    a = known_sigma_matrix(base * (2.0 + 2.0 ** -19), *factors(r, c), 1023)
    assert np.isfinite(a.data).all()
    with pytest.raises(OverflowError, match="beyond the float range"):
        qsvd(a, want_vectors=want_vectors)
