"""Singular values against matrices built with prescribed ones.

A = P diag(sigma) Q* with random orthonormal P and Q (xLATMS-style, see
``references.known_sigma_matrix``) gives a reference that no SVD code
computed.  Both qsvd modes, and the oracle ``adjoint_singular_values``,
must return sigma within

    C * max(r, c) * eps * sigma_max + n * 2**-1074,   C = 16.

C covers three roundings: forming A (each entry a sum of n products,
of norm about sqrt(n) * eps * sigma_max in all), the loss of
orthogonality of P and Q after Gram-Schmidt twice (a few eps), and
the SVD's own backward error (a few max(r, c) * eps * sigma_max).  The
second term is the float64 floor: near the underflow threshold every
entry of A and every sigma is rounded to a multiple of 2**-1074.  The
relative term is formed as one ldexp of C * max(r, c) * eps, since
eps * sigma_max underflows to zero at sigma_max = 2**-1060.
"""

from functools import lru_cache

import numpy as np
import pytest

from quatsvd import adjoint_singular_values, qsvd, verify
from references import known_sigma_matrix, random_orthonormal_columns

EPS = 2.0 ** -52
C = 16.0
SHAPES = [(12, 12), (24, 9), (9, 24), (48, 48), (96, 40)]


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
    if mode == "one-small":  # condition number 1/eps
        return np.where(i == n - 1, EPS, 1.0)
    if mode == "arithmetic":  # from 1 down to eps
        return 1.0 - i / (n - 1) * (1.0 - EPS)
    if mode == "log-uniform":  # 1, then random in (eps, 1) with uniform log
        rest = EPS ** np.random.default_rng(17).uniform(0.0, 1.0, n - 1)
        return np.concatenate(([1.0], np.sort(rest)[::-1]))
    if mode == "geometric-sqrt":  # condition number 1/sqrt(eps)
        return np.sqrt(EPS) ** (i / (n - 1))
    if mode == "one-small-sqrt":  # condition number 1/sqrt(eps)
        return np.where(i == n - 1, np.sqrt(EPS), 1.0)
    if mode == "arithmetic-sqrt":  # from 1 down to sqrt(eps)
        return 1.0 - i / (n - 1) * (1.0 - np.sqrt(EPS))
    if mode == "log-uniform-sqrt":  # 1, then random in (sqrt(eps), 1) with uniform log
        rest = np.sqrt(EPS) ** np.random.default_rng(19).uniform(0.0, 1.0, n - 1)
        return np.concatenate(([1.0], np.sort(rest)[::-1]))
    raise ValueError(mode)


# (factor, exponent): sigma_max = factor * 2**exponent.  The fourth one is
# 2**1024 - 2**1004, just below the largest double, 2**1024 - 2**971.  The
# last three reach the underflow threshold: 2**-1022 is the smallest
# normal double, and at 2**-1040 and 2**-1060 sigma_max itself is
# subnormal, so most entries of A and most prescribed sigma are too.
SCALES = [(1.0, 0), (1.0, 1000), (1.0, -1000), (2.0 - 2.0 ** -19, 1023),
          (1.0, -1022), (1.0, -1040), (1.0, -1060)]
MODES = ["geometric", "repeated", "rank", "one-large", "one-small", "arithmetic",
         "log-uniform", "geometric-sqrt", "one-small-sqrt", "arithmetic-sqrt",
         "log-uniform-sqrt"]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("mode", MODES)
def test_qsvd_recovers_prescribed_sigma(mode, shape):
    r, c = shape
    n = min(r, c)
    base = prescribed(mode, n)
    for factor, exponent in SCALES:
        a = known_sigma_matrix(base * factor, *factors(r, c), exponent)
        want = np.ldexp(base * factor, exponent)
        bound = np.ldexp(C * max(r, c) * EPS * factor, exponent) + n * 2.0 ** -1074
        full = qsvd(a)
        values = qsvd(a, want_vectors=False)
        assert np.abs(full.sigma - want).max() <= bound, (factor, exponent)
        assert np.abs(values.sigma - want).max() <= bound, (factor, exponent)
        assert np.abs(adjoint_singular_values(a) - want).max() <= bound, (factor, exponent)
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
