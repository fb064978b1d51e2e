"""Independent correctness check for benchmark jobs.

Nothing here imports quatsvd.  A quaternion matrix is handled as a
float64 array of shape (r, c, 4) holding (w, x, y, z).  The check goes
through the real 4r x 4c adjoint, built here from the left-multiplication
block of each entry, and LAPACK (``np.linalg.svd``): every singular value
of A appears four times among the adjoint's, and products and conjugate
transposes map to real products and transposes.
"""

from __future__ import annotations

import numpy as np

EPS = np.finfo(np.float64).eps
# Allowed error is TOL_FACTOR * max(r, c) * eps, relative to sigma_max.
# On 2,250 inputs of the three workloads the seed's worst sigma error was
# 2.3 of these units (a 12 x 12 matrix) and its worst factor error 1.1.
TOL_FACTOR = 16.0


def adjoint(q: np.ndarray) -> np.ndarray:
    """Real 4r x 4c matrix of left multiplication by each entry."""
    w, x, y, z = (q[..., i] for i in range(4))
    blocks = np.stack([
        np.stack([w, -x, -y, -z], axis=-1),
        np.stack([x, w, -z, y], axis=-1),
        np.stack([y, z, w, -x], axis=-1),
        np.stack([z, -y, x, w], axis=-1),
    ], axis=-2)                                   # (r, c, 4, 4)
    r, c = q.shape[:2]
    return blocks.transpose(0, 2, 1, 3).reshape(4 * r, 4 * c)


def from_adjoint(m: np.ndarray) -> np.ndarray:
    """Inverse of :func:`adjoint`: column 0 of each 4x4 block is the entry."""
    r, c = m.shape[0] // 4, m.shape[1] // 4
    return m.reshape(r, 4, c, 4)[:, :, :, 0].transpose(0, 2, 1).copy()


def hamilton_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return from_adjoint(adjoint(x) @ adjoint(y))


def reference_sigma(a: np.ndarray) -> np.ndarray:
    """Singular values of A, descending: every fourth adjoint value."""
    return np.linalg.svd(adjoint(a), compute_uv=False)[::4].copy()


def sigma_ok(a_shape, sigma, ref: np.ndarray) -> bool:
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != ref.shape or not np.all(np.isfinite(sigma)):
        return False
    top = float(ref[0]) if ref.size else 0.0
    bound = TOL_FACTOR * max(a_shape) * EPS * top
    return float(np.abs(sigma - ref).max(initial=0.0)) <= bound


def factors_ok(a: np.ndarray, u: np.ndarray, sigma, v: np.ndarray,
               ref: np.ndarray) -> bool:
    """Square unitary U (r x r), V (c x c) with A = U Sigma V*."""
    r, c = a.shape[:2]
    if u.shape != (r, r, 4) or v.shape != (c, c, 4):
        return False
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        return False
    bound = TOL_FACTOR * max(r, c) * EPS
    au, av = adjoint(u), adjoint(v)
    for m in (au, av):
        if np.abs(m.T @ m - np.eye(m.shape[1])).max() > bound:
            return False
    n = len(sigma)
    s = np.zeros((r, c))
    s[np.arange(n), np.arange(n)] = sigma
    rebuilt = au @ np.kron(s, np.eye(4)) @ av.T
    top = float(ref[0]) if ref.size else 0.0
    return float(np.abs(rebuilt - adjoint(a)).max()) <= bound * top


def negative_control(a: np.ndarray, u, sigma, v) -> bool:
    """True iff the checker accepts a true decomposition of `a` and rejects
    a sigma with one value off by 1e-6 and a U with one flipped entry."""
    ref = reference_sigma(a)
    if not (sigma_ok(a.shape[:2], sigma, ref) and factors_ok(a, u, sigma, v, ref)):
        return False
    bad_sigma = np.array(sigma, dtype=np.float64)
    bad_sigma[len(bad_sigma) // 2] *= 1.0 + 1e-6
    bad_u = u.copy()
    i, j, k = np.unravel_index(np.argmax(np.abs(bad_u)), bad_u.shape)
    bad_u[i, j, k] = -bad_u[i, j, k]
    return (not sigma_ok(a.shape[:2], bad_sigma, ref)
            and not factors_ok(a, bad_u, sigma, v, ref))


# --- QMAT / RMAT text files, parsed and written without the package --------

def write_qmat(path, q: np.ndarray) -> None:
    r, c = q.shape[:2]
    body = "\n".join(" ".join(repr(float(t)) for t in e) for e in q.reshape(-1, 4))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"QMAT 1\n{r} {c}\n{body}\n")


def read_matrix(path) -> np.ndarray:
    """QMAT as (r, c, 4), RMAT as (r, c)."""
    with open(path, encoding="utf-8") as fh:
        lines = [t for t in fh.read().splitlines() if t.strip() and not t.lstrip().startswith("#")]
    magic = lines[0].split()[0]
    r, c = (int(t) for t in lines[1].split())
    values = np.array(" ".join(lines[2:]).split(), dtype=np.float64)
    return values.reshape((r, c, 4) if magic == "QMAT" else (r, c))
