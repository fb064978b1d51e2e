"""Acceptance gate: every contract the package promises, at full scale.

Each test covers one criterion, accumulates any violations, and prints a
single pass/fail summary line (visible even under capture) before
asserting.  Criteria with a runtime budget time their main loop and fold
an overrun into the same line.
"""

import math
import time

import numpy as np

from quatsvd import (
    QMatrix,
    Quaternion,
    RMatrix,
    bidiag_svd,
    bidiagonalize,
    check_bidiagonal,
    left_householder,
    qsvd,
    random_qmatrix,
    read_qmatrix,
    real_adjoint,
    reconstruct,
    write_qmatrix,
)
from quatsvd.cli import main
from references import (apply_left, form_matrix, jacobi_eigen, outer_hermitian, scale_left,
                        scale_right)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _emit(capsys, idx, label, failures, elapsed=None):
    ok = not failures
    stamp = f" in {elapsed:.2f}s" if elapsed is not None else ""
    with capsys.disabled():
        print(f"[acceptance {idx}/7] {label}: {'PASS' if ok else 'FAIL'}{stamp}")
    assert ok, f"{label}: " + "; ".join(failures[:5])


def unitary_error(q):
    ident = QMatrix.identity(q.rows)
    return max(
        ((q @ q.conj_transpose()) - ident).frobenius_norm(),
        ((q.conj_transpose() @ q) - ident).frobenius_norm(),
    )


def test_1_householder_contract(capsys):
    rng = np.random.default_rng(101)
    failures = []
    start = time.perf_counter()
    for i in range(1000):
        n = 1 + i % 50
        a = rng.uniform(-1, 1, (n, 4))
        h = left_householder(a)
        u, zeta4 = h
        norm = QMatrix(a[:, np.newaxis]).frobenius_norm()

        out = apply_left(h, a)
        expected = np.zeros((n, 4))
        expected[0, 0] = norm
        if np.linalg.norm(out - expected) > 1e-13 * norm:
            failures.append(f"case {i}: image off target")
        u_norm = float(np.linalg.norm(u))
        if u_norm != 0.0 and abs(u_norm**2 - 2.0) > 1e-12:
            failures.append(f"case {i}: |u|^2 = {u_norm**2}")
        zeta_abs = math.hypot(*zeta4)
        if abs(zeta_abs - 1.0) > 1e-14:
            failures.append(f"case {i}: |zeta| = {zeta_abs}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _emit(capsys, 1, "householder contract, 1000 reflectors", failures, elapsed)


def test_2_quaternion_matrix_algebra(capsys):
    rng = np.random.default_rng(202)
    failures = []

    for i in range(200):  # product conjugate-transpose law
        m, k, n = rng.integers(1, 5, 3)
        a = random_qmatrix(int(m), int(k), rng)
        b = random_qmatrix(int(k), int(n), rng)
        lhs = (a @ b).conj_transpose()
        rhs = b.conj_transpose() @ a.conj_transpose()
        bound = 1e-13 * max(a.frobenius_norm() * b.frobenius_norm(), 1.0)
        if (lhs - rhs).frobenius_norm() > bound:
            failures.append(f"conj-transpose law, case {i}")

    for i in range(200):  # rank-one outer product is exactly Hermitian
        n = int(rng.integers(1, 9))
        m = outer_hermitian(rng.uniform(-1, 1, (n, 4)))
        if not np.array_equal(m.data, m.conj_transpose().data):
            failures.append(f"hermitian outer product, case {i}")

    for i in range(200):  # explicit 8x8 projector squares to the identity
        u, _ = left_householder(rng.uniform(-1, 1, (8, 4)))
        p = QMatrix.identity(8) - outer_hermitian(u)
        if ((p @ p) - QMatrix.identity(8)).frobenius_norm() > 1e-12:
            failures.append(f"projector involution, case {i}")

    for i in range(200):  # unit-scalar rescaling preserves unitarity
        n = int(rng.integers(1, 7))
        q = Quaternion(*rng.uniform(-1, 1, 4))
        z = q * (1.0 / abs(q))
        m = form_matrix(left_householder(rng.uniform(-1, 1, (n, 4))), "left")
        if unitary_error(scale_left(m, z)) > 1e-12 * n:
            failures.append(f"left unit scaling, case {i}")
        if unitary_error(scale_right(m, z)) > 1e-12 * n:
            failures.append(f"right unit scaling, case {i}")

    _emit(capsys, 2, "matrix algebra suite, 4x200 cases", failures)


def test_3_bidiagonalization_grid(capsys):
    rng = np.random.default_rng(303)
    failures = []
    start = time.perf_counter()
    for r in range(1, 13):
        for c in range(1, 13):
            a = random_qmatrix(r, c, rng)
            res = bidiagonalize(a)
            norm = a.frobenius_norm()
            m = max(r, c)
            tag = f"{r}x{c}"

            recon = (res.left @ a @ res.right) - res.bidiagonal.promote()
            if recon.frobenius_norm() > 1e-12 * m * norm:
                failures.append(f"{tag}: reconstruction")
            if unitary_error(res.left) > 1e-11 * m:
                failures.append(f"{tag}: left factor not unitary")
            if unitary_error(res.right) > 1e-11 * m:
                failures.append(f"{tag}: right factor not unitary")
            if not isinstance(res.bidiagonal, RMatrix):
                failures.append(f"{tag}: band not real-typed")
            if not check_bidiagonal(res.bidiagonal, res.upper, tol=0.0):
                failures.append(f"{tag}: band not exactly banded")
            if res.snap_residue > 1e-12 * norm:
                failures.append(f"{tag}: snap residue {res.snap_residue:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    _emit(capsys, 3, "bidiagonalization over the 12x12 shape grid", failures, elapsed)


def test_4_real_band_svd(capsys):
    failures = []

    sigma = bidiag_svd([1.0, 1.0], [1.0])[1]
    if abs(sigma[0] - PHI) > 1e-14 or abs(sigma[1] - (math.sqrt(5.0) - 1.0) / 2.0) > 1e-14:
        failures.append("golden-ratio band values")

    rng = np.random.default_rng(404)
    for i in range(60):
        n = 1 + i % 20
        d = rng.uniform(-1, 1, n)
        e = rng.uniform(-1, 1, n - 1) if n > 1 else np.zeros(0)
        w, sigma, x = bidiag_svd(d, e)
        norm = np.linalg.norm(np.concatenate((d, e)))
        dense = np.diag(d) + np.diag(e, 1)

        if np.linalg.norm(w @ np.diag(sigma) @ x.T - dense) > 1e-13 * n * norm:
            failures.append(f"band {i}: reconstruction")
        evals = jacobi_eigen(RMatrix(dense.T @ dense))
        if np.max(np.abs(np.sort(sigma**2) - evals)) > 1e-10 * norm**2:
            failures.append(f"band {i}: sigma^2 vs gram eigenvalues")

    _emit(capsys, 4, "real bidiagonal SVD kernel", failures)


def test_5_sigma_matches_adjoint_oracle(capsys):
    rng = np.random.default_rng(505)
    failures = []
    start = time.perf_counter()
    for i in range(200):
        r = int(rng.integers(1, 9))
        c = int(rng.integers(1, 9))
        a = random_qmatrix(r, c, rng)

        tall = a if r >= c else a.conj_transpose()
        chi = real_adjoint(tall).data
        eigs = jacobi_eigen(RMatrix(chi.T @ chi))
        vals = np.sqrt(np.clip(eigs, 0.0, None))[::-1]
        groups = vals.reshape(-1, 4)
        oracle = groups.mean(axis=1)
        smax = max(float(oracle[0]), 1e-300)

        spread = float((groups[:, 0] - groups[:, -1]).max())
        if spread > 1e-10 * smax:
            failures.append(f"case {i} ({r}x{c}): fourfold spread {spread:.2e}")
        sigma = qsvd(a, want_vectors=False).sigma
        if np.max(np.abs(sigma - oracle)) > 1e-10 * smax:
            failures.append(f"case {i} ({r}x{c}): sigma deviates from oracle")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s >= 30s")
    _emit(capsys, 5, "values vs adjoint oracle, 200 matrices", failures, elapsed)


def test_6_reconstruction_and_unitarity(capsys):
    rng = np.random.default_rng(505)  # same ensemble as the oracle criterion
    cases = [(int(rng.integers(1, 9)), int(rng.integers(1, 9))) for _ in range(200)]
    matrices = [random_qmatrix(r, c, rng) for r, c in cases]
    matrices += [
        random_qmatrix(1, 20, rng),
        random_qmatrix(20, 1, rng),
        random_qmatrix(1, 1, rng),
        QMatrix.zeros(4, 3),
    ]

    failures = []
    for i, a in enumerate(matrices):
        r, c = a.shape
        m = max(r, c)
        res = qsvd(a)
        err = (a - reconstruct(res, r, c)).frobenius_norm()
        if err > 1e-12 * m * a.frobenius_norm():
            failures.append(f"case {i} ({r}x{c}): reconstruction {err:.2e}")
        if unitary_error(res.u) > 1e-11 * m:
            failures.append(f"case {i} ({r}x{c}): U not unitary")
        if unitary_error(res.v) > 1e-11 * m:
            failures.append(f"case {i} ({r}x{c}): V not unitary")
    _emit(capsys, 6, "full reconstruction, 200 matrices + shape extremes", failures)


def test_7_cli_contract(capsys, tmp_path):
    failures = []

    src = tmp_path / "round.qmat"
    if main(["gen", "--rows", "6", "--cols", "4", "--seed", "77", "--out", str(src)]) != 0:
        failures.append("gen failed")
    copy = tmp_path / "round2.qmat"
    write_qmatrix(read_qmatrix(src), copy)
    if src.read_bytes() != copy.read_bytes():
        failures.append("QMAT round trip not bit-exact")

    shape_rng = np.random.default_rng(707)
    for seed in range(100):
        rows = str(int(shape_rng.integers(1, 11)))
        cols = str(int(shape_rng.integers(1, 11)))
        mat = tmp_path / f"m{seed}.qmat"
        out = tmp_path / f"m{seed}"
        if main(["gen", "--rows", rows, "--cols", cols, "--seed", str(seed), "--out", str(mat)]) != 0:
            failures.append(f"seed {seed}: gen exit code")
            continue
        if main(["svd", str(mat), "--out-dir", str(out)]) != 0:
            failures.append(f"seed {seed}: svd exit code")
            continue
        code = main(["check", str(mat), "--u", str(out / "U.qmat"),
                     "--s", str(out / "S.rmat"), "--v", str(out / "V.qmat")])
        if code != 0:
            failures.append(f"seed {seed}: check exit code {code}")
    capsys.readouterr()

    # injected fault: dead column in U must be named as a unitarity failure
    mat, out = tmp_path / "m0.qmat", tmp_path / "m0"
    u = read_qmatrix(out / "U.qmat")
    u.data[:, 0, :] = 0.0
    write_qmatrix(u, out / "U.qmat")
    code = main(["check", str(mat), "--u", str(out / "U.qmat"),
                 "--s", str(out / "S.rmat"), "--v", str(out / "V.qmat")])
    captured = capsys.readouterr()
    if code != 1 or "unitarity(U)" not in captured.out:
        failures.append("corrupted U fixture not reported as unitarity(U) / exit 1")

    bad = tmp_path / "bad.qmat"
    bad.write_text("QMAT 2\n1 1\n1.0 0.0 0.0 0.0\n")
    if main(["svd", str(bad), "--out-dir", str(tmp_path / "nowhere")]) != 2:
        failures.append("malformed header did not exit 2")
    trunc = tmp_path / "trunc.qmat"
    trunc.write_text("QMAT 1\n2 2\n1.0 0.0 0.0 0.0\n")
    if main(["svd", str(trunc), "--out-dir", str(tmp_path / "nowhere")]) != 2:
        failures.append("truncated body did not exit 2")
    capsys.readouterr()

    _emit(capsys, 7, "file formats and CLI pipeline, 100 seeds", failures)
