"""Quaternion linear algebra: Householder bidiagonalization and SVD.

The decomposition A = U @ Sigma @ conj(V).T of a dense quaternion
matrix is computed by reducing A to a *real* bidiagonal matrix with
quaternion Householder reflectors and diagonalizing the real core with
LAPACK's SVD.  An oracle, LAPACK on the complex adjoint, provides
singular values by another route, with a stated error bound, for
validation.
"""

from .bidiag import BidiagResult, bidiagonalize, check_bidiagonal, extract_band
from .errors import (FormatError, GroupingFailure, NoConvergence, NonFiniteInput,
                     NotBidiagonal, ShapeMismatch)
from .formats import (matrix_file_kind, read_qmatrix, read_rmatrix,
                      write_qmatrix, write_rmatrix)
from .householder import left_householder, right_householder
from .oracle import adjoint_error_bound, adjoint_singular_values, real_adjoint
from .qmat import QMatrix, RMatrix, random_qmatrix
from .qsvd import QsvdResult, VerifyReport, qsvd, reconstruct, verify
from .quat import Quaternion
from .rsvd import bidiag_svd

__all__ = [
    "Quaternion", "QMatrix", "RMatrix", "random_qmatrix",
    "left_householder", "right_householder",
    "BidiagResult", "bidiagonalize", "check_bidiagonal", "extract_band",
    "bidiag_svd",
    "real_adjoint", "adjoint_singular_values", "adjoint_error_bound",
    "QsvdResult", "VerifyReport", "qsvd", "reconstruct", "verify",
    "read_qmatrix", "read_rmatrix", "write_qmatrix", "write_rmatrix",
    "matrix_file_kind",
    "ShapeMismatch", "NotBidiagonal",
    "NoConvergence", "GroupingFailure", "FormatError", "NonFiniteInput",
]

__version__ = "0.1.0"
