"""Exception types shared across the package."""


class ShapeMismatch(ValueError):
    """Operand dimensions are incompatible."""


class NotBidiagonal(ValueError):
    """Matrix has nonzero entries outside the bidiagonal band."""


class NonFiniteInput(ValueError):
    """Input matrix has a NaN or infinite entry."""


class NoConvergence(RuntimeError):
    """A LAPACK SVD did not converge, or the oracle met a non-finite
    entry.  From the band SVD it carries the band's order `n` and
    Frobenius norm `band_norm`; both are None where the oracle raises it."""

    def __init__(self, message: str, n: int | None = None, band_norm: float | None = None):
        super().__init__(message)
        self.n = n
        self.band_norm = band_norm


class GroupingFailure(RuntimeError):
    """Adjoint singular values did not cluster into clean pairs."""


class FormatError(ValueError):
    """Malformed QMAT/RMAT text input.  Carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
