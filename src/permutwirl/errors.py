"""Exception types shared across the package."""


class PermutwirlError(Exception):
    """Base class for every error raised by this package."""


class NonSquareError(PermutwirlError):
    """Operation requires a square matrix."""


class DimMismatchError(PermutwirlError):
    """Operand shape is inconsistent with the declared subsystem split."""


class NotHermitianError(PermutwirlError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class ConvergenceError(PermutwirlError):
    """Eigensolver failed to converge."""


class TraceNotOneError(PermutwirlError):
    """Density-matrix candidate does not have unit trace."""


class NotPositiveError(PermutwirlError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class BlochOutsideBallError(PermutwirlError):
    """Bloch vector has length greater than one."""


class DimensionTooLargeError(PermutwirlError):
    """Dimension exceeds a factorial-enumeration guard."""


class InvalidBellParamsError(PermutwirlError):
    """Correlation triple violates a state-positivity constraint."""


class NonRealSumError(PermutwirlError):
    """Off-diagonal sum is not a finite real: a nonvanishing imaginary part,
    or a real part that is NaN or infinite."""


class ParamOutOfRangeError(PermutwirlError):
    """Scalar channel parameter is outside its admissible interval."""


class WeightOutOfRangeError(ParamOutOfRangeError):
    """Member of the twirl's output family that is not a state."""


class CertificateError(PermutwirlError):
    """A self-checking decomposition exceeded its residual tolerance."""


class SampleCountError(PermutwirlError):
    """Sampling was requested with fewer than one sample."""


class StateFileError(PermutwirlError):
    """State file could not be parsed or fails schema validation."""
