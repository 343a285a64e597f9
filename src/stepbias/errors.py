"""Exception types shared across the package."""


class StepbiasError(Exception):
    """Base class for all errors raised by this package."""


class NotSymmetric(StepbiasError):
    pass


class DimensionMismatch(StepbiasError):
    pass


class SingularKernel(StepbiasError):
    pass


class SingularSystem(StepbiasError):
    pass


class AlreadyBelowLevelSet(StepbiasError):
    pass


class InvalidRegime(StepbiasError):
    pass


class ZeroDenominator(StepbiasError):
    pass


class RegimeMismatch(StepbiasError):
    pass


class LevelSetMismatch(StepbiasError):
    pass


class InfeasibleWindow(StepbiasError):
    pass


class EmptyTestSet(StepbiasError):
    pass


class ParseError(StepbiasError):
    pass


class ValidationError(StepbiasError):
    pass


class CertificationFailed(StepbiasError):
    pass


class IoError(StepbiasError):
    pass

