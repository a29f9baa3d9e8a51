"""Exception types raised by the toolkit."""


class QopcohError(Exception):
    """Base class for all toolkit errors."""


class NotSquareError(QopcohError):
    pass


class NotHermitianError(QopcohError):
    pass


class NotPSDError(QopcohError):
    pass


class DimensionMismatchError(QopcohError):
    pass


class NotDensityMatrixError(QopcohError):
    pass


class NotUnitaryError(QopcohError):
    pass


class InvalidKrausError(QopcohError):
    pass


class InvalidChoiError(QopcohError):
    pass


class NotPureChoiError(QopcohError):
    pass


class NoKrausFormError(QopcohError):
    pass


class WeightError(QopcohError):
    pass


class InputNotCPTPError(QopcohError):
    pass


class GeneratorExhaustedError(QopcohError):
    pass


class ParseError(QopcohError):
    pass


class ConversionUndefinedError(QopcohError):
    pass


class MethodInapplicableError(QopcohError):
    pass


class UnknownSuiteError(QopcohError):
    pass


class NotFiniteError(QopcohError):
    pass
