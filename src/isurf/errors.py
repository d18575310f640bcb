"""Exception types shared across the package."""


class IsurfError(Exception):
    """Base class for all package errors."""


class ParseError(IsurfError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UndeclaredIdentifier(ParseError):
    pass


class NotDivisible(IsurfError):
    pass


class NotSolvable(IsurfError):
    pass


class TruncationTooShallow(IsurfError):
    pass


class NotHomogeneous(IsurfError):
    def __init__(self, message: str, offending: tuple):
        super().__init__(message)
        self.offending = offending


class RankDeficient(IsurfError):
    pass


class InvalidInput(IsurfError):
    pass


class InconsistentRow(IsurfError):
    pass


class NotLinear(IsurfError):
    pass


class NotInvertible(IsurfError):
    pass


class NotFactorable(IsurfError):
    pass


class CertificateFailed(IsurfError):
    pass


class NotContractible(IsurfError):
    pass


class IllegalStep(IsurfError):
    pass


class UnknownRecipe(IsurfError):
    pass


class UnknownScenario(IsurfError):
    pass


class MissingCoefficients(IsurfError):
    pass
