"""Exception types shared across the package.

Bad input raises ``InvalidInput``, which is a ``ValueError``; a subclass
exists only where some ``except`` names it or it carries data.
"""


class IsurfError(Exception):
    """Base class for all package errors."""


class InvalidInput(IsurfError, ValueError):
    """Input the package cannot work with."""


class ParseError(InvalidInput):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotHomogeneous(InvalidInput):
    def __init__(self, message: str, offending: tuple):
        super().__init__(message)
        self.offending = offending


class NotContractible(InvalidInput):
    pass


class UnknownScenario(InvalidInput):
    pass


class NotDivisible(IsurfError):
    pass


class NotFactorable(IsurfError):
    pass


class NotSolvable(IsurfError):
    pass


class TruncationTooShallow(IsurfError):
    pass


class CertificateFailed(IsurfError):
    pass
