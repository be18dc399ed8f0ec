"""Exception hierarchy with CLI exit codes.

Exit code convention: 2 for invalid input, 3 for a refusal over a resource
budget, 4 for an internal soundness cross-check failure.
"""


class CoverdistError(Exception):
    exit_code = 2


class InputError(CoverdistError):
    """Invalid or inconsistent user input."""

    exit_code = 2


class ResourceError(CoverdistError):
    """Work refused because it exceeds a configured budget."""

    exit_code = 3


class SoundnessError(CoverdistError):
    """An internal cross-check failed; results must not be trusted."""

    exit_code = 4


class NonSquarefree(InputError):
    pass


class DisallowedD(InputError):
    pass


class ZeroIdeal(InputError):
    pass


class UnitIdeal(InputError):
    pass


class PMinOnIndistinguishable(InputError):
    pass


class MixedFields(InputError):
    pass


class DeltaOutOfRange(InputError):
    pass


class YTooSmall(InputError):
    pass


class _IndexedInputError(InputError):
    """Input error attached to a class/modulus position."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"{type(self).__name__} at index {index}")


class IndistinguishableModulus(_IndexedInputError):
    pass


class UnitModulus(_IndexedInputError):
    pass


class EnumerationTooLarge(ResourceError):
    pass


class NormTooLargeToFactor(ResourceError):
    pass


class SieveTooLarge(ResourceError):
    pass
