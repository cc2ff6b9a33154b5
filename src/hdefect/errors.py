"""Exception types shared across the package, and the size cap behind CapExceededError."""

# Largest array, at 8 bytes an entry, that a pair system or a cyclotomic
# reduction table may allocate; the temporaries of an SVD or of modular
# elimination are of the same order.
MAX_SYSTEM_BYTES = 2**29


class DomainError(Exception):
    """Input is well-formed but outside the mathematical domain of the operation."""


class CapExceededError(DomainError):
    """An enumeration or size cap would be exceeded."""


class NonHadamardError(DomainError):
    """A matrix required to be complex Hadamard fails the validity check."""


class AmbiguousRankError(DomainError):
    """Singular value spectrum has no certified gap at the computed rank."""

    def __init__(self, message, singular_values, gap_ratio):
        super().__init__(message)
        self.singular_values = tuple(float(s) for s in singular_values)
        self.gap_ratio = float(gap_ratio)


class DefectMismatchError(DomainError):
    """Two independent computations of the same defect disagree."""


class ResidualError(DomainError):
    """A residual check exceeded its tolerance."""


class NonExactError(DomainError):
    """Operation requires exact phase entries but got floating ones."""


class SpecParseError(ValueError):
    """Matrix or grid spec string is malformed; carries the failing position."""

    def __init__(self, message, text, position):
        super().__init__(f"{message} (at position {position} in {text!r})")
        self.text = text
        self.position = position
