"""Exception types shared across the package."""


class ChainmatError(Exception):
    """Base class for all library errors."""


class NotPrimeError(ChainmatError):
    """Ring spec asked for a modulus that is not a prime power."""


class NotLocalError(ChainmatError):
    """Ring has more than one maximal ideal."""


class NotARingError(ChainmatError):
    """Table data violates the commutative-ring axioms."""


class NotChainRingError(ChainmatError):
    """Operation requires a chain ring (ideals linearly ordered)."""


class NotSquareError(ChainmatError):
    """Determinant of a non-square matrix."""


class ClosureTooLargeError(ChainmatError):
    """Submodule closure exceeded the enumeration guard."""


class SearchSpaceTooLargeError(ChainmatError):
    """Exhaustive kernel scan exceeded the enumeration guard."""


class NonIntegralDimensionError(ChainmatError):
    """|V|/|mV| was not a power of the residue field size (ring-table bug)."""


class GroundSetTooLargeError(ChainmatError):
    """Ground set exceeds the bitset / backtracking cap."""


class UnknownLabelError(ChainmatError):
    """A subset argument referenced a label outside the ground set."""


class ContractDependentSetError(ChainmatError):
    """Clutter contraction of a set that contains a member."""


class ZeroProjectionError(ChainmatError):
    """Contractibility test on a coordinate where the code projects to zero."""


class NotContractibleError(ChainmatError):
    """No ordering of the subset makes every shortening step contractible."""


class TooManyColumnsError(ChainmatError):
    """Maximal-minor test needs at most as many columns as rows."""


class BadTorsionIndexError(ChainmatError):
    """Torsion index outside 1..nilpotency_index."""


class VerificationFailedError(ChainmatError):
    """A gallery entry did not match its target."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BadValueError(ChainmatError, ValueError):
    """An argument or setting is malformed or out of range."""


class UnknownEntryError(ChainmatError, KeyError):
    """No gallery entry has the requested name."""

    __str__ = Exception.__str__  # the message, not KeyError's quoted repr


class NotFreeError(ChainmatError):
    """Dual construction requested for a non-free representation."""


class MatrixParseError(ChainmatError):
    """Matrix text could not be parsed; carries line/column position."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            pos = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{pos}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column
