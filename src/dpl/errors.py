"""Exception hierarchy for the dpl package.

Validation errors carry a short machine-readable ``code`` plus a free-form
diagnosis so the CLI can emit structured reports.
"""


class DplError(Exception):
    """Base class for all package errors."""

    code = "error"

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details

    def report(self):
        return {"code": self.code, "message": str(self), **self.details}


class ValidationError(DplError):
    code = "invalid"


class WrongMultiplicity(ValidationError):
    code = "wrong-multiplicity"


class BadSignPattern(ValidationError):
    code = "bad-sign-pattern"


class NoBlockDecomposition(ValidationError):
    code = "no-block-decomposition"


class RollMismatch(ValidationError):
    code = "roll-mismatch"


class NotSimple(ValidationError):
    code = "not-simple"


class SubsetTooSmall(DplError):
    code = "subset-too-small"


class UnknownIndex(DplError):
    code = "unknown-index"


class TooFewIndices(DplError):
    code = "too-few-indices"


class GenusNotOne(DplError):
    code = "genus-not-one"


class NotTransitive(DplError):
    code = "not-transitive"


class BlockInconsistent(DplError):
    code = "block-inconsistent"


class NoArrangement(DplError):
    code = "no-arrangement"


class IllegalLocus(DplError):
    code = "illegal-locus"


class MarkedCellLost(DplError):
    code = "marked-cell-lost"


class ResourceLimit(DplError):
    code = "resource-limit"


class UnknownFixture(DplError):
    code = "unknown-fixture"


class MalformedWord(DplError):
    code = "malformed-word"


class FormatError(DplError):
    code = "format-error"


class BrokenInvariant(DplError):
    """A structure built from validated input fails one of its own checks:
    a bug, not a property of the input.  Raised, not asserted, so that
    ``python -O`` keeps the check."""

    code = "broken-invariant"
