"""Exception types shared across the package."""


class PairlocError(Exception):
    """Base class for all errors raised by pairloc."""


class RingMismatchError(PairlocError):
    """Operands live over different rings."""


class ExponentOverflowError(PairlocError):
    """An exponent arithmetic result exceeded the checked machine bound."""


class ParseError(PairlocError):
    """Malformed input text; carries line/column when available."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = [f"{label} {value}" for label, value in (("line", line), ("col", column))
                 if value is not None]
        if where:
            message = ", ".join(where) + f": {message}"
        super().__init__(message)


class PreconditionError(PairlocError):
    """A documented hypothesis of the requested operation is violated."""


class InternalError(Exception):
    """A failed internal cross-check: a bug, deliberately not a PairlocError."""
