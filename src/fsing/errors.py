"""Shared exception types."""


class ParseError(ValueError):
    """Malformed polynomial or problem-file text.

    `position` is a 0-based offset into the parsed polynomial string when
    known; the problem-file loader puts file, line and column in the message.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class RingMismatch(ValueError):
    """Operands live in different ambient rings."""


class RegularSequenceError(ValueError):
    """The given forms do not define a graded complete intersection."""


class ResourceLimit(RuntimeError):
    """A configured cap (denominator exponent, matrix width) was exceeded."""


class InternalError(AssertionError):
    """A self-check failed (a bug, not bad input); raised, so it survives -O."""
