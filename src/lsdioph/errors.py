"""Exception types shared across the package."""


class PrecisionExhausted(ArithmeticError):
    """A result's leading coefficient cannot be certified at the precision
    carried by the operands (typically after catastrophic cancellation)."""

    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count


class DivisionByZero(ZeroDivisionError):
    pass


class SeriesSyntaxError(ValueError):
    """Malformed series text; ``position`` is the offending character index."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CoefficientOutOfRange(ValueError):
    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class SearchBudgetExceeded(RuntimeError):
    """An enumeration hit its budget; ``count`` is how many vectors or cells
    it had enumerated."""

    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count


class SearchIncomplete(RuntimeError):
    """An enumeration could not certify completeness within its degree box."""

    def __init__(self, message, required_bound):
        super().__init__(f"{message}; required degree bound {required_bound}")
        self.required_bound = required_bound


class WitnessNotFound(RuntimeError):
    """The asserted pigeonhole exponent failed; signals a miscalibrated
    constant, never a legitimate outcome."""


class CounterexampleFound(Exception):
    """A vector violating a badness certificate."""

    def __init__(self, message, q):
        super().__init__(message)
        self.q = q


class InsufficientDepth(RuntimeError):
    def __init__(self, message, required_moves):
        super().__init__(f"{message}; about {required_moves} more full rounds needed")
        self.required_moves = required_moves


class BranchOutOfRange(ValueError):
    pass


class NoLegalCenter(RuntimeError):
    pass
