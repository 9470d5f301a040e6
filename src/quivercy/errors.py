"""Exception types shared across the package."""


class QuivercyError(Exception):
    pass


class MalformedRelation(QuivercyError):
    pass


class NotFiniteDimensional(QuivercyError):
    pass


class NotAHomomorphism(QuivercyError):
    pass


class CapExceeded(QuivercyError):
    pass


class NotNilpotent(CapExceeded):
    """Tensor powers still nonzero at the cap: undecided, not false."""


class NotNRF(QuivercyError):
    pass


class NotSelfinjective(QuivercyError):
    pass


class NotACut(QuivercyError):
    pass


class FactorNotHomogeneous(QuivercyError):
    pass


class BijectionFailure(QuivercyError):
    pass


class InvalidSpec(QuivercyError):
    pass


class ParseError(QuivercyError):
    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        where = "" if line is None else f" (line {line}" + ("" if col is None else f", col {col}") + ")"
        super().__init__(message + where)


class Undecided:
    """Sentinel verdict for checks that cannot be certified either way."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Undecided"

    def __bool__(self):
        raise TypeError("Undecided verdict has no truth value")


UNDECIDED = Undecided()
