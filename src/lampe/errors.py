"""Domain error hierarchy. Every error carries a stable machine code."""


class LampeError(Exception):
    code = "E_INTERNAL"

    def __init__(self, message=""):
        super().__init__(message)
        self.message = message

    def __str__(self):
        return f"{self.code}: {self.message}" if self.message else self.code


class SchemaError(LampeError):
    code = "E_SCHEMA"


class ParseError(LampeError):
    code = "E_SYNTAX"

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position

    def __str__(self):
        if self.position is not None:
            return f"{self.code}: {self.message} (at position {self.position})"
        return super().__str__()


class UndefinedBitError(LampeError):
    code = "E_UNDEFINED_BIT"


class TooManyAtomsError(LampeError):
    code = "E_TOO_MANY_ATOMS"


class ModeViolationError(LampeError):
    code = "E_MODE_VIOLATION"


class FuelError(LampeError):
    code = "E_FUEL"


class NotPnfError(LampeError):
    code = "E_NOT_PNF"


class OpenNamesError(LampeError):
    code = "E_OPEN_NAMES"


class RuleShapeError(LampeError):
    code = "E_RULE_SHAPE"


class SideConditionError(LampeError):
    code = "E_SIDE_CONDITION"


class SystemMismatchError(LampeError):
    code = "E_SYSTEM_MISMATCH"


class PreconditionError(LampeError):
    code = "E_PRECONDITION"


class UnsupportedStepError(LampeError):
    code = "E_UNSUPPORTED_STEP"


class IllFormedError(LampeError):
    code = "E_ILL_FORMED"
