"""Exception types shared across the package."""


class FlowspaceError(Exception):
    """Base class for all flowspace errors."""


class ArityMismatchError(FlowspaceError):
    """A header literal does not supply one value per canonical field."""


class UnknownFieldError(FlowspaceError):
    """A field name or index is not in the canonical field list."""


class SingularActionError(FlowspaceError):
    """The action has a zero diagonal entry and therefore no inverse."""


class InvalidRuleError(FlowspaceError, ValueError):
    """A value of the wrong type or range was given to a library constructor
    (also a ValueError).  An error about one named
    value carries its `field`, the `value`, the `reason` it is wrong and,
    for a range error, the `width` it exceeds."""

    def __init__(self, reason: str, field: str | None = None, value=None,
                 width: int | None = None):
        super().__init__(f"{field} {reason}" if field else reason)
        self.field, self.value, self.reason, self.width = field, value, reason, width


class WidthOverflowError(InvalidRuleError):
    """A header, match or rule-state value does not fit in its field's bit width."""

    def __init__(self, field: str, value: int, width: int):
        super().__init__(f"{value} exceeds {width}-bit range", field, value, width)
        self.args = (f"{field}={value} exceeds {width}-bit range",)


def type_error(field: str, value, kind: str = "an int") -> InvalidRuleError:
    """The error for a value that is not of the `kind` the field takes."""
    return InvalidRuleError(f"must be {kind}, got {type(value).__name__}", field, value)


def int_error(field: str, value, mask: int) -> InvalidRuleError | None:
    """Why `value` is not a real int (a bool or float is not) in 0..mask, or None."""
    if type(value) is not int:
        return type_error(field, value)
    if not 0 <= value <= mask:
        width = mask.bit_length()
        return InvalidRuleError(f"{value} exceeds {width}-bit range", field, value, width)
    return None


def counter_error(counter) -> InvalidRuleError:
    """The error for a packet counter that is not a non-negative int."""
    if type(counter) is not int:
        return type_error("counter", counter)
    return InvalidRuleError("must be non-negative", "counter", counter)


class RuleNotFoundError(FlowspaceError):
    """A delete/modify referenced a rule with no matching table entry."""


class DimensionMismatchError(FlowspaceError):
    """Transforms or NIBs of different switch counts were combined."""


class SlotOutOfRangeError(FlowspaceError):
    """A switch/slot index fell outside the topology."""


class EmptyChainError(FlowspaceError):
    """A service chain must contain at least one stage."""


class UnresolvedPortError(FlowspaceError):
    """A rule template referenced a port the topology cannot resolve."""


class ScenarioFormatError(FlowspaceError):
    """A scenario file is malformed or uses unknown fields."""
