"""Exception types shared across the package."""


class FlowspaceError(Exception):
    """Base class for all flowspace errors."""


class WidthOverflowError(FlowspaceError):
    """A field value does not fit in its declared bit width."""

    def __init__(self, field: str, value: int, width: int):
        super().__init__(f"{field}={value} exceeds {width}-bit range")
        self.field = field
        self.value = value
        self.width = width


class ArityMismatchError(FlowspaceError):
    """A header literal does not supply one value per canonical field."""


class UnknownFieldError(FlowspaceError):
    """A field name or index is not in the canonical field list."""


class SingularActionError(FlowspaceError):
    """The action has a zero diagonal entry and therefore no inverse."""


class InvalidRuleError(FlowspaceError, ValueError):
    """A flow rule, table entry or FLOW_MOD request was built from a value
    of the wrong type or range (also a ValueError, as before it existed)."""


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
