"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands live over different numbers of variables."""


class DomainError(ValueError):
    """Argument outside an operation's domain (zero power, empty family, ...)."""


class ValidationError(ValueError):
    """Structurally invalid hypergraph data."""


class ResourceCapError(RuntimeError):
    """A complex or an edge-family walk would exceed its budget."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a defect, not bad input."""
