"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands live over different numbers of variables."""


class DomainError(ValueError):
    """Argument outside an operation's domain (zero power, empty family, ...)."""


class ValidationError(ValueError):
    """Structurally invalid hypergraph data."""


class ResourceCapError(RuntimeError):
    """A complex would exceed the configured face budget."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a defect, not bad input."""
