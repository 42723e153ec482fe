"""Exception types and the fixed walk budget shared across the package."""

DEFAULT_MAX_FACES = 1 << 20


class DimensionError(ValueError):
    """Operands live over different numbers of variables."""


class DomainError(ValueError):
    """Argument outside an operation's domain (zero power, empty family, ...)."""


class ValidationError(ValueError):
    """Structurally invalid hypergraph data."""


class ResourceCapError(RuntimeError):
    """A complex or an edge-family walk would exceed its budget."""


def format_count(count):
    """A count in decimal, or by a power of 2 when the decimal has more
    digits than Python will print (4300 by default)."""
    try:
        return str(count)
    except ValueError:
        k = count.bit_length() - 1
        return f"2^{k}" if count == 1 << k else f"more than 2^{k}"


def check_budget(count, what):
    """Refuse a walk or build of more than DEFAULT_MAX_FACES items before it starts."""
    if count > DEFAULT_MAX_FACES:
        raise ResourceCapError(
            f"{format_count(count)} {what}, over the cap of {DEFAULT_MAX_FACES}")
