"""Exception taxonomy shared by all toricg modules, and the one check of
integer arguments and of size arguments."""


class ToricgError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(ToricgError, ValueError):
    """A value does not satisfy the structural invariants of its type
    (e.g. an unbalanced word passed where a Dyck word is required)."""


class PreconditionError(ToricgError, ValueError):
    """An argument is outside the stated contract of an operation."""


def require_ints(where: str, *values) -> None:
    """Refuse, with a PreconditionError naming ``where``, any value that is
    not an int; a bool is not one."""
    for value in values:
        if type(value) is not int:
            raise PreconditionError(f"{where} needs int arguments, got {value!r}")


def require_size(where: str, value, least: int = 0, name: str = "n") -> None:
    """Refuse a size argument as :func:`require_ints` does when it is not an
    int, and with "<name> must be >= <least>, got <value>" when it is less."""
    require_ints(where, value)
    if value < least:
        raise PreconditionError(f"{name} must be >= {least}, got {value}")


class CapacityError(ToricgError, RuntimeError):
    """An enumeration was requested beyond its configured size bound."""


class BuildingSetError(ToricgError, ValueError):
    """A family of sets violates the building-set axioms.

    ``witness`` carries the offending set or pair of sets.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ChordalityError(ToricgError, ValueError):
    """The h/gamma pipeline was invoked on a building set that is not
    connected and chordal.  Non-chordal nestohedra need the tree-based
    h-vector formula, which this package does not implement."""


class SeriesIdentityError(ToricgError, AssertionError):
    """A generating-function identity failed at a specific coefficient."""

    def __init__(self, name, monomial, expected, got):
        super().__init__(
            f"identity {name!r} fails at monomial {monomial}: "
            f"expected {expected}, got {got}"
        )
        self.name = name
        self.monomial = monomial
        self.expected = expected
        self.got = got
