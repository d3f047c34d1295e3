"""Exception hierarchy, and the immutability guard of the value classes.

Three coarse classes matter to callers (and to the CLI exit codes):
input/precondition problems, exhausted enumeration budgets, and failed
certifications of identities that the constructions promise.  ``certify``
is the one path by which every check of a promised identity becomes a
certificate or a CertificationError "<what> failed: [names]"; the only other
raise turns the DomainError of a non-integral adjoint into the failure
``adjoint-integrality`` (``pollat.adjoint_map``).

Every value class derives from ``_Immutable``: its instances are compared,
hashed and memoized, so attributes are set only while the instance is built,
through ``object.__setattr__`` or ``_fill``.  A value is its own copy, and a
pickle restores its slots as they were.  A class that names the slots of its
value in ``_key`` compares and hashes by them; any other compares by identity.
"""

from operator import attrgetter


class _Immutable:
    """Base of the value classes: assigning or deleting an attribute raises."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        """Give a class with ``_key`` its equality (same type, equal key slots) and hash."""
        super().__init_subclass__(**kwargs)
        if "_key" in cls.__dict__:
            key = attrgetter(*cls._key)
            cls.__eq__ = lambda self, other: type(other) is type(self) and key(self) == key(other)
            cls.__hash__ = lambda self: hash(key(self))

    def _fill(self, *values):
        """Set the slots, in ``__slots__`` order, to ``values``: for constructors only."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_slots(cls, *values):
        """An instance whose slots, in ``__slots__`` order, hold ``values``; unchecked."""
        self = object.__new__(cls)
        self._fill(*values)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return type(self)._from_slots, tuple(getattr(self, name) for name in self.__slots__)


class SymplatError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SymplatError, ValueError):
    """A precondition on the inputs is violated (bad lattice, bad span, ...)."""


class IsotropyError(DomainError):
    """A subgroup required to be (maximal) totally isotropic is not."""


class BudgetError(SymplatError):
    """An enumeration would exceed the configured budget."""


class CertificationError(SymplatError):
    """An identity that the construction is required to certify fails.

    ``failures`` lists the names of the failed identities.
    """

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)


def certify(what, checks):
    """Return ``checks``, a ``{identity: bool}`` dict, if every identity holds.

    Otherwise raise CertificationError("<what> failed: [names]") naming the
    failed identities in order.
    """
    failures = [name for name, ok in checks.items() if not ok]
    if failures:
        raise CertificationError(f"{what} failed: {failures}", failures)
    return checks
