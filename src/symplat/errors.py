"""Exception hierarchy.

Three coarse classes matter to callers (and to the CLI exit codes):
input/precondition problems, exhausted enumeration budgets, and failed
certifications of identities that the constructions promise.  ``certify``
is the one path by which every check of a promised identity becomes a
certificate or a CertificationError "<what> failed: [names]"; the only other
raise turns the DomainError of a non-integral adjoint into the failure
``adjoint-integrality`` (``pollat.adjoint_map``).
"""


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
