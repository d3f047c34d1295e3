"""Lattices in an ambient rational vector space.

A lattice is a discrete subgroup of Q^n given by a basis matrix whose columns
are the basis vectors; the rank may be smaller than the ambient dimension.
Every lattice is stored in a canonical form, the column Hermite form of its
basis taken once when the ``Lattice`` is built, so equality of lattices is
equality of their basis matrices.

The operations here -- saturation, kernels, indices, sums, preimages -- are
the exact-arithmetic substrate for all polarization and isogeny computations.
Every kernel comes from the column reduction ``integer_kernel`` (rational
matrices as they are), and none from a Smith form.  Coordinates, an index
(``_inclusion``) and ``preimage_lattice``'s inverse come from forward
substitution on a basis's pivot rows; a vector outside the span is refused.
"""

from fractions import Fraction
from math import prod

from .errors import DomainError, _Immutable
from .matrix import Mat, _hermite_solve, hermite_column_form, integer_kernel

__all__ = [
    "Lattice",
    "saturate",
    "kernel_lattice",
    "index",
    "lattice_sum",
    "lattice_intersection",
    "congruence_kernel",
    "preimage_lattice",
]


class Lattice(_Immutable):
    """A full-column-rank basis matrix up to unimodular column equivalence."""

    __slots__ = ("ambient_dim", "basis")
    _key = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis):
        if basis.nrows != ambient_dim:
            raise DomainError("basis rows must match ambient dimension")
        self._fill(ambient_dim, hermite_column_form(basis))

    @staticmethod
    def standard(n):
        """Z^n inside Q^n."""
        return Lattice._from_slots(n, Mat.identity(n))  # I_n is its own Hermite form

    @staticmethod
    def from_generators(ambient_dim, vectors):
        """The lattice generated by the given (possibly redundant) vectors."""
        cols = [tuple(v) for v in vectors]
        if any(len(c) != ambient_dim for c in cols):
            raise DomainError("generator length must match ambient dimension")
        return Lattice(ambient_dim, Mat.from_columns(cols, nrows=ambient_dim))

    @property
    def rank(self):
        return self.basis.ncols

    def __repr__(self):
        return f"Lattice(dim={self.ambient_dim}, rank={self.rank})"

    # -- membership and coordinates ----------------------------------------

    def coords_of(self, vector):
        """Rational coordinates of a span vector in this basis."""
        try:
            sol = _hermite_solve(self.basis, Mat.column(vector))
        except DomainError:
            raise DomainError("vector is not in the span of the lattice")
        return sol.column_vector()

    def coords_matrix(self, M):
        """Coordinates of the columns of M (all must lie in the span)."""
        try:
            return _hermite_solve(self.basis, M)
        except DomainError:
            raise DomainError("columns are not in the span of the lattice")

    def _coords_or_none(self, M):
        """``coords_matrix`` of M, a matrix or one vector; None where it raises."""
        try:
            return self.coords_matrix(M if isinstance(M, Mat) else Mat.column(M))
        except DomainError:
            return None

    def span_contains(self, vector):
        return self._coords_or_none(vector) is not None

    def contains_vector(self, vector):
        coords = self._coords_or_none(vector)
        return coords is not None and coords.is_integral()

    def contains_lattice(self, other):
        coords = self._coords_or_none(other.basis)
        return coords is not None and coords.is_integral()

    def same_span(self, other):
        # equal rank and other inside the span of self: one solve
        return self.rank == other.rank and self._coords_or_none(other.basis) is not None

    # -- constructions -------------------------------------------------------

    def scaled(self, c):
        return Lattice(self.ambient_dim, self.basis * Fraction(c))


def saturate(vectors, L):
    """The saturated sublattice L ∩ span(vectors).

    ``vectors`` is an iterable of rational vectors inside span(L); the result
    is saturated in L (the quotient by it is torsion-free) and depends only on
    the span of the vectors.
    """
    S = Mat.from_columns([tuple(v) for v in vectors], nrows=L.ambient_dim)
    try:
        L.coords_matrix(S)
    except DomainError:
        raise DomainError("spanning vector outside the span of the lattice")
    # annihilator rows of span(S): the integer kernel of S^T
    return kernel_lattice(integer_kernel(S.T).T, L)


def kernel_lattice(f, L):
    """The saturated sublattice {x in L : f(x) = 0} for a rational matrix f."""
    if f.ncols != L.ambient_dim:
        raise DomainError("map not defined on the ambient space of the lattice")
    return Lattice(L.ambient_dim, L.basis * integer_kernel(f * L.basis))


def _inclusion(L, Lp):
    """T with L.basis = Lp.basis * T, for lattices L ⊆ Lp of equal rational span.

    Both bases are column Hermite forms of one span, so they pivot on the same
    rows, and on those rows both are lower triangular with a positive
    diagonal.  Hence so is T, and [Lp : L] = prod(T_ii) (Cohen, GTM 138, §2.4).
    """
    if L.ambient_dim != Lp.ambient_dim:
        raise DomainError("nested lattices live in different ambient spaces")
    T = Lp._coords_or_none(L.basis) if L.rank == Lp.rank else None
    if T is None:
        raise DomainError("nested lattices must have equal rational span")
    if not T.is_integral():
        raise DomainError("lower lattice is not contained in the upper one")
    return T


def index(L, Lp):
    """The index [Lp : L] of nested lattices of equal span."""
    return prod(row[i] for i, row in enumerate(_inclusion(L, Lp).rows))


def lattice_sum(L1, L2):
    if L1.ambient_dim != L2.ambient_dim:
        raise DomainError("ambient dimension mismatch in lattice sum")
    return Lattice(L1.ambient_dim, L1.basis.hstack(L2.basis))


def lattice_intersection(L1, L2):
    """The intersection of two lattices in the same ambient space."""
    if L1.ambient_dim != L2.ambient_dim:
        raise DomainError("ambient dimension mismatch in intersection")
    K = integer_kernel(L1.basis.hstack(-L2.basis))
    first = Mat(tuple(K.rows[: L1.rank]), ncols=K.ncols)
    return Lattice(L1.ambient_dim, L1.basis * first)


def congruence_kernel(A, d):
    """Basis of {c in Z^n : A c ≡ 0 (mod d)} for an integer matrix A.

    The first n rows of the integer kernel of [A | d I]: A c + d t = 0 fixes
    t, so dropping it maps that kernel isomorphically onto the solutions c.
    """
    if not A.is_integral():
        raise DomainError("congruence_kernel requires an integer matrix")
    K = integer_kernel(A.hstack(Mat.diagonal((d,) * A.nrows)))
    return Mat(K.rows[: A.ncols], ncols=K.ncols)


def preimage_lattice(M, target):
    """The lattice {x : M x in target} for an injective rational matrix M.

    The columns of M must land in the span of ``target``.  With W the
    target-basis coordinates of M, the preimage is {x : W x in Z^r}, the dual
    of the lattice that W's rows span: R^-T Z^n for R the Hermite basis of
    that row lattice, n x n (and lower triangular) exactly when M is injective.
    """
    W = target.coords_matrix(M)  # target-basis coordinates of M's columns
    R = hermite_column_form(W.T)
    if R.ncols < M.ncols:
        raise DomainError("preimage_lattice requires an injective matrix")
    return Lattice(M.ncols, _hermite_solve(R, Mat.identity(M.ncols)).T)
