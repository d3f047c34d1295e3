"""Finite abelian groups presented as quotients L'/L of equal-span lattices.

This is where torsion subgroups, kernels of polarization maps and their
Q/Z-valued pairings live, together with exhaustive subgroup enumeration and
the maximal-totally-isotropic (m.t.i.) machinery that drives every isogeny
quotient in the package.  One solve gives T, the L'-basis coordinates of the
L basis; both bases are column Hermite forms, so T is lower triangular and
|L'/L| is the product of its diagonal.  Elements are kept as their L-basis
coordinates.
"""

from fractions import Fraction
from itertools import product
from math import isqrt, lcm, prod

from .errors import BudgetError, DomainError, _Immutable
from .lattice import Lattice, _inclusion, congruence_kernel
from .matrix import Mat, smith_normal_form

__all__ = [
    "FiniteQuotient",
    "QuotientElement",
    "PairingOnQuotient",
    "enumerate_subgroups",
    "enumerate_mti",
    "is_isotropic",
    "orthogonal_subgroup",
    "is_maximal_isotropic",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 2**16


class FiniteQuotient(_Immutable):
    """The finite abelian group upper/lower for nested equal-span lattices."""

    __slots__ = ("lower", "upper", "_coords", "_snf", "_hash")

    def __init__(self, lower, upper):
        T = _inclusion(lower, upper)  # the one solve: lower.basis = upper.basis * T
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "_coords", T)
        object.__setattr__(self, "_snf", None)
        object.__setattr__(self, "_hash", None)

    def _adapted(self):
        """(W, diag): a basis W of `upper` with lower = W * diag(d1..dr).

        U T V = D gives W = upper U^-1 = lower V D^-1, so no inverse is taken.
        """
        if self._snf is None:
            _, D, V = smith_normal_form(self._coords)
            diag = tuple(D.rows[i][i] for i in range(D.nrows))
            W = self.lower.basis * (V * Mat.diagonal(Fraction(1, d) for d in diag))
            object.__setattr__(self, "_snf", (W, diag))
        return self._snf

    @property
    def order(self):
        """The product of the diagonal of T, the upper coordinates of the lower basis."""
        return prod(row[i] for i, row in enumerate(self._coords.rows))

    @property
    def invariants(self):
        """Elementary divisors > 1, in ascending divisibility order."""
        _, diag = self._adapted()
        return tuple(d for d in diag if d > 1)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteQuotient)
            and self.lower == other.lower
            and self.upper == other.upper
        )

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.lower, self.upper)))
        return self._hash

    def __repr__(self):
        inv = self.invariants
        desc = " x ".join(f"Z/{d}" for d in inv) if inv else "0"
        return f"FiniteQuotient({desc})"

    # -- elements ------------------------------------------------------------

    def element(self, vector):
        return QuotientElement(self, vector)

    def elements(self, budget=DEFAULT_BUDGET):
        """All elements, in a deterministic order."""
        if self.order > budget:
            raise BudgetError(f"group of order {self.order} exceeds budget {budget}")
        W, diag = self._adapted()
        out = []
        for ks in product(*(range(d) for d in diag)):
            vec = W.apply(ks)
            out.append(QuotientElement(self, vec))
        return out

    def subgroup(self, elements):
        """The subgroup generated by the given elements (or raw vectors)."""
        elements = list(elements)
        vecs = [e.rep if isinstance(e, QuotientElement) else tuple(e) for e in elements]
        enlarged = Lattice.from_generators(
            self.lower.ambient_dim, self.lower.basis.columns() + vecs
        )
        if not all(isinstance(e, QuotientElement) and e.parent == self for e in elements) \
                and not self.upper.contains_lattice(enlarged):
            raise DomainError("generators do not lie in the quotient")
        return FiniteQuotient(self.lower, enlarged)

    def order_modulo(self, x):
        """The order of x, an element of a quotient over ``lower``, modulo this subgroup.

        That is the lcm of the denominators of T*x.c, x's upper coordinates.
        """
        if x.parent.lower != self.lower:
            raise DomainError("element of a quotient over another lower lattice")
        return lcm(*(Fraction(a).denominator for a in self._coords.apply(x.c)))

    def __contains__(self, x):
        """Whether x, an element of a quotient over ``lower``, lies here."""
        return self.order_modulo(x) == 1

    def is_subgroup_of(self, other):
        return (
            self.lower == other.lower
            and other.upper.contains_lattice(self.upper)
        )


def _integral(vector):
    return all(type(x) is int for x in vector)


class QuotientElement(_Immutable):
    """An element of a FiniteQuotient: its lower-basis coordinates ``c`` in [0, 1).

    Built from a vector of ``upper`` with one solve (``_coords`` skips it);
    ``+``, ``-``, integer ``*`` and ``order`` act on ``c``, and the canonical
    representative is ``rep`` = lower.basis * c.
    """

    __slots__ = ("parent", "c", "rep")

    def __init__(self, parent, vector, _coords=None):
        c = _coords
        if c is None:
            try:
                c = parent.lower.coords_of(tuple(vector))
                inside = _integral(parent._coords.apply(c))  # upper coordinates T*c
            except DomainError:
                inside = False
            if not inside:
                raise DomainError("representative does not lie in the upper lattice")
        c = tuple(x % 1 or 0 for x in c)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "rep", parent.lower.basis.apply(c))

    def __eq__(self, other):
        return (
            isinstance(other, QuotientElement)
            and self.parent == other.parent
            and self.rep == other.rep
        )

    def __hash__(self):
        return hash((self.parent, self.rep))

    def __add__(self, other):
        if self.parent != other.parent:
            raise DomainError("elements of different quotients")
        return QuotientElement(self.parent, None, [a + b for a, b in zip(self.c, other.c)])

    def __neg__(self):
        return QuotientElement(self.parent, None, [-a for a in self.c])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, k):
        if not isinstance(k, int):
            raise DomainError("quotient elements are scaled by integers only")
        return QuotientElement(self.parent, None, [k * a for a in self.c])

    __rmul__ = __mul__

    def is_zero(self):
        return not any(self.c)

    def order(self):
        return lcm(*(Fraction(a).denominator for a in self.c))

    def __repr__(self):
        return f"QuotientElement({self.rep})"


class PairingOnQuotient(_Immutable):
    """A Q/Z-valued pairing on a FiniteQuotient, given by an alternating form.

    Well-definedness requires form(upper, lower) ⊆ Z, which makes the value
    on representatives independent of the chosen lifts.  The product
    upper^T * form that this check forms is kept for ``orthogonal_subgroup``,
    and so is |R|, R = Q^perp the radical, which fixes the order of every
    maximal totally isotropic subgroup (``is_maximal_isotropic``).
    """

    __slots__ = ("quotient", "form", "_upper_form", "_radical_order")

    def __init__(self, quotient, form):
        if form.nrows != quotient.lower.ambient_dim or not form.is_square():
            raise DomainError("pairing form has the wrong shape")
        if not form.is_alternating():
            raise DomainError("pairing form must be alternating")
        upper_form = quotient.upper.basis.T * form
        if not (upper_form * quotient.lower.basis).is_integral():
            raise DomainError("pairing is not well-defined: form(upper, lower) not integral")
        object.__setattr__(self, "quotient", quotient)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "_upper_form", upper_form)
        object.__setattr__(self, "_radical_order", orthogonal_subgroup(quotient, self).order)

    def value(self, x, y):
        """The pairing value x^T * form * y in Q/Z, reduced into [0, 1)."""
        xv = x.rep if isinstance(x, QuotientElement) else tuple(x)
        yv = y.rep if isinstance(y, QuotientElement) else tuple(y)
        raw = Fraction(sum(a * b for a, b in zip(xv, self.form.apply(yv))))
        return raw - (raw.numerator // raw.denominator)


def is_isotropic(S, p):
    """True iff the pairing vanishes on S x S (checked on lattice generators)."""
    B = S.upper.basis
    vals = B.T * p.form * B
    return all(Fraction(x).denominator == 1 for row in vals.rows for x in row)


def orthogonal_subgroup(S, p):
    """The orthogonal S^perp = {x in Q : p(x, S) = 0} as a subgroup of Q = p.quotient."""
    Q = p.quotient
    if S.lower != Q.lower:
        raise DomainError("subgroup does not share the quotient's lower lattice")
    C = p._upper_form * S.upper.basis
    d = C.denominator_lcm()
    K = congruence_kernel((C * d).T, d)
    perp = Lattice(Q.lower.ambient_dim, Q.upper.basis * K)
    # perp contains Q.lower: form(upper, lower) ⊆ Z makes lower coords solve
    # the congruence, so this is a genuine subgroup presentation.
    return FiniteQuotient(Q.lower, perp)


def is_maximal_isotropic(S, p):
    """Maximal totally isotropic test: S isotropic and |S|^2 = |Q| |R|.

    R is the radical of p, kept by the pairing; ``enumerate_mti`` shows that
    for isotropic S the equation says S^perp = S.  No S^perp is built.
    """
    if not is_isotropic(S, p):
        return False
    Q = p.quotient
    if S.lower != Q.lower:
        raise DomainError("subgroup does not share the quotient's lower lattice")
    return S.order ** 2 == Q.order * p._radical_order


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _enumerate(Q, budget, p=None):
    """Subgroups of Q in canonical order; given a pairing p, only the m.t.i. ones.

    A subgroup is H Z^k / diag(d) Z^k on the d > 1 columns Wsub of Q's adapted
    basis, for one lower-triangular Hermite matrix H: h_j | d_j on the
    diagonal and H[r][j] in [0, h_r) below it.  Columns are placed from the
    last to the first.  Columns j..k-1 span H Z^k ∩ <e_j, ..., e_{k-1}>, so a
    placement is tested at once: d_j e_j must lie in their span (forward
    substitution) and, given p, the new column must pair integrally with the
    placed ones and prod(h) must stay able to reach its m.t.i. value (see
    ``enumerate_mti``).  Each subgroup is built as a FiniteQuotient, whose
    order prod(d) / prod(h) is read off its own Hermite diagonal.  BudgetError
    once |Q| or the number of column placements tried exceeds budget.
    """
    if Q.order > budget:
        raise BudgetError(f"group of order {Q.order} exceeds budget {budget}")
    W, diag = Q._adapted()
    nontrivial = [i for i, d_i in enumerate(diag) if d_i > 1]
    Wsub = W.take_columns(nontrivial)
    d = [diag[i] for i in nontrivial]
    k = len(d)
    # the d = 1 columns lie in Q.lower and complete every generating set
    trivial_cols = [W.col(i) for i, d_i in enumerate(diag) if d_i == 1]
    if p is not None:
        # prod(h) of every m.t.i. S, from |S|^2 = |Q| |R|; |Q| |R| is a square
        # because Q/R carries a nondegenerate alternating pairing
        goal = prod(d) // isqrt(Q.order * p._radical_order)
        head = [prod(d[:j]) for j in range(k)]
        G = Wsub.T * p.form * Wsub
        den = G.denominator_lcm()
        G = [[int(x * den) for x in row] for row in G.rows]
        GH = [None] * k  # GH[i] = G times column i of H
    H = [[0] * k for _ in range(k)]
    out = []
    tried = 0

    def place(j, placed):
        """Place column j, given prod(h_i, i > j) = placed."""
        nonlocal tried
        if j < 0:
            gens = (Wsub * Mat(H, ncols=k)).columns() + trivial_cols
            out.append(FiniteQuotient(Q.lower, Lattice.from_generators(Q.lower.ambient_dim, gens)))
            return
        for h in _divisors(d[j]):
            if p is not None:
                # columns 0..j-1 must bring prod(h) up to goal: h_i | d_i for each
                rest, rem = divmod(goal, placed * h)
                if rem or head[j] % rest:
                    continue
            for below in product(*(range(H[r][r]) for r in range(j + 1, k))):
                tried += 1
                if tried > budget:
                    raise BudgetError(f"more than {budget} candidate subgroups")
                col = (0,) * j + (h,) + below
                # d_j e_j - (d_j / h) col must be an integer combination of
                # the placed columns: eliminate it row by row
                v = [-(d[j] // h) * x for x in col]
                for r in range(j + 1, k):
                    if v[r] % H[r][r]:
                        break
                    c = v[r] // H[r][r]
                    for s in range(r + 1, k):
                        v[s] -= c * H[s][r]
                else:
                    if p is not None:
                        # the entries (j, i) of H^T G H, over the placed columns i
                        if any(sum(col[a] * GH[i][a] for a in range(j, k)) % den
                               for i in range(j + 1, k)):
                            continue
                        GH[j] = [sum(G[a][b] * col[b] for b in range(j, k)) for a in range(k)]
                    for r in range(j, k):
                        H[r][j] = col[r]
                    place(j - 1, placed * h)

    place(k - 1, 1)
    out.sort(key=lambda S: (S.order, S.upper.basis.rows))
    return out


def enumerate_subgroups(Q, budget=DEFAULT_BUDGET):
    """All subgroups of Q, each as a FiniteQuotient between Q.lower and Q.upper.

    Deterministic canonical order: sorted by (order, canonical basis matrix of
    the intermediate lattice).
    """
    return _enumerate(Q, budget)


def enumerate_mti(Q, p, budget=DEFAULT_BUDGET):
    """All maximal totally isotropic subgroups of Q under p, canonical order.

    A candidate S = H Z^k / diag(d) Z^k is kept iff, on its Hermite matrix H,
    |S| = prod(d)/prod(h) satisfies |S|^2 = |Q| |R|, with R = Q^perp the
    radical of p, and H^T G H is integral, G the pairing on the adapted
    generators (isotropy; entries above the diagonal suffice).  This is
    "S isotropic and S^perp ⊆ S": for isotropic S, Q -> Hom(S, Q/Z) has
    kernel S^perp and image of order |S|/|S ∩ R|, so |S^perp| = |Q||S ∩ R|/|S|.
    S^perp = S forces R ⊆ S and |S|^2 = |Q||R|; conversely that equation
    gives |S^perp| <= |S| <= |S^perp|.  Degenerate pairings need no fork.
    """
    return _enumerate(Q, budget, p)
