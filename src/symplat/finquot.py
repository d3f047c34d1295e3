"""Finite abelian groups presented as quotients L'/L of equal-span lattices.

This is where torsion subgroups, kernels of polarization maps and their
Q/Z-valued pairings live, together with exhaustive subgroup enumeration and
the maximal-totally-isotropic (m.t.i.) machinery that drives every isogeny
quotient in the package.  T, the L'-basis coordinates of the L basis, is
one forward substitution on the pivot rows of the Hermite basis of L' (a
row at a time for a search survivor); both bases are Hermite forms, so T is
lower triangular and |L'/L| is the product of its diagonal.  Elements are
kept as their L-basis coordinates.
"""

from fractions import Fraction
from itertools import product, repeat
from math import isqrt, lcm, prod
from operator import mul, sub

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

    __slots__ = ("lower", "upper", "_coords", "_snf")
    _key = ("lower", "upper")

    def __init__(self, lower, upper):
        T = _inclusion(lower, upper)  # the one solve: lower.basis = upper.basis * T
        self._fill(lower, upper, T, None)

    @classmethod
    def _over_hermite(cls, lower, c, keys):
        """The quotients by ``lower`` of the lattices with bases c*H, for H in ``keys``.

        Each H is a lower-triangular Hermite matrix of ints, given by its rows,
        and c > 0, so c*H is a canonical basis: no Hermite pass or solve is
        made.  T, with c*H*T = lower.basis, comes from forward substitution, a
        row at a time: T[i] = (L[i] - sum of H[i][s]*T[s] over s < i) / H[i][i]
        for L = lower.basis / c.  A division that is not exact, on any row
        (H[i][i] = 1 included, where an entry of L is not an integer), means
        ``lower`` is not contained.
        """
        n = lower.ambient_dim
        L = lower.basis.scaled(1 / Fraction(c)).rows  # lower triangular, and so is each T
        out = []
        for H in keys:
            T = []
            for i, row in enumerate(H):
                v = L[i]
                for a, above in zip(row, T):  # the rows s < i of T
                    if a:
                        v = map(sub, v, map(mul, repeat(a), above))
                t, rem = zip(*map(divmod, v, repeat(row[i])))
                if any(rem):
                    raise DomainError("lower lattice is not contained in the upper one")
                T.append(t)
            upper = Lattice._from_slots(n, Mat._trusted(H, n, 1).scaled(c))
            coords = Mat._trusted(tuple(T), n, 1)
            out.append(cls._from_slots(lower, upper, coords, None))
        return out

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

    def __repr__(self):
        inv = self.invariants
        desc = " x ".join(f"Z/{d}" for d in inv) if inv else "0"
        return f"FiniteQuotient({desc})"

    # -- elements ------------------------------------------------------------

    def element(self, vector):
        return QuotientElement(self, vector)

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
    _key = ("parent", "rep")

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
        self._fill(parent, c, parent.lower.basis.apply(c))

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
        self._fill(quotient, form, upper_form)  # orthogonal_subgroup reads these three
        object.__setattr__(self, "_radical_order", orthogonal_subgroup(quotient, self).order)


def is_isotropic(S, p):
    """True iff the pairing vanishes on S x S (checked on lattice generators)."""
    B = S.upper.basis
    vals = B.T * p.form * B
    return vals.is_integral()


def orthogonal_subgroup(S, p):
    """The orthogonal S^perp = {x in Q : p(x, S) = 0} as a subgroup of Q = p.quotient."""
    Q = p.quotient
    if S.lower != Q.lower:
        raise DomainError("subgroup does not share the quotient's lower lattice")
    C = p._upper_form * S.upper.basis
    d = C.den
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


def _enumerate(Q, budget, p=None, limit=None):
    """Subgroups of Q in canonical order; given a pairing p, only the m.t.i. ones.

    A subgroup is H Z^k / diag(d) Z^k on the d > 1 columns Wsub of Q's adapted
    basis, for one lower-triangular Hermite matrix H: h_j | d_j on the
    diagonal and H[r][j] in [0, h_r) below it.  Columns are placed from the
    last to the first.  Columns j..k-1 span H Z^k ∩ <e_j, ..., e_{k-1}>, so a
    placement is tested at once.  Given p, prod(h) must stay able to reach its
    m.t.i. value (see ``enumerate_mti``), checked once per h_j, and then, per
    placement, the new column must pair integrally with the placed ones
    (isotropy, one congruence mod den each).  Last, d_j e_j must lie in the
    span of columns j..k-1 (containment, forward substitution over the placed
    columns).  Each placement counts once toward the budget, before either
    test.  The order of a subgroup is prod(d) / prod(h).  Where
    Wsub = c I with c > 0, a survivor is kept as (order, H) in ints: its
    canonical basis is c H, so that key sorts as the built quotient does, and
    only the first ``limit`` are built.  Otherwise each survivor is built and
    then sorted.  BudgetError once |Q| or the number of column placements
    tried exceeds budget.
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
    full = prod(d)
    # Wsub = c I, c > 0, is square and so leaves no d = 1 column
    c = Wsub.rows[0][0] if k else 0
    scalar = c > 0 and Wsub == Mat.identity(k).scaled(c)
    if p is not None:
        # prod(h) of every m.t.i. S, from |S|^2 = |Q| |R|; |Q| |R| is a square
        # because Q/R carries a nondegenerate alternating pairing
        goal = full // isqrt(Q.order * p._radical_order)
        head = [prod(d[:j]) for j in range(k)]
        G = Wsub.T * p.form * Wsub
        G, den = G.num, G.den  # the Gram over its denominator, as ints
        GH = [None] * k  # GH[i] = G times column i of H
    H = [[0] * k for _ in range(k)]
    out = []
    tried = 0

    def place(j, placed):
        """Place column j, given prod(h_i, i > j) = placed."""
        nonlocal tried
        if j < 0:
            if scalar:
                out.append((full // placed, tuple(map(tuple, H))))
                return
            gens = (Wsub * Mat(H, ncols=k)).columns() + trivial_cols
            out.append(FiniteQuotient(Q.lower, Lattice.from_generators(Q.lower.ambient_dim, gens)))
            return
        # fixed while column j is placed: the ranges of the entries below h,
        # the placed columns of G H and the rows of G, all from row j on
        ranges = [range(H[r][r]) for r in range(j + 1, k)]
        if p is not None:
            GH_tails = [GH[i][j:] for i in range(j + 1, k)]
            G_tails = [row[j:] for row in G]
        for h in _divisors(d[j]):
            if p is not None:
                # columns 0..j-1 must bring prod(h) up to goal: h_i | d_i for each
                rest, rem = divmod(goal, placed * h)
                if rem or head[j] % rest:
                    continue
            q = d[j] // h
            for below in product(*ranges):
                tried += 1
                if tried > budget:
                    raise BudgetError(f"more than {budget} candidate subgroups")
                tail = (h,) + below  # column j of H from row j on
                # the entries (j, i) of H^T G H, over the placed columns i
                if p is not None and any(sum(map(mul, tail, gh)) % den for gh in GH_tails):
                    continue
                # d_j e_j - q tail must be an integer combination of the placed
                # columns; it is -q below under row j: eliminate it row by row
                v = [-q * x for x in below]
                for t, r in enumerate(range(j + 1, k)):
                    c, rem = divmod(v[t], H[r][r])
                    if rem:
                        break
                    if c:
                        for s in range(t + 1, k - j - 1):
                            v[s] -= c * H[j + 1 + s][r]
                else:
                    if p is not None:
                        GH[j] = [sum(map(mul, g, tail)) for g in G_tails]
                    for r, x in enumerate(tail, j):
                        H[r][j] = x
                    place(j - 1, placed * h)

    place(k - 1, 1)
    if scalar:
        out.sort()
        return FiniteQuotient._over_hermite(Q.lower, c, [H for _, H in out[:limit]])
    out.sort(key=lambda S: (S.order, S.upper.basis.rows))
    return out[:limit]


def enumerate_subgroups(Q, budget=DEFAULT_BUDGET):
    """All subgroups of Q, each as a FiniteQuotient between Q.lower and Q.upper.

    Deterministic canonical order: sorted by (order, canonical basis matrix of
    the intermediate lattice).
    """
    return _enumerate(Q, budget)


def _dedekind_psi(m):
    """Dedekind's psi(m) = m * prod over primes p | m of (1 + 1/p), by trial division.

    It counts the cyclic subgroups of order m of (Z/m)^2.
    """
    psi, n, p = m, m, 2
    while p * p <= n:
        if n % p == 0:
            psi = psi // p * (p + 1)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        psi = psi // n * (n + 1)
    return psi


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
