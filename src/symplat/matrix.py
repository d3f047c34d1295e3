"""Immutable exact matrices over Q, with the integer normal forms.

Everything in the package runs on this kernel: entries are Python ints or
``fractions.Fraction`` (never floats), vectors are columns, and maps act by
left multiplication.  The Smith and Hermite normal forms follow fixed,
deterministic pivot rules so that every census and fixture is reproducible
bit for bit.  The Smith reduction works in one augmented array
[[M, I], [I, 0]], so each elementary operation also builds U or V.

A matrix is one integer matrix ``num`` over one denominator ``den >= 1``, in
lowest terms: ``gcd(den, *entries of num) == 1``, so ``den`` is the lcm of the
entries' denominators and is 1 exactly when the matrix is integral (the
matwise form of FLINT's ``fmpq_mat``).  Every kernel operation works on
``num`` alone and ends with one gcd over the result's entries and its
``den``; the entries as ints and Fractions, ``rows``, are built only when
read.  A product builds each row of A*B as the combination of B's rows that
the nonzero entries of A's row select, so a zero entry costs nothing and the
near-permutation deck actions of the covers stay cheap.  ``rref``, ``rank``,
``det``, ``inverse`` and ``solve`` all read their results off one
fraction-free (Bareiss) Gauss–Jordan elimination, whose every division is
exact.  It leaves a row alone until a step needs it: a step only scales a
row with a zero in the pivot column, and Sylvester's identity makes the
later catch-up division exact.  The results are unique, so they do not
depend on the pivot order.

The integer routines read ``num`` and take any rational matrix.  The column
Hermite form of M is that of ``num`` over ``den``, one canonical column
reduction.  An integer kernel is one column reduction, ``integer_kernel``,
and its saturated basis is returned as found.  Only the Smith form, whose D
depends on the scaling, refuses a non-integral matrix.
"""

from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, mul

from .errors import DomainError, _Immutable, certify

__all__ = [
    "Mat",
    "xgcd",
    "smith_normal_form",
    "hermite_column_form",
    "integer_kernel",
]


def _norm(x):
    """Collapse integral Fractions to int; reject anything inexact."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise DomainError(f"matrix entries must be int or Fraction, got {type(x)!r}")


def _split(rows):
    """(num, den): rows of normalized entries as integer rows over their denominator lcm."""
    den = lcm(*(x.denominator for row in rows for x in row if type(x) is not int))
    return rows if den == 1 else tuple(tuple(
        x * den if type(x) is int else x.numerator * (den // x.denominator) for x in row
    ) for row in rows), den


def _q(x, d):
    """x / d as a normalized entry: an int, or a Fraction that is not integral."""
    return x // d if x % d == 0 else Fraction(x, d)


def _scale(num, f):
    """The integer rows ``num`` times the int ``f``."""
    return num if f == 1 else tuple(tuple(f * x for x in row) for row in num)


def _primitive(rows):
    """Each integer row divided by the gcd of its entries; a zero row stays."""
    return [[x // g for x in row] if (g := gcd(*row)) > 1 else row for row in rows]


def _lowest(num, ncols, den):
    """The Mat num / den, for tuple rows ``num`` of ints and den != 0, in lowest terms."""
    if den == 1:
        return Mat._trusted(num, ncols)
    g = gcd(den, *chain.from_iterable(num)) * (1 if den > 0 else -1)
    if g != 1:
        num = tuple(tuple(x // g for x in row) for row in num)
    return Mat._trusted(num, ncols, den // g)


_MAX_CHAIN = 512  # lazy row additions one product nests before it materializes them


def _product(rows, brows, ncols):
    """The integer rows of A*B, A and B given by integer rows, B ``ncols`` wide.

    Each row of A*B is the combination of B's rows that the nonzero entries
    of A's row select, so a zero entry costs nothing; a row with none is
    zero.  The combination is a chain of lazy ``map``s that one ``tuple``
    runs.  Each link nests that ``tuple``'s C calls one level deeper, and a
    chain some 10^5 links long overflows the C stack, so the chain is
    materialized every ``_MAX_CHAIN`` links.
    """
    zero = (0,) * ncols
    prod = []
    for row in rows:
        acc, depth = None, 0
        for a, b in zip(row, brows):
            if a:
                t = b if a == 1 else map(mul, repeat(a), b)
                if acc is None:
                    acc = t
                elif depth < _MAX_CHAIN:
                    acc, depth = map(add, acc, t), depth + 1
                else:
                    acc, depth = map(add, tuple(acc), t), 1
        prod.append(zero if acc is None else tuple(acc))
    return tuple(prod)


def _gauss_jordan(rows, ncols):
    """Fraction-free Gauss–Jordan elimination of integer rows on their first ``ncols`` columns.

    Returns (a, den, pivots): integer rows ``a`` with the reduced row echelon
    form of ``rows`` equal to ``a / den`` (rows past ``len(pivots)`` are zero
    in the first ``ncols`` columns), and the pivot columns.  A swap also
    negates a row, so with full rank ``den`` is the determinant of the
    square block.  After k pivots every entry is a k x k minor of the rows
    (Bareiss 1968), so each ``//`` is exact.

    A step would only scale a row with a zero in the pivot column, by the
    new pivot over the previous one, so such a row is left alone.
    ``mark[i]`` is the pivot row i was last brought to; its true value is
    ``a[i] * prev / mark[i]``, a row of minors, so the catch-up division
    is exact (Sylvester's identity).  A row catches up when it becomes the
    pivot row, in the step that clears its nonzero pivot-column entry, and
    at the end.  A swapped row takes its mark along.
    """
    a = [list(row) for row in rows]
    m, pivots, prev = len(a), [], 1
    mark = [1] * m
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, m) if a[i][c]), None)
        if i is None:
            continue
        if i != r:
            a[r], a[i] = a[i], [-x for x in a[r]]
            mark[r], mark[i] = mark[i], mark[r]
        top = a[r]
        if mark[r] != prev:
            top = a[r] = [x * prev // mark[r] for x in top]
        p = top[c]
        for i, row in enumerate(a):
            f = row[c]
            if f and i != r:
                # (p * true row - true f * top) / prev, the true row being row * prev / mark[i]
                a[i] = [(p * x - f * y) // mark[i] for x, y in zip(row, top)]
                mark[i] = p
        mark[r] = prev = p
        pivots.append(c)
    for i, q in enumerate(mark):
        if q != prev:
            a[i] = [x * prev // q for x in a[i]]
    return a, prev, pivots


class Mat(_Immutable):
    """An immutable matrix with exact rational entries: ``num / den``.

    Supports the handful of operations the lattice layer needs: arithmetic,
    transpose, exact inverse/solve over Q, stacking and column slicing.
    """

    __slots__ = ("num", "den", "nrows", "ncols", "_rows")
    _key = ("ncols", "den", "num")

    def __init__(self, rows, ncols=None):
        rows = tuple(tuple(_norm(x) for x in row) for row in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DomainError("ragged rows")
            if ncols is not None and ncols != width:
                raise DomainError("ncols disagrees with row width")
            ncols = width
        else:
            ncols = 0 if ncols is None else ncols
        self._fill(*_split(rows), len(rows), ncols, rows)

    @classmethod
    def _trusted(cls, num, ncols, den=1):
        """The Mat num / den on tuple rows of ints, in lowest terms, unchecked."""
        # slot by slot, not ``_from_slots``: every product builds one
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nrows", len(num))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "_rows", None)
        return self

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n):
        return Mat._trusted(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)

    @staticmethod
    def zero(nrows, ncols):
        return Mat._trusted(((0,) * ncols,) * nrows, ncols)

    @staticmethod
    def diagonal(entries):
        entries = tuple(entries)
        n = len(entries)
        return Mat(tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def from_columns(cols, nrows=None):
        cols = tuple(tuple(c) for c in cols)
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            raise DomainError("from_columns with no columns needs nrows")
        return Mat(tuple(tuple(col[i] for col in cols) for i in range(nrows)), ncols=len(cols))

    @staticmethod
    def column(vec):
        return Mat.from_columns([tuple(vec)])

    # -- basic queries -----------------------------------------------------

    @property
    def rows(self):
        """The entries as ints and non-integral Fractions, built on first read."""
        if self.den == 1:
            return self.num
        if self._rows is None:
            d = self.den
            object.__setattr__(self, "_rows", tuple(tuple(_q(x, d) for x in r) for r in self.num))
        return self._rows

    def col(self, j):
        return tuple(row[j] for row in self.rows)

    def columns(self):
        return [self.col(j) for j in range(self.ncols)]

    def column_vector(self):
        if self.ncols != 1:
            raise DomainError("not a column vector")
        return self.col(0)

    @property
    def T(self):
        return Mat._trusted(tuple(zip(*self.num)) or ((),) * self.ncols, self.nrows, self.den)

    def is_integral(self):
        return self.den == 1

    def is_zero(self):
        return not any(map(any, self.num))

    def is_square(self):
        return self.nrows == self.ncols

    def is_alternating(self):
        a = self.num
        return self.is_square() and all(
            a[i][j] == -a[j][i] for i in range(self.nrows) for j in range(i + 1)
        )

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return Mat._trusted(tuple(tuple(-x for x in row) for row in self.num), self.ncols, self.den)

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DomainError("shape mismatch in addition")
        d = lcm(self.den, other.den)
        a, b = _scale(self.num, d // self.den), _scale(other.num, d // other.den)
        return _lowest(tuple(tuple(map(add, r, s)) for r, s in zip(a, b)), self.ncols, d)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c):
        n, d = Fraction(_norm(c)).as_integer_ratio()
        num = self.num if n == 1 else tuple(tuple(n * x for x in row) for row in self.num)
        return _lowest(num, self.ncols, self.den * d)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if self.ncols != other.nrows:
            raise DomainError("shape mismatch in multiplication")
        num = _product(self.num, other.num, other.ncols)
        return _lowest(num, other.ncols, self.den * other.den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise DomainError("shape mismatch in hstack")
        # each side is in lowest terms over d, and so is the stack
        d = lcm(self.den, other.den)
        a, b = _scale(self.num, d // self.den), _scale(other.num, d // other.den)
        return Mat._trusted(tuple(map(add, a, b)), self.ncols + other.ncols, d)

    def take_columns(self, indices):
        indices = tuple(indices)
        num = tuple(tuple(row[j] for j in indices) for row in self.num)
        return _lowest(num, len(indices), self.den)

    def apply(self, vec):
        """Apply to a column vector given as a tuple."""
        vec = tuple(map(_norm, vec))
        if len(vec) != self.ncols:
            raise DomainError("vector length mismatch")
        col, d = _split(tuple((x,) for x in vec))
        d *= self.den
        return tuple(_q(x, d) for (x,) in _product(self.num, col, 1))

    # -- exact elimination over Q ------------------------------------------

    def _eliminated(self, ncols):
        """``_gauss_jordan`` of num on its first ``ncols`` columns, each row first
        divided by its content if den > 1: the RREF is the same."""
        return _gauss_jordan(self.num if self.den == 1 else _primitive(self.num), ncols)

    def rref(self):
        """Reduced row echelon form over Q.

        Returns (R, pivots) with pivots the list of pivot column indices.
        """
        a, den, pivots = self._eliminated(self.ncols)
        return _lowest(tuple(map(tuple, a)), self.ncols, den), pivots

    def rank(self):
        return len(self._eliminated(self.ncols)[2])

    def det(self):
        if not self.is_square():
            raise DomainError("determinant of a non-square matrix")
        # det(num / d) = det(num) / d^n: no row is divided by its content
        n = self.nrows
        _, den, pivots = _gauss_jordan(self.num, n)
        return _q(den, self.den**n) if len(pivots) == n else 0

    def inverse(self):
        if not self.is_square():
            raise DomainError("inverse of a non-square matrix")
        n = self.nrows
        a, den, pivots = self.hstack(Mat.identity(n))._eliminated(n)
        if len(pivots) < n:
            raise DomainError("matrix is singular")
        return _lowest(tuple(tuple(row[n:]) for row in a), n, den)

    def solve(self, rhs):
        """Solve self * X = rhs exactly over Q; free variables are set to 0.

        Raises DomainError if the system is inconsistent.
        """
        if self.nrows != rhs.nrows:
            raise DomainError("shape mismatch in solve")
        n, k = self.ncols, rhs.ncols
        a, den, pivots = self.hstack(rhs)._eliminated(n)
        if any(any(row[n:]) for row in a[len(pivots):]):
            raise DomainError("inconsistent linear system")
        sol = [(0,) * k] * n
        for row, c in zip(a, pivots):
            sol[c] = tuple(row[n:])
        return _lowest(tuple(sol), k, den)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Mat[{self.nrows}x{self.ncols}: {body}]"


def xgcd(a, b):
    """Extended gcd: returns (g, x, y) with g = gcd(a,b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


class _SnfState:
    """Workspace for the Smith reduction: one array [[M, I_m], [I_n, 0]].

    Row operations act on its first m rows and column operations on its first
    n columns, so the array stays [[U*M*V, U], [V, 0]] and U, D, V are read off
    its blocks.
    """

    def __init__(self, M):
        m, n = self.m, self.n = M.nrows, M.ncols
        self.w = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(M.num)]
        self.w += [[int(i == j) for j in range(n)] + [0] * m for i in range(n)]

    def swap_rows(self, i, j):
        if i != j:
            self.w[i], self.w[j] = self.w[j], self.w[i]

    def swap_cols(self, i, j):
        if i != j:
            for row in self.w:
                row[i], row[j] = row[j], row[i]

    def add_row(self, dst, src, c):
        self.w[dst] = [x + c * y for x, y in zip(self.w[dst], self.w[src])]

    def add_col(self, dst, src, c):
        for row in self.w:
            row[dst] += c * row[src]

    def negate_row(self, i):
        self.w[i] = [-x for x in self.w[i]]

    def find_pivot(self, t):
        """Minimal |entry| != 0 in the active block, ties by lowest (row, col)."""
        best = None
        for i in range(t, self.m):
            row = self.w[i]
            for j in range(t, self.n):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        return best

    def eliminate(self):
        """Diagonalize the M block; its zero block ends up last."""
        t, w = 0, self.w
        while t < min(self.m, self.n):
            best = self.find_pivot(t)
            if best is None:
                break
            _, pi, pj = best
            self.swap_rows(t, pi)
            self.swap_cols(t, pj)
            if w[t][t] < 0:
                self.negate_row(t)
            p = w[t][t]
            dirty = False
            for i in range(t + 1, self.m):
                if w[i][t] != 0:
                    self.add_row(i, t, -(w[i][t] // p))
                    dirty = dirty or w[i][t] != 0
            for j in range(t + 1, self.n):
                if w[t][j] != 0:
                    self.add_col(j, t, -(w[t][j] // p))
                    dirty = dirty or w[t][j] != 0
            if dirty:
                # a remainder survived: re-select a (strictly smaller) pivot
                continue
            t += 1

    def row_block(self, i, j, P):
        """Left-multiply rows (i, j) by the 2x2 block P."""
        (p00, p01), (p10, p11) = P
        ri, rj = self.w[i], self.w[j]
        self.w[i] = [p00 * x + p01 * y for x, y in zip(ri, rj)]
        self.w[j] = [p10 * x + p11 * y for x, y in zip(ri, rj)]

    def col_block(self, i, j, Q):
        """Right-multiply columns (i, j) by the 2x2 block Q."""
        (q00, q01), (q10, q11) = Q
        for row in self.w:
            ci, cj = row[i], row[j]
            row[i], row[j] = q00 * ci + q10 * cj, q01 * ci + q11 * cj


def smith_normal_form(M):
    """Smith normal form with transforms: returns (U, D, V) with U*M*V = D.

    U and V are unimodular, D is diagonal with nonnegative entries satisfying
    d1 | d2 | ... (zeros at the end).  Pivoting is deterministic: the
    minimal-absolute-value nonzero entry of the active submatrix, ties broken
    by lowest (row, col) index, so the output is a pure function of M.
    """
    if not M.is_integral():
        raise DomainError("smith_normal_form requires an integer matrix")
    st = _SnfState(M)
    st.eliminate()
    m, n, w = st.m, st.n, st.w
    # Repair the divisibility chain with 2x2 gcd surgeries on adjacent pairs:
    # diag(a, b) -> diag(g, ab/g).  Each surgery strictly shrinks d_i, so the
    # sweep terminates; zeros are already trailing after eliminate().  The
    # pivots eliminate() leaves are positive and g, ab/g stay so: D needs no
    # sign repair.
    changed = True
    while changed:
        changed = False
        for i in range(min(m, n) - 1):
            a, b = w[i][i], w[i + 1][i + 1]
            if a == 0 or b % a == 0:
                continue
            g, x, y = xgcd(a, b)
            st.row_block(i, i + 1, ((x, y), (-b // g, a // g)))
            st.col_block(i, i + 1, ((1, -(y * b) // g), (1, (x * a) // g)))
            changed = True

    U = Mat._trusted(tuple(tuple(row[n:]) for row in w[:m]), m)
    D = Mat._trusted(tuple(tuple(row[:n]) for row in w[:m]), n)
    V = Mat._trusted(tuple(tuple(row[:n]) for row in w[m:]), n)
    # The transforms certify themselves; this is the kernel everything rests on.
    certify("Smith normal form transforms", {"U*M*V = D": U * M * V == D})
    return U, D, V


def _column_echelon(cols, nrows, canonical):
    """Column-echelon ``cols`` in place on their first ``nrows`` entries; the rank.

    ``canonical`` makes each pivot positive and reduces the entries to its
    left in its row into [0, pivot), as in ``hermite_column_form``.
    """
    n, r = len(cols), 0
    for i in range(nrows):
        if r == n:
            break
        nz = next((k for k in range(r, n) if cols[k][i] != 0), None)
        if nz is None:
            continue
        cols[r], cols[nz] = cols[nz], cols[r]
        for k in range(r + 1, n):
            while cols[k][i] != 0:
                if cols[r][i] == 0 or abs(cols[r][i]) > abs(cols[k][i]):
                    cols[r], cols[k] = cols[k], cols[r]
                    continue
                q = cols[k][i] // cols[r][i]
                cols[k] = [x - q * y for x, y in zip(cols[k], cols[r])]
        if canonical:
            if cols[r][i] < 0:
                cols[r] = [-x for x in cols[r]]
            piv = cols[r][i]
            for k in range(r):
                q = cols[k][i] // piv
                if q:
                    cols[k] = [x - q * y for x, y in zip(cols[k], cols[r])]
        r += 1
    return r


def hermite_column_form(M):
    """Canonical column-style Hermite form of a rational matrix M = num / den.

    Unimodular column operations on ``num`` only, then the one division by
    ``den``.  Returns H of shape (nrows, rank): in each column k the first
    nonzero entry (the pivot, in row i_k with i_1 < i_2 < ...) is positive,
    the other entries of row i_k to the left of the pivot are reduced into
    [0, pivot), and zero columns are dropped.  H is the unique such basis of
    the lattice spanned by M's columns, so two lattices are equal iff their
    Hermite forms are equal.
    """
    cols = list(M.T.num)
    r = _column_echelon(cols, M.nrows, canonical=True)
    return _lowest(tuple(zip(*cols[:r])) or ((),) * M.nrows, r, M.den)


def integer_kernel(M):
    """A basis (columns) of {x in Z^n : M x = 0}, for a rational matrix M = num / den.

    M x = 0 iff num x = 0.  Column-reduce the stacked matrix [num; I] and
    read the I-block under the columns whose num-block vanished.  The basis
    is saturated in Z^n and returned as that one reduction finds it, not in
    Hermite form: ``Lattice`` takes the canonical basis of what it spans.
    """
    m, n = M.nrows, M.ncols
    cols = [list(c) + [int(i == j) for i in range(n)] for j, c in enumerate(M.T.num)]
    r = _column_echelon(cols, m, canonical=False)
    basis = tuple(zip(*(c[m:] for c in cols[r:]))) or ((),) * n
    return Mat._trusted(basis, n - r)
