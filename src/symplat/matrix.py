"""Immutable exact matrices over Q, with the integer normal forms.

Everything in the package runs on this kernel: entries are Python ints or
``fractions.Fraction`` (never floats), vectors are columns, and maps act by
left multiplication.  The Smith and Hermite normal forms follow fixed,
deterministic pivot rules so that every census and fixture is reproducible
bit for bit.  The Smith reduction works in one augmented array
[[M, I], [I, 0]], so each elementary operation also builds U or V.

Rational work runs on Python ints: a product scales each factor by the lcm of
its denominators and divides once at the end, and ``rref``, ``rank``, ``det``,
``inverse`` and ``solve`` all read their results off one fraction-free
(Bareiss) Gauss–Jordan elimination, whose every division is exact.  The
results are unique, so they do not depend on the pivot order.  Integer
kernels come from one column reduction, ``integer_kernel``.
"""

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import DomainError, _Immutable, certify

__all__ = [
    "Mat",
    "xgcd",
    "smith_normal_form",
    "hermite_column_form",
    "hermite_basis",
    "integer_kernel",
]


def _norm(x):
    """Collapse integral Fractions to int; reject anything inexact."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return x
    raise DomainError(f"matrix entries must be int or Fraction, got {type(x)!r}")


def _den(rows):
    """The lcm of the denominators of the entries of ``rows``."""
    return lcm(*(x.denominator for row in rows for x in row if type(x) is not int))


def _times(row, d):
    """The entries of ``row`` times ``d``, a multiple of their denominators, as ints."""
    return [x * d if type(x) is int else x.numerator * (d // x.denominator) for x in row]


def _q(x, d):
    """x / d as a normalized entry: an int, or a Fraction that is not integral."""
    return x // d if x % d == 0 else Fraction(x, d)


def _product(rows, cols):
    """Normalized rows of A*B, A given by ``rows`` and B by ``cols``.

    Sums (A*da)(B*db) in ints, for the denominator lcms da and db, then
    divides once by da*db.
    """
    da, db = _den(rows), _den(cols)
    rows = rows if da == 1 else [_times(row, da) for row in rows]
    cols = cols if db == 1 else [_times(col, db) for col in cols]
    prod = [[sum(map(mul, row, col)) for col in cols] for row in rows]
    d = da * db
    if d == 1:
        return tuple(map(tuple, prod))
    return tuple(tuple(_q(x, d) for x in row) for row in prod)


def _gauss_jordan(rows, ncols):
    """Fraction-free Gauss–Jordan elimination on the first ``ncols`` columns.

    Returns (a, den, pivots): integer rows ``a`` with the reduced row echelon
    form of ``rows`` equal to ``a / den`` (rows past ``len(pivots)`` are zero
    in the first ``ncols`` columns), and the pivot columns.  Each row is first
    scaled by the lcm of its denominators, which changes neither the RREF nor
    the solutions.  A swap also negates a row, so with full rank ``den`` is
    the determinant of the scaled square block.  After k pivots every entry is
    a k x k minor of the scaled rows (Bareiss 1968), so each ``//`` is exact.
    """
    a = [list(row) if (d := _den((row,))) == 1 else _times(row, d) for row in rows]
    m, pivots, prev = len(a), [], 1
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, m) if a[i][c]), None)
        if i is None:
            continue
        if i != r:
            a[r], a[i] = a[i], [-x for x in a[r]]
        top = a[r]
        p = top[c]
        for i, row in enumerate(a):
            f = row[c]
            if i == r or (not f and p == prev):
                continue
            a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(c)
    return a, prev, pivots


class Mat(_Immutable):
    """An immutable matrix with exact rational entries.

    Supports the handful of operations the lattice layer needs: arithmetic,
    transpose, exact inverse/solve over Q, stacking and column slicing.
    """

    __slots__ = ("rows", "nrows", "ncols", "_hash")

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
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _trusted(cls, rows, ncols):
        """A Mat on tuple rows of normalized entries (see ``_norm``), unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "_hash", None)
        return self

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n):
        return Mat(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(nrows, ncols):
        return Mat(tuple((0,) * ncols for _ in range(nrows)), ncols=ncols)

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
        return Mat._trusted(tuple(zip(*self.rows)) or ((),) * self.ncols, self.nrows)

    def is_integral(self):
        return all(isinstance(x, int) for row in self.rows for x in row)

    def is_zero(self):
        return all(x == 0 for row in self.rows for x in row)

    def is_square(self):
        return self.nrows == self.ncols

    def is_alternating(self):
        return self.is_square() and all(
            self.rows[i][j] == -self.rows[j][i] for i in range(self.nrows) for j in range(i + 1)
        )

    def denominator_lcm(self):
        return _den(self.rows)

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.rows, self.ncols)))
        return self._hash

    def __neg__(self):
        return Mat._trusted(tuple(tuple(-x for x in row) for row in self.rows), self.ncols)

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DomainError("shape mismatch in addition")
        return Mat(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)),
            ncols=self.ncols,
        )

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c):
        n, d = Fraction(_norm(c)).as_integer_ratio()
        da = _den(self.rows)
        rows = (tuple(_q(n * x, d * da) for x in _times(row, da)) for row in self.rows)
        return Mat._trusted(tuple(rows), self.ncols)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if self.ncols != other.nrows:
            raise DomainError("shape mismatch in multiplication")
        return Mat._trusted(_product(self.rows, other.T.rows), other.ncols)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise DomainError("shape mismatch in hstack")
        return Mat._trusted(
            tuple(r1 + r2 for r1, r2 in zip(self.rows, other.rows)), self.ncols + other.ncols
        )

    def take_columns(self, indices):
        return Mat.from_columns([self.col(j) for j in indices], nrows=self.nrows)

    def apply(self, vec):
        """Apply to a column vector given as a tuple."""
        vec = tuple(map(_norm, vec))
        if len(vec) != self.ncols:
            raise DomainError("vector length mismatch")
        return tuple(x for (x,) in _product(self.rows, (vec,)))

    # -- exact elimination over Q ------------------------------------------

    def rref(self):
        """Reduced row echelon form over Q.

        Returns (R, pivots) with pivots the list of pivot column indices.
        """
        a, den, pivots = _gauss_jordan(self.rows, self.ncols)
        return Mat._trusted(tuple(tuple(_q(x, den) for x in row) for row in a), self.ncols), pivots

    def rank(self):
        return len(_gauss_jordan(self.rows, self.ncols)[2])

    def det(self):
        if not self.is_square():
            raise DomainError("determinant of a non-square matrix")
        # det(M) = det(d*M) / d^n, and d*M is integral, so no row is rescaled
        d, n = _den(self.rows), self.nrows
        _, den, pivots = _gauss_jordan([_times(row, d) for row in self.rows], n)
        return _q(den, d**n) if len(pivots) == n else 0

    def inverse(self):
        if not self.is_square():
            raise DomainError("inverse of a non-square matrix")
        n = self.nrows
        unit = [(0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)]
        a, den, pivots = _gauss_jordan([r + e for r, e in zip(self.rows, unit)], n)
        if len(pivots) < n:
            raise DomainError("matrix is singular")
        return Mat._trusted(tuple(tuple(_q(x, den) for x in row[n:]) for row in a), n)

    def solve(self, rhs):
        """Solve self * X = rhs exactly over Q; free variables are set to 0.

        Raises DomainError if the system is inconsistent.
        """
        if self.nrows != rhs.nrows:
            raise DomainError("shape mismatch in solve")
        n, k = self.ncols, rhs.ncols
        a, den, pivots = _gauss_jordan([r1 + r2 for r1, r2 in zip(self.rows, rhs.rows)], n)
        if any(any(row[n:]) for row in a[len(pivots):]):
            raise DomainError("inconsistent linear system")
        sol = [(0,) * k] * n
        for row, c in zip(a, pivots):
            sol[c] = tuple(_q(x, den) for x in row[n:])
        return Mat._trusted(tuple(sol), k)

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


def _require_integral(M, what):
    if not M.is_integral():
        raise DomainError(f"{what} requires an integer matrix")


class _SnfState:
    """Workspace for the Smith reduction: one array [[M, I_m], [I_n, 0]].

    Row operations act on its first m rows and column operations on its first
    n columns, so the array stays [[U*M*V, U], [V, 0]] and U, D, V are read off
    its blocks.
    """

    def __init__(self, M):
        m, n = self.m, self.n = M.nrows, M.ncols
        self.w = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(M.rows)]
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
    _require_integral(M, "smith_normal_form")
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
    """Canonical column-style Hermite form of an integer matrix.

    Unimodular column operations only.  Returns H of shape (nrows, rank): in
    each column k the first nonzero entry (the pivot, in row i_k with
    i_1 < i_2 < ...) is positive, the other entries of row i_k to the left of
    the pivot are reduced into [0, pivot), and zero columns are dropped.
    H is the unique such basis of the integer column span, so two integer
    spans are equal iff their Hermite forms are equal.
    """
    _require_integral(M, "hermite_column_form")
    return hermite_basis(M)


def hermite_basis(M):
    """``hermite_column_form(d*M) / d``, d the lcm of M's denominators: the
    canonical basis of the lattice spanned by M's rational columns."""
    d = M.denominator_lcm()
    cols = [_times(c, d) for c in M.T.rows]
    r = _column_echelon(cols, M.nrows, canonical=True)
    rows = tuple(zip(*cols[:r])) or ((),) * M.nrows
    if d != 1:
        rows = tuple(tuple(_q(x, d) for x in row) for row in rows)
    return Mat._trusted(rows, r)


def integer_kernel(M):
    """Basis (columns, Hermite-canonical) of {x in Z^n : M x = 0}.

    Column-reduce the stacked matrix [M; I] and read the I-block under the
    columns whose M-block vanished.  The result is saturated in Z^n.
    """
    _require_integral(M, "integer_kernel")
    m, n = M.nrows, M.ncols
    cols = [list(M.col(j)) + [1 if i == j else 0 for i in range(n)] for j in range(n)]
    r = _column_echelon(cols, m, canonical=False)
    return hermite_column_form(Mat.from_columns([c[m:] for c in cols[r:]], nrows=n))
