"""Immutable exact matrices over Q, with the integer normal forms.

Everything in the package runs on this kernel: entries are Python ints or
``fractions.Fraction`` (never floats), vectors are columns, and maps act by
left multiplication.  The Smith and Hermite normal forms follow fixed,
deterministic pivot rules so that every census and fixture is reproducible
bit for bit.
"""

from fractions import Fraction
from math import lcm

from .errors import CertificationError, DomainError

__all__ = [
    "Mat",
    "xgcd",
    "smith_normal_form",
    "hermite_column_form",
    "integer_kernel",
]


def _norm(x):
    """Collapse integral Fractions to int; reject anything inexact."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int):
        return x
    raise DomainError(f"matrix entries must be int or Fraction, got {type(x)!r}")


class Mat:
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

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

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

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

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
        return Mat(tuple(self.col(j) for j in range(self.ncols)), ncols=self.nrows)

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
        d = 1
        for row in self.rows:
            for x in row:
                if isinstance(x, Fraction):
                    d = lcm(d, x.denominator)
        return d

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
        return Mat(tuple(tuple(-x for x in row) for row in self.rows), ncols=self.ncols)

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
        c = _norm(c)
        return Mat(tuple(tuple(c * x for x in row) for row in self.rows), ncols=self.ncols)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if self.ncols != other.nrows:
            raise DomainError("shape mismatch in multiplication")
        bt = other.T.rows
        return Mat(
            tuple(tuple(sum(a * b for a, b in zip(row, bcol)) for bcol in bt) for row in self.rows),
            ncols=other.ncols,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise DomainError("shape mismatch in hstack")
        return Mat(
            tuple(r1 + r2 for r1, r2 in zip(self.rows, other.rows)),
            ncols=self.ncols + other.ncols,
        )

    def vstack(self, other):
        if self.ncols != other.ncols:
            raise DomainError("shape mismatch in vstack")
        return Mat(self.rows + other.rows, ncols=self.ncols)

    def take_columns(self, indices):
        return Mat.from_columns([self.col(j) for j in indices], nrows=self.nrows)

    def apply(self, vec):
        """Apply to a column vector given as a tuple."""
        vec = tuple(vec)
        if len(vec) != self.ncols:
            raise DomainError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

    # -- exact elimination over Q ------------------------------------------

    def rref(self):
        """Reduced row echelon form over Q.

        Returns (R, pivots) with pivots the list of pivot column indices.
        Pivot choice: first row with a nonzero entry in the current column.
        """
        rows = [list(map(Fraction, row)) for row in self.rows]
        m, n = self.nrows, self.ncols
        pivots = []
        r = 0
        for c in range(n):
            if r == m:
                break
            pivot_row = next((i for i in range(r, m) if rows[i][c] != 0), None)
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            pv = rows[r][c]
            rows[r] = [x / pv for x in rows[r]]
            for i in range(m):
                if i != r and rows[i][c] != 0:
                    f = rows[i][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
        return Mat(rows, ncols=n), pivots

    def rank(self):
        return len(self.rref()[1])

    def det(self):
        if not self.is_square():
            raise DomainError("determinant of a non-square matrix")
        n = self.nrows
        rows = [list(map(Fraction, row)) for row in self.rows]
        det = Fraction(1)
        for c in range(n):
            pivot_row = next((i for i in range(c, n) if rows[i][c] != 0), None)
            if pivot_row is None:
                return 0
            if pivot_row != c:
                rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
                det = -det
            det *= rows[c][c]
            inv = 1 / rows[c][c]
            for i in range(c + 1, n):
                if rows[i][c] != 0:
                    f = rows[i][c] * inv
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
        return _norm(det)

    def inverse(self):
        if not self.is_square():
            raise DomainError("inverse of a non-square matrix")
        n = self.nrows
        aug = self.hstack(Mat.identity(n))
        red, pivots = aug.rref()
        if pivots[:n] != list(range(n)):
            raise DomainError("matrix is singular")
        return Mat(tuple(row[n:] for row in red.rows), ncols=n)

    def solve(self, rhs):
        """Solve self * X = rhs exactly over Q; free variables are set to 0.

        Raises DomainError if the system is inconsistent.
        """
        if self.nrows != rhs.nrows:
            raise DomainError("shape mismatch in solve")
        n, k = self.ncols, rhs.ncols
        red, pivots = self.hstack(rhs).rref()
        if any(p >= n for p in pivots):
            raise DomainError("inconsistent linear system")
        sol = [[0] * k for _ in range(n)]
        for r, c in enumerate(pivots):
            for j in range(k):
                sol[c][j] = red.rows[r][n + j]
        return Mat(sol, ncols=k)

    def kernel_basis(self):
        """A basis of the rational kernel {x : self*x = 0}, as columns."""
        red, pivots = self.rref()
        n = self.ncols
        free = [c for c in range(n) if c not in pivots]
        cols = []
        for fc in free:
            v = [Fraction(0)] * n
            v[fc] = Fraction(1)
            for r, c in enumerate(pivots):
                v[c] = -red.rows[r][fc]
            cols.append(tuple(v))
        return Mat.from_columns(cols, nrows=n)

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
    """Mutable workspace for the Smith reduction, tracking U and V."""

    def __init__(self, M):
        self.a = [list(row) for row in M.rows]
        self.m, self.n = M.nrows, M.ncols
        self.u = [[1 if i == j else 0 for j in range(self.m)] for i in range(self.m)]
        self.v = [[1 if i == j else 0 for j in range(self.n)] for i in range(self.n)]

    def swap_rows(self, i, j):
        if i != j:
            self.a[i], self.a[j] = self.a[j], self.a[i]
            self.u[i], self.u[j] = self.u[j], self.u[i]

    def swap_cols(self, i, j):
        if i != j:
            for row in self.a:
                row[i], row[j] = row[j], row[i]
            for row in self.v:
                row[i], row[j] = row[j], row[i]

    def add_row(self, dst, src, c):
        self.a[dst] = [x + c * y for x, y in zip(self.a[dst], self.a[src])]
        self.u[dst] = [x + c * y for x, y in zip(self.u[dst], self.u[src])]

    def add_col(self, dst, src, c):
        for row in self.a:
            row[dst] += c * row[src]
        for row in self.v:
            row[dst] += c * row[src]

    def negate_row(self, i):
        self.a[i] = [-x for x in self.a[i]]
        self.u[i] = [-x for x in self.u[i]]

    def find_pivot(self, t):
        """Minimal |entry| != 0 in the active block, ties by lowest (row, col)."""
        best = None
        for i in range(t, self.m):
            row = self.a[i]
            for j in range(t, self.n):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        return best

    def eliminate(self, start=0):
        """Diagonalize from position ``start`` on; zero block ends up last."""
        t = start
        while t < min(self.m, self.n):
            best = self.find_pivot(t)
            if best is None:
                break
            _, pi, pj = best
            self.swap_rows(t, pi)
            self.swap_cols(t, pj)
            if self.a[t][t] < 0:
                self.negate_row(t)
            p = self.a[t][t]
            dirty = False
            for i in range(t + 1, self.m):
                if self.a[i][t] != 0:
                    self.add_row(i, t, -(self.a[i][t] // p))
                    dirty = dirty or self.a[i][t] != 0
            for j in range(t + 1, self.n):
                if self.a[t][j] != 0:
                    self.add_col(j, t, -(self.a[t][j] // p))
                    dirty = dirty or self.a[t][j] != 0
            if dirty:
                # a remainder survived: re-select a (strictly smaller) pivot
                continue
            t += 1

    def row_block(self, i, j, P):
        """Left-multiply rows (i, j) by the 2x2 block P."""
        (p00, p01), (p10, p11) = P
        ri = [p00 * x + p01 * y for x, y in zip(self.a[i], self.a[j])]
        rj = [p10 * x + p11 * y for x, y in zip(self.a[i], self.a[j])]
        self.a[i], self.a[j] = ri, rj
        ui = [p00 * x + p01 * y for x, y in zip(self.u[i], self.u[j])]
        uj = [p10 * x + p11 * y for x, y in zip(self.u[i], self.u[j])]
        self.u[i], self.u[j] = ui, uj

    def col_block(self, i, j, Q):
        """Right-multiply columns (i, j) by the 2x2 block Q."""
        (q00, q01), (q10, q11) = Q
        for row in self.a:
            ci, cj = row[i], row[j]
            row[i], row[j] = q00 * ci + q10 * cj, q01 * ci + q11 * cj
        for row in self.v:
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
    r = min(st.m, st.n)
    # Repair the divisibility chain with 2x2 gcd surgeries on adjacent pairs:
    # diag(a, b) -> diag(g, ab/g).  Each surgery strictly shrinks d_i, so the
    # sweep terminates; zeros are already trailing after eliminate().
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = st.a[i][i], st.a[i + 1][i + 1]
            if a == 0 or b % a == 0:
                continue
            g, x, y = xgcd(a, b)
            st.row_block(i, i + 1, ((x, y), (-b // g, a // g)))
            st.col_block(i, i + 1, ((1, -(y * b) // g), (1, (x * a) // g)))
            changed = True
    for i in range(r):
        if st.a[i][i] < 0:
            st.negate_row(i)

    U, D, V = Mat(st.u), Mat(st.a, ncols=st.n), Mat(st.v)
    # The transforms certify themselves; this is the kernel everything rests on.
    if U * M * V != D:
        raise CertificationError("Smith normal form transforms fail U*M*V = D", ["U*M*V = D"])
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
    cols = [list(M.col(j)) for j in range(M.ncols)]
    r = _column_echelon(cols, M.nrows, canonical=True)
    return Mat.from_columns(cols[:r], nrows=M.nrows)


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
