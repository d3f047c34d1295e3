"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the library's own algorithms: Smith invariants
via determinantal divisors, subgroup enumeration via closure BFS over group
elements, and maximality of isotropic subgroups via exhaustive extension.
"""

import json
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod

import pytest
import sympy
from hypothesis import strategies as st

from symplat.cli import EXIT_OK, EXIT_VALIDATION
from symplat.comppair import ker_mu_of_pair, welters_construct
from symplat.covers import (
    RibbonGraph,
    _build_homology,
    birational_predicate,
    classify_mti_K,
    eta_class,
    ker_mu_basis,
    standard_cover,
    surface_ribbon,
)
from symplat.errors import DomainError
from symplat.finquot import (
    FiniteQuotient,
    enumerate_subgroups,
    is_isotropic,
    orthogonal_subgroup,
)
from symplat.jsonio import SCHEMA, dumps_canonical, welters_report
from symplat.lattice import (
    Lattice,
    congruence_kernel,
    kernel_lattice,
    lattice_sum,
    preimage_lattice,
)
from symplat.matrix import Mat, hermite_column_form, smith_normal_form, xgcd
from symplat.pollat import LatticeMap, PolarizedLattice, dual_lattice, polarization_type


# -- cover fixtures shared across modules ------------------------------------

@pytest.fixture(scope="session")
def cover22():
    return standard_cover(2, 2)


@pytest.fixture(scope="session")
def cover23():
    return standard_cover(2, 3)


@pytest.fixture(scope="session")
def cover32():
    return standard_cover(3, 2)


@pytest.fixture(scope="session")
def cover24():
    return standard_cover(2, 4)


# -- drawn cyclic covers shared across modules --------------------------------

def subdivided_surface(g):
    """``surface_ribbon(g)`` with a_1 split in two at a new vertex: 2 vertices.

    Edge 0 now runs from the old vertex to the new one and edge 2g runs back,
    so the loop a_1 is the path 0 then 2g.
    """
    rot = list(surface_ribbon(g).rotations[0])
    rot[rot.index(1)] = 4 * g + 1  # a_1 now comes home along edge 2g
    return RibbonGraph(2 * g + 1, [rot, [4 * g, 1]])


@st.composite
def voltage_covers(draw, genera=st.integers(1, 3), degrees=st.integers(1, 5),
                   two_vertices=st.booleans()):
    """(R, voltages, m): a connected cover of a one- or two-vertex genus-g graph.

    g, m and the choice of graph are drawn from the given strategies: by
    default g <= 3, m <= 5 and either graph.
    """
    g, m = draw(genera), draw(degrees)
    two_vertex = draw(two_vertices)
    R = subdivided_surface(g) if two_vertex else surface_ribbon(g)
    volts = [draw(st.integers(0, m - 1)) for _ in range(R.n_edges)]
    # the loop voltages must generate Z/m; a_1 is edge 0, then edge 2g if subdivided
    a_1 = volts[0] + (volts[2 * g] if two_vertex else 0)
    if gcd(m, a_1, *volts[1:2 * g]) != 1:
        volts[0] = (volts[0] + 1 - a_1) % m  # a_1 now has loop voltage 1
    return R, volts, m


# -- oracles: serialization through Fractions and the json module -----------

def frac_to_str(x):
    """The schema string of an exact number, through its ``Fraction``."""
    # an int or a Fraction already prints as "n" or "n/d"; a bool does not
    return str(x) if type(x) is int or type(x) is Fraction else str(Fraction(x))


def json_canonical(obj):
    """The canonical dump as the json module writes it, with a trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


# -- oracle: elimination on Fraction entries ---------------------------------

def fraction_rref(M):
    """(rows, pivots) of the reduced row echelon form, eliminating on Fractions.

    The textbook Gauss–Jordan loop the kernel used before its fraction-free
    rewrite: first nonzero row as pivot, pivot row scaled to 1.
    """
    rows = [list(map(Fraction, row)) for row in M.rows]
    m, n = M.nrows, M.ncols
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
    return tuple(map(tuple, rows)), pivots


def fraction_det(M):
    """Determinant by Gaussian elimination on Fractions, tracking row swaps."""
    n = M.nrows
    rows = [list(map(Fraction, row)) for row in M.rows]
    det = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


# -- oracles: the lattice layer before quotient elements kept coordinates ----

def canonical_basis_oracle(basis):
    """A lattice's canonical basis the way ``Lattice`` built it before.

    Scale to integers with a Mat product, take ``hermite_column_form``, and
    scale back with a second product.
    """
    d = basis.den
    scaled = basis * d if d != 1 else basis
    H = hermite_column_form(Mat(scaled.rows, ncols=scaled.ncols))
    return H * Fraction(1, d) if d != 1 else H


def congruence_kernel_by_smith(A, d):
    """{c in Z^n : A c ≡ 0 (mod d)} as ``congruence_kernel`` built it before.

    From A's Smith form U A V = D: c = V y solves it iff d_i y_i ≡ 0 (mod d)
    for each i, so V diag(d / gcd(d_i, d)) is a basis (d_i = 0 past the rank).
    """
    _, D, V = smith_normal_form(A)
    scale = [d // gcd(D.rows[i][i] if i < D.nrows else 0, d) for i in range(A.ncols)]
    return V * Mat.diagonal(scale)


def coords_by_gauss_jordan(L, M):
    """``L.coords_matrix(M)`` as it was solved before: ``Mat.solve`` on L's basis."""
    try:
        return L.basis.solve(M)
    except DomainError:
        raise DomainError("columns are not in the span of the lattice")


def preimage_by_smith(M, target):
    """{x : M x in target} as ``preimage_lattice`` built it before, from a Smith form.

    With W the target-basis coordinates of M over its denominator d and
    U (d W) V = D: x = V y lies in the preimage iff d_i y_i / d is an integer
    for each i, so V diag(d / d_i) is a basis; a zero d_i means M is not injective.
    """
    W = target.coords_matrix(M)
    d = W.den
    _, D, V = smith_normal_form(W * d)
    scale = []
    for i in range(M.ncols):
        di = D.rows[i][i] if i < D.nrows else 0
        if di == 0:
            raise DomainError("preimage_lattice requires an injective matrix")
        scale.append(Fraction(d, di))
    return Lattice(M.ncols, V * Mat.diagonal(scale))


def saturate_by_rational_kernel(vectors, L):
    """L ∩ span(vectors), with the annihilator of the span from sympy's ``nullspace``."""
    n = L.ambient_dim
    vecs = [tuple(v) for v in vectors]
    St = sympy.Matrix(len(vecs), n, [sympy.Rational(x) for v in vecs for x in v])
    ann = [[Fraction(int(x.p), int(x.q)) for x in v] for v in St.nullspace()]
    return kernel_lattice(Mat(ann, ncols=n), L)


def snf_order(Q):
    """|Q| as the product of the Smith diagonal of the lower basis in upper coordinates."""
    _, D, _ = smith_normal_form(Q.upper.coords_matrix(Q.lower.basis))
    return prod(D.rows[i][i] for i in range(D.nrows))


def preimage_under_mult(S, m):
    """The preimage [m]^{-1} S of a subgroup S: its upper lattice scaled by 1/m."""
    return FiniteQuotient(S.lower, S.upper.scaled(Fraction(1, m)))


def dual_polarization(P, m):
    """The dual abelian variety (L^dual, m*E) and mu = [m]: L^dual -> L, so lambda∘mu = [m].

    Defined once every d_i | m; the type of the dual is then (m/d_n, ..., m/d_1).
    """
    P_dual = PolarizedLattice(dual_lattice(P), P.form * m)
    mu = LatticeMap(Mat.identity(P.ambient_dim) * m, P_dual.lattice, P.lattice)
    return P_dual, mu


def homology_with_form(R):
    """H_1 of the closed surface of R, as a principal polarized lattice."""
    return _build_homology(R).polarized


def contract_tree_by_splicing(R, tree):
    """The rotation left by contracting the tree edges, one splice per edge.

    Contracting edge e from u to v splices v's rotation, read from after e's
    head dart, into u's rotation in place of e's tail dart.
    """
    rotations = {v: list(rot) for v, rot in enumerate(R.rotations)}
    vertex_of = dict(R.vertex_of)
    for e in sorted(tree):
        u, v = vertex_of[2 * e], vertex_of[2 * e + 1]
        assert u != v, f"tree edge {e} is a loop"
        rot_u, rot_v = rotations[u], rotations[v]
        iu, iv = rot_u.index(2 * e), rot_v.index(2 * e + 1)
        rotations[u] = rot_u[iu + 1:] + rot_u[:iu] + rot_v[iv + 1:] + rot_v[:iv]
        del rotations[v]
        for d in rotations[u]:
            vertex_of[d] = u
    assert len(rotations) == 1, "the tree does not span"
    return next(iter(rotations.values()))


def derived_graph_is_connected(R, volts, m):
    """Whether the Z/m derived graph of R is connected, by BFS over (vertex, sheet).

    Edge e joins (tail e, s) to (head e, s + volts[e]) on every sheet s.
    """
    adjacent = {(v, s): [] for v in range(R.n_vertices) for s in range(m)}
    for e in range(R.n_edges):
        tail, head = R.vertex_of[2 * e], R.vertex_of[2 * e + 1]
        for s in range(m):
            adjacent[tail, s].append((head, (s + volts[e]) % m))
            adjacent[head, (s + volts[e]) % m].append((tail, s))
    seen, queue = {(0, 0)}, [(0, 0)]
    for node in queue:
        for other in adjacent[node]:
            if other not in seen:
                seen.add(other)
                queue.append(other)
    return len(seen) == len(adjacent)


def quotient_elements(Q):
    """All elements of Q, as the combinations of its adapted basis with coefficients in [0, d_i)."""
    W, diag = Q._adapted()
    return [Q.element(W.apply(ks)) for ks in product(*(range(d) for d in diag))]


def pairing_value(p, x, y):
    """The value x^T * form * y of the pairing p on two quotient elements, in [0, 1)."""
    raw = Fraction(sum(a * b for a, b in zip(x.rep, p.form.apply(y.rep))))
    return raw - (raw.numerator // raw.denominator)


def same_span_by_rank(L, M):
    """Whether L and M span one subspace: rank L = rank M = rank [L | M], by sympy."""
    if L.ambient_dim != M.ambient_dim:
        return False

    def rank(B):
        entries = [sympy.Rational(x) for row in B.rows for x in row]
        return sympy.Matrix(B.nrows, B.ncols, entries).rank()

    return rank(L.basis) == rank(M.basis) == rank(L.basis.hstack(M.basis))


def quotient_exponent(Q):
    """The exponent of Q: its last invariant, or 1 for the trivial group."""
    return Q.invariants[-1] if Q.invariants else 1


class OracleElement:
    """A quotient element stored by its canonical representative only.

    Membership is an upper solve, the representative comes from a lower
    solve, and every operation works on representatives and solves again.
    """

    def __init__(self, Q, vector):
        vector = tuple(vector)
        if not Q.upper.contains_vector(vector):
            raise DomainError("representative does not lie in the upper lattice")
        self.Q = Q
        self.rep = Q.lower.basis.apply([c % 1 for c in Q.lower.coords_of(vector)])

    def __add__(self, other):
        return OracleElement(self.Q, [a + b for a, b in zip(self.rep, other.rep)])

    def __neg__(self):
        return OracleElement(self.Q, [-a for a in self.rep])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, k):
        return OracleElement(self.Q, [k * a for a in self.rep])

    def order(self):
        coords = self.Q.lower.coords_of(self.rep)
        return lcm(*(Fraction(c).denominator for c in coords)) if coords else 1


# -- oracles: the Smith workspace and chain matrices before index rewrites ---

class _OracleSnfState:
    """The Smith workspace as three arrays, each operation written for a and u or v."""

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

    def eliminate(self):
        t = 0
        while t < min(self.m, self.n):
            best = None
            for i in range(t, self.m):
                for j in range(t, self.n):
                    x = self.a[i][j]
                    if x != 0 and (best is None or abs(x) < best[0]):
                        best = (abs(x), i, j)
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
            if not dirty:
                t += 1

    def row_block(self, i, j, P):
        (p00, p01), (p10, p11) = P
        for x in (self.a, self.u):
            ri, rj = x[i], x[j]
            x[i] = [p00 * a + p01 * b for a, b in zip(ri, rj)]
            x[j] = [p10 * a + p11 * b for a, b in zip(ri, rj)]

    def col_block(self, i, j, Q):
        (q00, q01), (q10, q11) = Q
        for row in self.a + self.v:
            ci, cj = row[i], row[j]
            row[i], row[j] = q00 * ci + q10 * cj, q01 * ci + q11 * cj


def snf_oracle(M):
    """(U, D, V) by the Smith reduction that kept U and V in their own arrays."""
    st = _OracleSnfState(M)
    st.eliminate()
    r = min(st.m, st.n)
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
    return tuple(Mat(a, ncols=n) for a, n in ((st.u, st.m), (st.a, st.n), (st.v, st.n)))


def dense_chain_maps(cov):
    """(sigma, pi_*, pi^*) on homology as ``cyclic_cover`` built them with dense matrices.

    The 0/1 chain matrices on the edge spaces (edge (e, s) is e*m + s) multiply
    the homology representatives, and each column is carried to homology
    coordinates on its own.
    """
    m, E = cov.m, cov.base_graph.n_edges
    total_h, base_h = cov._total_h, cov._base_h
    n = E * m
    sigma_edges = Mat.from_columns(
        [[int(i == e * m + (s + 1) % m) for i in range(n)] for e in range(E) for s in range(m)],
        nrows=n,
    )
    down_edges = Mat.from_columns(
        [[int(i == e) for i in range(E)] for e in range(E) for _ in range(m)], nrows=E
    )
    up_edges = Mat.from_columns([[int(i // m == e) for i in range(n)] for e in range(E)], nrows=n)

    def transport(h, chains):
        cols = []
        for vec in chains.columns():
            coords = tuple(vec[f] for f in h.nontree)
            assert h.fund_cycles.apply(coords) == vec
            cols.append(h.proj.apply(coords))
        return Mat.from_columns(cols, nrows=h.polarized.rank)

    reps, base_reps = total_h.reps, base_h.reps
    return (
        transport(total_h, sigma_edges * reps),
        transport(base_h, down_edges * reps),
        transport(total_h, up_edges * base_reps),
    )


# -- oracle: Smith invariants via determinantal divisors ---------------------

def minor_gcd_invariants(M):
    """Invariant factors of an integer matrix via gcds of k x k minors.

    d_k = gcd of all k x k minors; invariant factors are d_k / d_{k-1}.
    Independent of any elimination strategy.
    """
    m, n = M.nrows, M.ncols
    rank_cap = min(m, n)
    prev = 1
    out = []
    for k in range(1, rank_cap + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = Mat([[M.rows[i][j] for j in cols] for i in rows], ncols=k)
                g = gcd(g, int(sub.det()))
        if g == 0:
            out.extend([0] * (rank_cap - len(out)))
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


# -- oracle: the labels of the cyclic subgroups, one orbit set each ---------

def mti_labels_by_orbits(m):
    """The first (a, b), gcd(a, b, m) = 1, of each cyclic subgroup of order m of (Z/m)^2.

    Builds every subgroup <(a, b)> as a set of its m multiples and keeps a pair
    whose set is new, in lexicographic order: O(m^3).
    """
    out, seen = [], set()
    for a in range(m):
        for b in range(m):
            if gcd(a, b, m) != 1:
                continue
            cyclic = frozenset(((k * a) % m, (k * b) % m) for k in range(m))
            if cyclic not in seen:
                seen.add(cyclic)
                out.append((a, b))
    return out


# -- oracle: the label loop that lifts every coprime label ------------------

def classify_by_lifting_every_label(cov):
    """((a, b), K) for the labels of ker mu_B, deduplicated after lifting.

    Lifts <a xi_bar + b P_1> to a lattice for every (a, b) with
    gcd(a, b, m) = 1 and keeps the first label of each lattice, in the order
    of the loop; it compares lattices, not subgroups of (Z/m)^2.
    """
    Q, _ = ker_mu_of_pair(cov.pair(), cov.m)
    xi_bar, P1, _ = ker_mu_basis(cov)
    m = cov.m
    out, seen = [], set()
    for a in range(m):
        for b in range(m):
            if gcd(gcd(a, b), m) != 1:
                continue
            K = Q.subgroup([a * xi_bar + b * P1])
            if K.upper not in seen:
                seen.add(K.upper)
                out.append(((a, b), K))
    return out


def welters_by_classifying(cov):
    """{"a:b": (exit code, output)} of ``welters`` for every a, b in 0..m-1, by lookup.

    Classifies every label with ``classify_mti_K``, refuses a label it did not
    list, and runs ``welters_construct`` on dict(classified)[label]: the
    output ``cli.run`` gave when ``welters`` looked its label up this way.
    """
    labeled = dict(classify_mti_K(cov))
    _, P1, _ = ker_mu_basis(cov)
    out = {}
    for label in product(range(cov.m), repeat=2):
        key = f"{label[0]}:{label[1]}"
        if label not in labeled:
            message = f"no subgroup labeled {label}; available: {sorted(labeled)}"
            out[key] = (EXIT_VALIDATION, f"invalid input: {message}\n")
            continue
        K = labeled[label]
        w = welters_construct(cov.pair(), K, cov.m)
        out[key] = (EXIT_OK, dumps_canonical({
            "schema": SCHEMA,
            "command": "welters",
            "g": cov.g,
            "m": cov.m,
            "K_label": key,
            "birational": birational_predicate(K, P1),
            "X_dim": w.X.dim,
            "X_type": [str(d) for d in polarization_type(w.X)],
            "certificate": welters_report(w),
        }))
    return out


# -- oracles: ker mu_B questions answered with lattices ----------------------

def birational_by_membership(K, P1):
    """Whether l * P_1 lies outside K for every l = 1, ..., m-1: m - 1 membership tests."""
    m = P1.order()
    return not any(ell * P1 in K for ell in range(1, m))


def order_modulo_by_coordinates(K, x):
    """The order of x modulo K as ``covers`` read it off K's private coordinates."""
    return lcm(*(Fraction(a).denominator for a in K._coords.apply(x.c)))


def kernel_identification_by_lattices(cov, K):
    """(ok, identified_order) as ``verify_kernel_identification`` computed it before.

    K + <P_1> is lifted for every K, its index over K is a quotient of two
    orders, each transfer preimage and [m]^{-1}<eta> are built on every call,
    and the birational branch asks ``birational_by_membership`` at every m.
    """
    m, g = cov.m, cov.g
    lam0 = cov.base.lattice
    _, P1, _ = ker_mu_basis(cov)
    Q, _ = ker_mu_of_pair(cov.pair(), m)

    direct = FiniteQuotient(lam0, preimage_lattice(cov.transfer.matrix, K.upper))
    pushedK = Lattice(lam0.ambient_dim, cov.pushforward.matrix * K.upper.basis)
    via_norm = preimage_under_mult(FiniteQuotient(lam0, lattice_sum(lam0, pushedK)), m)
    K_sat = Q.subgroup(K.upper.basis.columns() + [P1])
    saturated = FiniteQuotient(lam0, preimage_lattice(cov.transfer.matrix, K_sat.upper))

    ok = (
        direct.order == m ** (2 * g)
        and via_norm.upper == saturated.upper
        and via_norm.upper.contains_lattice(direct.upper)
        and via_norm.order == direct.order * (K_sat.order // K.order)
    )
    if ok and P1 in K:
        ok = via_norm.upper == direct.upper
    if ok and birational_by_membership(K, P1):
        eta_group = FiniteQuotient(
            lam0,
            lattice_sum(lam0, Lattice.from_generators(lam0.ambient_dim, [eta_class(cov).rep])),
        )
        ok = via_norm.upper == preimage_under_mult(eta_group, m).upper
        ok = ok and via_norm.order == m ** (2 * g) * m
    return ok, via_norm.order


def orthogonal_by_triple_product(S, p):
    """S^perp in p.quotient, forming upper^T * form * S.upper on every call."""
    Q = p.quotient
    C = Q.upper.basis.T * p.form * S.upper.basis
    d = C.den
    K = congruence_kernel((C * d).T, d)
    return FiniteQuotient(Q.lower, Lattice(Q.lower.ambient_dim, Q.upper.basis * K))


def projection_by_block_inverse(pair):
    """pr_B as [0 | B] [A | B]^-1: the whole n x n block [A | B] inverted."""
    A, B = pair.sub_A.basis, pair.sub_B.basis
    return Mat.zero(B.nrows, A.ncols).hstack(B) * A.hstack(B).inverse()


def power_and_sum_by_steps(M, m):
    """(M^m, sum of M^i over i < m) by m - 1 products and m - 1 sums."""
    power, total = M, Mat.identity(M.nrows)
    for _ in range(m - 1):
        total = total + power
        power = power * M
    return power, total


# -- oracle: finite abelian group as explicit element tuples -----------------

class GroupTable:
    """A finite abelian group as tuples modulo a diagonal, for brute force."""

    def __init__(self, diag):
        self.diag = tuple(int(d) for d in diag)

    def elements(self):
        from itertools import product

        return [tuple(t) for t in product(*(range(d) for d in self.diag))]

    def add(self, x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, self.diag))

    def close(self, gens):
        zero = tuple(0 for _ in self.diag)
        seen = {zero}
        frontier = [zero]
        gens = [tuple(g) for g in gens]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.add(x, g)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)

    def all_subgroups(self):
        """Closure BFS: repeatedly extend known subgroups by single elements.

        S + <x> is the union of the cosets S + kx, k = 0, 1, ... until kx lies in S.
        """
        elements = self.elements()
        trivial = self.close([])
        found = {trivial}
        frontier = [trivial]
        while frontier:
            S = frontier.pop()
            for x in elements:
                if x not in S:
                    T, kx = set(S), x
                    while kx not in S:
                        T.update(self.add(s, kx) for s in S)
                        kx = self.add(kx, x)
                    T = frozenset(T)
                    if T not in found:
                        found.add(T)
                        frontier.append(T)
        return found


def quotient_as_table(Q):
    """(GroupTable, element-of map) for a FiniteQuotient, via its SNF basis."""
    W, diag = Q._adapted()
    table = GroupTable(diag)

    def to_tuple(elt):
        coords = W.solve(Mat.column(elt.rep)).column_vector()
        return tuple(int(Fraction(c)) % d for c, d in zip(coords, diag))

    return table, to_tuple


def pairing_table(Q, p):
    """The pairing on GroupTable coordinates, as exact fractions in [0,1)."""
    W, diag = Q._adapted()

    def value(xt, yt):
        xv = W.apply(xt)
        yv = W.apply(yt)
        raw = Fraction(sum(a * b for a, b in zip(xv, p.form.apply(yv))))
        return raw - (raw.numerator // raw.denominator)

    return value


def brute_force_mti(Q, p):
    """All maximal totally isotropic subgroups, as frozensets of tuples.

    Isotropy by pairwise evaluation over all element pairs; maximality by
    attempted extension with every outside element.
    """
    table, _ = quotient_as_table(Q)
    value = pairing_table(Q, p)
    subgroups = table.all_subgroups()
    isotropic = [
        S for S in subgroups if all(value(x, y) == 0 for x in S for y in S)
    ]
    iso_set = set(isotropic)
    out = []
    for S in isotropic:
        extendable = any(
            x not in S and all(value(x, s) == 0 for s in S)
            for x in table.elements()
        )
        if not extendable:
            out.append(S)
    assert all(S in iso_set for S in out)
    return set(out)


# -- oracle: the subgroup generator before the column-by-column search -------

def intermediate_normal_forms(diag):
    """All canonical lower-triangular bases H of lattices between diag(Z) and Z^k.

    H has positive diagonal h_j | d_j, entries H[j][i] in [0, h_j) for i < j,
    and diag(d) Z^k ⊆ H Z^k (checked by exact forward substitution).  Each
    intermediate lattice has exactly one such H, yielded as a tuple of rows.
    Rows are filled top to bottom, and nothing is pruned before a whole H.
    """
    k = len(diag)
    rows = [[0] * k for _ in range(k)]
    # partial[t][j] = coefficient c_j in H c = d_t e_t, built row by row
    partial = [[0] * k for _ in range(k)]

    def recurse(j):
        if j == k:
            yield tuple(map(tuple, rows))
            return
        for h in (h for h in range(1, diag[j] + 1) if diag[j] % h == 0):
            for offs in product(*(range(h) for _ in range(j))):
                coeffs = []
                for t in range(k):
                    num = (diag[j] if t == j else 0) - sum(
                        offs[i] * partial[t][i] for i in range(j)
                    )
                    if num % h != 0:
                        break
                    coeffs.append(num // h)
                else:
                    rows[j][:j], rows[j][j:] = offs, [h] + [0] * (k - j - 1)
                    for t in range(k):
                        partial[t][j] = coeffs[t]
                    yield from recurse(j + 1)

    yield from recurse(0)


def generator_enumerate(Q, p=None):
    """Subgroups of Q, or with a pairing p the m.t.i. ones, by generate-then-filter.

    Every intermediate H of ``intermediate_normal_forms`` on the d > 1
    columns of Q's adapted basis is visited; with p, one is kept iff
    |S|^2 = |Q| |R| (R the radical) and H^T G H is integral, G the pairing
    on those columns.  Same canonical order as the library.
    """
    W, diag = Q._adapted()
    nontrivial = [i for i, d in enumerate(diag) if d > 1]
    Wsub = W.take_columns(nontrivial)
    sub_diag = [diag[i] for i in nontrivial]
    k, full = len(sub_diag), prod(sub_diag)
    trivial_cols = [W.col(i) for i, d in enumerate(diag) if d == 1]
    if p is not None:
        target = Q.order * orthogonal_subgroup(Q, p).order
        G = Wsub.T * p.form * Wsub
    out = []
    for h in intermediate_normal_forms(sub_diag):
        H = Mat(h, ncols=k)
        if p is not None:
            order = full // prod(h[j][j] for j in range(k))
            if order * order != target or not (H.T * G * H).is_integral():
                continue
        gens = (Wsub * H).columns() + trivial_cols
        M = Lattice.from_generators(Q.lower.ambient_dim, gens) if gens else Q.lower
        out.append(FiniteQuotient(Q.lower, M))
    out.sort(key=lambda S: (S.order, S.upper.basis.rows))
    return out


def mti_by_orthogonal(S, p):
    """Whether S is maximal totally isotropic: S isotropic and S^perp ⊆ S.

    For an alternating pairing, an isotropic S with S^perp ⊆ S equals its own
    orthogonal, and no isotropic subgroup properly contains such an S.
    """
    return is_isotropic(S, p) and S.upper.contains_lattice(orthogonal_subgroup(S, p).upper)


def filtered_mti(Q, p):
    """Maximal totally isotropic subgroups by enumerate-then-filter.

    Every subgroup is built as a FiniteQuotient and kept if
    ``mti_by_orthogonal`` holds, in the canonical order of ``enumerate_subgroups``.
    """
    return [S for S in enumerate_subgroups(Q) if mti_by_orthogonal(S, p)]


def library_subgroup_as_set(S, Q):
    """A library subgroup (FiniteQuotient) as a frozenset of oracle tuples."""
    _, to_tuple = quotient_as_table(Q)
    return frozenset(to_tuple(e) for e in S_elements(S, Q))


def S_elements(S, Q):
    """Elements of the subgroup S inside Q, as QuotientElements of Q."""
    W, diag = S._adapted()
    from itertools import product

    out = []
    for ks in product(*(range(d) for d in diag)):
        out.append(Q.element(W.apply(ks)))
    return out
