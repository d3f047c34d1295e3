"""Cyclic unramified covers of surfaces, built combinatorially.

A closed oriented surface is modeled by a ribbon graph (a graph with cyclic
orderings of the half-edge darts at each vertex); its first homology carries
the intersection form, computed exactly by contracting a spanning tree to a
single vertex and counting signed chord crossings in the merged rotation.

A Z/m voltage assignment on the edges produces the derived covering graph
with its lifted ribbon structure, hence the homology of an m-fold cyclic
unramified cover together with the deck action, the norm (pushforward) and
the transfer.  Edge (e, s) of the derived graph is edge e*m + s, and the chain
maps act on the edge-space rows of the homology representatives by index:
the deck action sigma takes row (e, s-1) for edge (e, s), pi_* sums the m
rows of edge e, and pi^* copies row e to every (e, s).

The classical facts about such covers -- the Prym pair, the component group
of the norm kernel, the torsion class attached to the cover, the
classification of maximal isotropic subgroups of ker mu and the birationality
predicate -- are all certified here by exact lattice computations rather
than assumed.
"""

from fractions import Fraction
from math import gcd

from .comppair import _kept, complement, ker_mu_of_pair, orthogonal_projection
from .errors import BudgetError, DomainError, _Immutable, certify
from .finquot import FiniteQuotient, enumerate_mti, is_maximal_isotropic
from .lattice import Lattice, kernel_lattice, preimage_lattice, saturate
from .matrix import Mat, smith_normal_form
from .pollat import LatticeMap, PolarizedLattice, polarization_type

__all__ = [
    "RibbonGraph",
    "VoltageAssignment",
    "CoverHomology",
    "surface_ribbon",
    "homology_with_form",
    "cyclic_cover",
    "standard_cover",
    "prym_sublattice",
    "norm_component_group",
    "eta_class",
    "ker_mu_basis",
    "mti_labels",
    "lift_mti_label",
    "classify_mti_K",
    "birational_predicate",
    "verify_kernel_identification",
]

MAX_COVER_EDGES = 128  # edges of a derived graph; (g, m) = (4, 16) builds in about 1 s, (2, 32) in 0.4 s
MAX_CENSUS_GENUS = 32  # genus of a quotient census; the g = 32, m = 1 census takes about 0.3 s


def _check_cover_size(m, n_edges):
    """BudgetError unless a degree-m cover of n_edges base edges is small enough."""
    if m * n_edges > MAX_COVER_EDGES:
        raise BudgetError(f"a degree-{m} cover has more than {MAX_COVER_EDGES} edges")


class RibbonGraph(_Immutable):
    """A graph with a rotation system: edge e has darts 2e (tail), 2e+1 (head).

    ``rotations`` is one tuple of darts per vertex, in counterclockwise order;
    together they partition all darts.  Faces are the orbits of the
    next-along-boundary permutation d -> rotation-successor(partner(d)).
    """

    __slots__ = ("n_edges", "rotations", "vertex_of", "successor")

    def __init__(self, n_edges, rotations):
        rotations = tuple(tuple(r) for r in rotations)
        darts = [d for rot in rotations for d in rot]
        if type(n_edges) is not int or any(type(d) is not int for d in darts):
            raise DomainError("the edge count and the darts must be ints")
        if len(darts) != 2 * n_edges or sorted(darts) != list(range(2 * n_edges)):
            raise DomainError("rotations must partition the darts 0..2E-1")
        vertex_of, successor = {}, {}
        for v, rot in enumerate(rotations):
            for i, d in enumerate(rot):
                vertex_of[d] = v
                successor[d] = rot[(i + 1) % len(rot)]
        object.__setattr__(self, "n_edges", n_edges)
        object.__setattr__(self, "rotations", rotations)
        object.__setattr__(self, "vertex_of", vertex_of)
        object.__setattr__(self, "successor", successor)

    @property
    def n_vertices(self):
        return len(self.rotations)

    @property
    def n_darts(self):
        return 2 * self.n_edges

    @staticmethod
    def partner(d):
        return d ^ 1

    def tail_vertex(self, e):
        return self.vertex_of[2 * e]

    def head_vertex(self, e):
        return self.vertex_of[2 * e + 1]

    def rotation_successor(self, d):
        return self.successor[d]

    def faces(self):
        """Face boundaries as dart orbits of d -> successor(partner(d))."""
        seen = set()
        out = []
        for start in range(self.n_darts):
            if start in seen:
                continue
            orbit = []
            d = start
            while d not in seen:
                seen.add(d)
                orbit.append(d)
                d = self.rotation_successor(self.partner(d))
            out.append(tuple(orbit))
        return out

    def face_vectors(self):
        """Each face boundary as an edge-space vector (+tail dart, -head dart)."""
        vecs = []
        for orbit in self.faces():
            v = [0] * self.n_edges
            for d in orbit:
                v[d // 2] += 1 if d % 2 == 0 else -1
            vecs.append(tuple(v))
        return vecs

    def euler_characteristic(self):
        return self.n_vertices - self.n_edges + len(self.faces())

    def genus(self):
        chi = self.euler_characteristic()
        if chi % 2 != 0 or chi > 2:
            raise DomainError("rotation system does not define a closed surface")
        return (2 - chi) // 2

    def is_connected(self):
        if self.n_vertices == 0:
            return False
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for d in self.rotations[v]:
                w = self.vertex_of[self.partner(d)]
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n_vertices


class VoltageAssignment(_Immutable):
    """A Z/m value per edge; reversing an edge negates its voltage."""

    __slots__ = ("modulus", "values")

    def __init__(self, modulus, values):
        if type(modulus) is not int or modulus < 1:
            raise DomainError("voltage modulus must be an int >= 1")
        values = tuple(values)
        if any(type(v) is not int for v in values):
            raise DomainError("voltages must be ints")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "values", tuple(v % modulus for v in values))


def surface_ribbon(g):
    """The one-vertex ribbon graph of a genus-g surface.

    Edges a_1, b_1, ..., a_g, b_g (a_i = edge 2i, b_i = edge 2i+1) with the
    rotation (a_i tail, b_i tail, a_i head, b_i head) per handle; this yields
    a single face whose boundary word is the product of commutators, so the
    filled surface is closed of genus g.
    """
    if g < 1:
        raise DomainError("surface_ribbon needs genus >= 1")
    rot = []
    for i in range(g):
        a, b = 2 * i, 2 * i + 1
        rot.extend([2 * a, 2 * b, 2 * a + 1, 2 * b + 1])
    R = RibbonGraph(2 * g, [rot])
    ok = len(R.faces()) == 1 and R.genus() == g
    certify("standard surface rotation", {"surface-ribbon": ok})
    return R


class _Homology(_Immutable):
    """First homology of the filled surface of a ribbon graph.

    Carries the chosen cycle section and the projection from graph cycles to
    homology coordinates, so chain-level maps (deck actions, pushforwards,
    transfers) can be transported to H_1 exactly.
    """

    __slots__ = ("graph", "polarized", "fund_cycles", "nontree", "proj", "section")

    def __init__(self, graph, polarized, fund_cycles, nontree, proj, section):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "polarized", polarized)
        object.__setattr__(self, "fund_cycles", fund_cycles)
        object.__setattr__(self, "nontree", nontree)
        object.__setattr__(self, "proj", proj)
        object.__setattr__(self, "section", section)

    def to_homology(self, rows):
        """Homology columns of the 1-cycles that are the columns of ``rows``.

        ``rows`` is one row per edge of the graph (an edge-space matrix).
        """
        cycles = Mat(rows)
        coords = Mat([rows[f] for f in self.nontree], ncols=cycles.ncols)
        if self.fund_cycles * coords != cycles:
            raise DomainError("edge vector is not a cycle of the graph")
        return self.proj * coords

    def homology_to_edges(self):
        """Representative edge vectors (columns) of the homology basis."""
        return self.fund_cycles * self.section


def _spanning_tree(R):
    """BFS spanning tree from vertex 0: (tree edge set, chains).

    chains[v] is the tree path from v to the root as an edge vector: the chain
    of v's BFS parent plus or minus the edge that reached v.
    """
    chains = {0: (0,) * R.n_edges}
    tree = set()
    queue = [0] if R.n_vertices else []
    for v in queue:
        for d in R.rotations[v]:
            w = R.vertex_of[R.partner(d)]
            if w not in chains:
                e = d // 2
                # the step w -> v runs against e's orientation when w is its head
                up = list(chains[v])
                up[e] += -1 if d % 2 == 0 else 1
                chains[w] = tuple(up)
                tree.add(e)
                queue.append(w)
    # a graph with no vertex keeps the root's chain, so it fails this count too
    if len(chains) != R.n_vertices:
        raise DomainError("ribbon graph is not connected")
    return tree, chains


def _contract_tree(R, tree):
    """Contract the tree edges; returns the merged rotation (list of darts)."""
    rotations = {v: list(rot) for v, rot in enumerate(R.rotations)}
    vertex_of = dict(R.vertex_of)
    for e in sorted(tree):
        d_t, d_h = 2 * e, 2 * e + 1
        u, v = vertex_of[d_t], vertex_of[d_h]
        certify("tree edge contraction", {"tree-contract": u != v})
        rot_u, rot_v = rotations[u], rotations[v]
        iu, iv = rot_u.index(d_t), rot_v.index(d_h)
        merged = rot_u[iu + 1:] + rot_u[:iu] + rot_v[iv + 1:] + rot_v[:iv]
        rotations[u] = merged
        del rotations[v]
        for d in merged:
            vertex_of[d] = u
    certify("tree contraction to one vertex", {"tree-contract": len(rotations) == 1})
    return next(iter(rotations.values()))


def _chord_sign(pos, n, f, g):
    """Signed crossing of the oriented chords of loops f and g.

    Loop e enters the merged vertex disk at its head dart and leaves at its
    tail dart; two chords cross iff their endpoints interleave, with sign +1
    when the order around the disk is (f in, g in, f out, g out).
    """
    in_f, out_f = pos[2 * f + 1], pos[2 * f]
    in_g, out_g = pos[2 * g + 1], pos[2 * g]
    t_out = (out_f - in_f) % n
    t_gin = (in_g - in_f) % n
    t_gout = (out_g - in_f) % n
    if t_gin < t_out < t_gout:
        return 1
    if t_gout < t_out < t_gin:
        return -1
    return 0


def homology_with_form(R):
    """H_1 of the closed surface of R, as a principal polarized lattice."""
    return _build_homology(R).polarized


def _build_homology(R):
    tree, chains = _spanning_tree(R)
    nontree = [e for e in range(R.n_edges) if e not in tree]

    cycles = []
    for f in nontree:
        vec = [0] * R.n_edges
        vec[f] = 1
        head = R.head_vertex(f)
        tail = R.tail_vertex(f)
        for e, c in enumerate(chains[head]):
            vec[e] += c
        for e, c in enumerate(chains[tail]):
            vec[e] -= c
        cycles.append(tuple(vec))
    L = len(nontree)
    fund_cycles = Mat.from_columns(cycles, nrows=R.n_edges)

    merged_rot = _contract_tree(R, tree)
    pos = {d: i for i, d in enumerate(merged_rot)}
    n_pos = len(merged_rot)
    gram = Mat(
        [
            [
                0 if fi == gi else _chord_sign(pos, n_pos, nontree[fi], nontree[gi])
                for gi in range(L)
            ]
            for fi in range(L)
        ],
        ncols=L,
    )

    faces = R.face_vectors()
    face_coords = Mat.from_columns(
        [tuple(fv[e] for e in nontree) for fv in faces], nrows=L
    )
    # faces are cycles and lie in the radical of the chord pairing
    certify("face boundaries", {
        "face-cycle": all(
            fund_cycles.apply(face_coords.col(k)) == tuple(fv) for k, fv in enumerate(faces)
        ),
        "face-radical": (gram * face_coords).is_zero(),
    })

    U, D, _ = smith_normal_form(face_coords)
    r = sum(1 for i in range(min(D.nrows, D.ncols)) if D.rows[i][i] != 0)
    certify("face relation lattice", {
        "face-rank": r == len(faces) - 1,
        "face-saturated": all(D.rows[i][i] == 1 for i in range(r)),
    })
    h = L - r
    certify("homology rank = 2 * genus", {"h1-rank": h == 2 * R.genus()})

    Uinv = U.inverse()
    proj = Mat(U.rows[r:], ncols=L) if h else Mat.zero(0, L)
    section = Uinv.take_columns(range(r, L))

    form = section.T * gram * section
    P = PolarizedLattice(Lattice.standard(h), form)
    certify("unimodular intersection form", {"h1-principal": polarization_type(P).is_principal})
    return _Homology(R, P, fund_cycles, nontree, proj, section)


class CoverHomology(_Immutable):
    """Homology data of an m-fold cyclic unramified cover N -> N0.

    Bundles the base and total principal lattices, the deck action on H_1 of
    the total space, the pushforward (norm) and the transfer, plus the
    combinatorial input needed to rebuild everything from scratch.
    ``certificate`` maps each identity ``cyclic_cover`` checked to its result.
    """

    __slots__ = (
        "base_graph", "voltages", "m", "g", "cover_graph",
        "base", "total", "sigma", "pushforward", "transfer", "certificate",
        "_base_h", "_total_h", "_cache",
    )

    def __init__(self, base_graph, voltages, m, cover_graph,
                 base_h, total_h, sigma, pushforward, transfer, certificate):
        object.__setattr__(self, "base_graph", base_graph)
        object.__setattr__(self, "voltages", voltages)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "g", base_graph.genus())
        object.__setattr__(self, "cover_graph", cover_graph)
        object.__setattr__(self, "base", base_h.polarized)
        object.__setattr__(self, "total", total_h.polarized)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "pushforward", pushforward)
        object.__setattr__(self, "transfer", transfer)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "_base_h", base_h)
        object.__setattr__(self, "_total_h", total_h)
        object.__setattr__(self, "_cache", {})

    @property
    def cover_genus(self):
        return self.total.dim

    def prym_sublattice(self):
        return prym_sublattice(self)

    @_kept
    def pair(self):
        """The complementary pair (A = Prym, B = transfer image) in the total."""
        return complement(self.total, prym_sublattice(self)[1])

    def voltage_functional(self):
        """The monodromy functional on base homology (Z/m valued on H_1)."""
        reps = self._base_h.homology_to_edges()
        w_edges = Mat([self.voltages.values], ncols=self.base_graph.n_edges)
        return w_edges * reps

    def __repr__(self):
        return f"CoverHomology(g={self.g}, m={self.m}, cover_genus={self.cover_genus})"


def cyclic_cover(R, voltages, m):
    """The derived m-sheeted cover of the ribbon graph R, fully certified.

    Voltages must generate Z/m (connected cover) and every face must have
    zero total voltage (unramified cover of closed surfaces).  The returned
    CoverHomology carries exact matrices for the deck action sigma, the
    pushforward pi_* and the transfer pi^*, certified to satisfy
    sigma symplectic, sigma^m = 1, pi_* pi^* = m, pi^* pi_* = sum sigma^i,
    and E_N(pi^* x, pi^* y) = m E_0(x, y); the cover genus is mg - m + 1.
    """
    if isinstance(voltages, (list, tuple)):
        voltages = VoltageAssignment(m, voltages)
    if voltages.modulus != m:
        raise DomainError("voltage modulus disagrees with the cover degree")
    if type(m) is not int or m < 1:
        raise DomainError("cover degree must be an int >= 1")
    if len(voltages.values) != R.n_edges:
        raise DomainError("one voltage per edge required")
    _check_cover_size(m, R.n_edges)

    for orbit in R.faces():
        total = sum(
            voltages.values[d // 2] * (1 if d % 2 == 0 else -1) for d in orbit
        )
        if total % m != 0:
            raise DomainError(
                "face has nonzero total voltage: the cover would be ramified"
            )

    base_h = _build_homology(R)
    g = R.genus()

    # Derived graph: edge (e, s) runs from (tail(e), s) to (head(e), s + v(e)).
    E, V = R.n_edges, R.n_vertices
    rotations = []
    for v in range(V):
        for s in range(m):
            rot = []
            for d in R.rotations[v]:
                e = d // 2
                if d % 2 == 0:
                    rot.append(2 * (e * m + s))
                else:
                    rot.append(2 * (e * m + (s - voltages.values[e]) % m) + 1)
            rotations.append(rot)
    cover = RibbonGraph(E * m, rotations)
    if not cover.is_connected():
        raise DomainError("voltages do not generate Z/m: the cover is disconnected")

    total_h = _build_homology(cover)
    g_cover = cover.genus()
    genus_ok = g_cover == m * g - m + 1
    certify(f"cover genus {g_cover} = mg-m+1 = {m * g - m + 1}", {"cover-genus": genus_ok})

    # Chain maps on the edge-space rows of the homology representatives.
    reps = total_h.homology_to_edges().rows
    base_reps = base_h.homology_to_edges().rows
    sigma_mat = total_h.to_homology([reps[e * m + (s - 1) % m] for e in range(E) for s in range(m)])
    push_mat = base_h.to_homology([tuple(map(sum, zip(*reps[e * m:e * m + m]))) for e in range(E)])
    transfer_mat = total_h.to_homology([base_reps[e] for e in range(E) for _ in range(m)])

    lam_total = total_h.polarized.lattice
    lam_base = base_h.polarized.lattice
    sigma = LatticeMap(sigma_mat, lam_total, lam_total)
    pushforward = LatticeMap(push_mat, lam_total, lam_base)
    transfer = LatticeMap(transfer_mat, lam_base, lam_total)

    EN, E0 = total_h.polarized.form, base_h.polarized.form
    power, sum_sigma = _power_and_sum(sigma_mat, m)
    checks = {
        "cover-genus": genus_ok,
        "sigma-symplectic": sigma_mat.T * EN * sigma_mat == EN,
        "sigma-order-m": power == Mat.identity(lam_total.ambient_dim),
    }
    if m > 1 and 2 * (m * g - m + 1 - g) > 0:
        checks["sigma-nontrivial"] = sigma_mat != Mat.identity(lam_total.ambient_dim)
    checks["pushforward-transfer-m"] = push_mat * transfer_mat == Mat.identity(lam_base.ambient_dim) * m
    checks["transfer-pushforward-sum-sigma"] = transfer_mat * push_mat == sum_sigma
    checks["transfer-multiplies-form"] = transfer_mat.T * EN * transfer_mat == E0 * m
    return CoverHomology(
        R, voltages, m, cover, base_h, total_h, sigma, pushforward, transfer,
        certify("cover certification", checks),
    )


def _power_and_sum(M, m):
    """(M^m, sum of M^i over 0 <= i < m) for m >= 1, by doubling along the bits of m."""
    power, total = M, Mat.identity(M.nrows)  # M^k and sum_{i<k} M^i, for k = 1
    for bit in bin(m)[3:]:
        total = total + power * total  # k -> 2k
        power = power * power
        if bit == "1":  # k -> k + 1
            total = total + power
            power = power * M
    return power, total


def standard_cover(g, m):
    """The fixture cover: voltage 1 on a_1, zero elsewhere."""
    _check_cover_size(m, 2 * g)
    R = surface_ribbon(g)
    volts = [0] * R.n_edges
    if m > 1:
        volts[0] = 1
    return cyclic_cover(R, VoltageAssignment(m, volts), m)


def prym_sublattice(cov):
    """(sub_A, sub_B): the saturated kernel of the norm and the transfer image."""
    lam = cov.total.lattice
    sub_A = kernel_lattice(cov.pushforward.matrix, lam)
    image = cov.transfer.matrix * cov.base.lattice.basis
    sub_B = saturate(
        [image.col(j) for j in range(image.ncols)], lam
    )
    return sub_A, sub_B


@_kept
def norm_component_group(cov):
    """pi_0 of the kernel of the norm map, with the component index.

    Returns (base/pi_*(total) as a FiniteQuotient, component_index) where
    component_index maps a rational point x of ker Nm (pi_* x integral) to
    its component label in Z/m via the voltage functional.
    """
    pushed = Lattice(cov.base.ambient_dim, cov.pushforward.matrix * cov.total.lattice.basis)
    group = FiniteQuotient(pushed, cov.base.lattice)
    certify(f"component group order {group.order} = m = {cov.m}", {
        "component-group-order": group.order == cov.m,
    })
    w = cov.voltage_functional()

    def component_index(x):
        y = cov.pushforward.matrix.apply(tuple(x))
        if not cov.base.lattice.contains_vector(y):
            raise DomainError("point is not in the kernel of the norm map")
        val = sum(a * b for a, b in zip(w.rows[0], y))
        return int(val) % cov.m

    return group, component_index


@_kept
def eta_class(cov):
    """The m-torsion class of the base attached to the cover: ker pi^*.

    Computes (pi^*)^{-1}(Lambda_N) / Lambda_0, certifies it cyclic of order
    m, and returns a deterministic generator.
    """
    if cov.m < 2:
        raise DomainError("eta is defined for covers of degree >= 2")
    Q = FiniteQuotient(cov.base.lattice, _transfer_preimage(cov, cov.total.lattice))
    eta = _cyclic_generator(
        Q, cov.m, "ker pi^* = {Q!r} cyclic of order {m}", "ker-transfer-cyclic"
    )
    certify("eta of order m", {"eta-order": eta.order() == cov.m})
    return eta


def _cyclic_generator(Q, m, what, failure):
    """A generator of Q, certified cyclic of order m as ``what.format(Q=Q, m=m)``."""
    certify(what.format(Q=Q, m=m), {failure: Q.order == m and len(Q.invariants) == 1})
    W, diag = Q._adapted()
    return Q.element(W.col(diag.index(m)))


@_kept
def ker_mu_basis(cov):
    """Generators (xi_bar, P_1) of ker mu_B, certified to span (Z/m)^2.

    xi is a deterministic rational solution of Nm(xi) = eta; xi_bar is its
    image in B-hat = span(B)/pr_B(Lambda).  P_1 is the generator of
    ker(Nm-bar) whose component index is 1.
    """
    if cov.m < 2:
        raise DomainError("ker mu basis needs a cover of degree >= 2")
    m = cov.m
    Q, _ = ker_mu_of_pair(cov.pair(), m)
    pr_B = orthogonal_projection(cov.pair())

    eta = eta_class(cov)
    xi = cov.pushforward.matrix.solve(Mat.column(eta.rep)).column_vector()
    xi_bar = Q.element(pr_B.apply(xi))

    # ker(Nm-bar) inside B-hat: {y in span B : pi_* y integral} / dual(B)
    dualB = Q.lower
    WB = dualB.basis
    pushed = cov.pushforward.matrix * WB
    c_lattice = preimage_lattice(pushed, cov.base.lattice)
    ker_nm_bar = FiniteQuotient(dualB, Lattice(dualB.ambient_dim, WB * c_lattice.basis))
    gen = _cyclic_generator(
        ker_nm_bar, m, "ker Nm-bar = {Q!r} cyclic of order m", "ker-nmbar-cyclic"
    )

    _, component_index = norm_component_group(cov)
    c = component_index(gen.rep)
    certify("unit component index of the generator", {"p1-index": gcd(c, m) == 1})
    P1 = Q.element((pow(c, -1, m) * gen).rep)

    checks = certify("ker mu basis certification", {
        "ker-mu-order": Q.order == m * m,
        "ker-mu-invariants": Q.invariants == (m, m),
        "xi-order": xi_bar.order() == m,
        "p1-order": P1.order() == m,
        "generate": Q.subgroup([xi_bar, P1]).upper == Q.upper,
        "p1-in-ker-nmbar": ker_nm_bar.upper.contains_vector(P1.rep),
    })
    return xi_bar, P1, checks


def mti_labels(m):
    """The first (a, b), gcd(a, b, m) = 1, of each cyclic subgroup of order m of (Z/m)^2."""
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


def lift_mti_label(cov, a, b):
    """K = <a xi_bar + b P_1> in ker mu_B, certified maximal totally isotropic."""
    Q, p = ker_mu_of_pair(cov.pair(), cov.m)
    xi_bar, P1, _ = ker_mu_basis(cov)
    K = Q.subgroup([a * xi_bar + b * P1])
    certify(f"<{a} xi + {b} P1> m.t.i. certification", {
        "classify-mti": is_maximal_isotropic(K, p),
    })
    return K


def classify_mti_K(cov):
    """((a, b), K) for each label of ``mti_labels(m)``: one K per cyclic subgroup of (Z/m)^2.

    (xi_bar, P_1) is a basis of (Z/m)^2.  At every m the list is exactly the
    cyclic maximal isotropic subgroups of ker mu_B (those with one invariant),
    cross-checked against exhaustive enumeration; the other sigma(m) - psi(m)
    are never birational, since K + <P_1> = ker mu_B forces K = Z/m.
    """
    out = [((a, b), lift_mti_label(cov, a, b)) for a, b in mti_labels(cov.m)]
    expected = enumerate_mti(*ker_mu_of_pair(cov.pair(), cov.m))
    found = sorted(K.upper.basis.rows for _, K in out)
    certify("classification against exhaustive enumeration", {
        "classify-crosscheck": found == sorted(
            S.upper.basis.rows for S in expected if len(S.invariants) == 1
        ),
    })
    return out


def birational_predicate(K, p1):
    """True iff l * P_1 lies outside K for every l = 1, ..., m-1.

    This is the exact condition for the curve map into B-hat/K to be
    birational onto its image; it says that P_1 has order m modulo K.
    """
    return K.order_modulo(p1) == p1.order()


@_kept
def _transfer_preimage(cov, upper):
    """The lattice {x : pi^* x in upper} of the base, once per cover and lattice."""
    return preimage_lattice(cov.transfer.matrix, upper)


@_kept
def _eta_preimage(cov):
    """The upper lattice of [m]^{-1}<eta> over the base lattice."""
    lam0 = cov.base.lattice
    gens = lam0.basis.hstack(Mat.column(eta_class(cov).rep))
    return Lattice(lam0.ambient_dim, gens * Fraction(1, cov.m))


def verify_kernel_identification(cov, K):
    """Certify the identification of X = B-hat/K as a quotient of the base.

    Exact identities checked, all as subgroups of the rational torus of the
    base (lower lattice Lambda_0):

    * the kernel D of the composite JN_0 -> B -> B-hat -> B-hat/K = X is
      {x : pi^* x in Lambda_X}/Lambda_0 and has order m^(2g) (the degree of
      the composite isogeny);
    * [m]^{-1}(Nm-bar(K)) equals the kernel of JN_0 -> B-hat/(K + ker Nm-bar):
      preimages under the composite saturate K by ker(Nm-bar) = <P_1>, so D
      equals [m]^{-1}(Nm-bar(K)) exactly when P_1 in K, and sits inside it
      with index [K + <P_1> : K] otherwise (m in the birational case);
    * for birational K, K + <P_1> = ker mu_B gives Nm-bar(K) = <eta>, so
      [m]^{-1}(Nm-bar(K)) = [m]^{-1}<eta>, of order m^(2g) * m.

    Returns (ok, identified_order) with identified_order the order of
    [m]^{-1}(Nm-bar(K)).  A failure of any identity raises no exception but
    returns ok = False (test failure, not recoverable).
    """
    m, g = cov.m, cov.g
    lam0 = cov.base.lattice
    _, P1, _ = ker_mu_basis(cov)
    Q, _ = ker_mu_of_pair(cov.pair(), m)

    direct = FiniteQuotient(lam0, _transfer_preimage(cov, K.upper))

    # [m]^{-1} Nm-bar(K): its upper lattice is (Lambda_0 + pi_* K) / m
    gens = lam0.basis.hstack(cov.pushforward.matrix * K.upper.basis)
    via_norm = FiniteQuotient(lam0, Lattice(lam0.ambient_dim, gens * Fraction(1, m)))

    # K + <P_1> has index idx over K; it is lifted only strictly between K and ker mu_B
    idx = K.order_modulo(P1)
    if idx == 1:
        sat_upper = K.upper
    elif K.order * idx == Q.order:
        sat_upper = Q.upper
    else:
        sat_upper = Q.subgroup(K.upper.basis.columns() + [P1]).upper
    saturated = _transfer_preimage(cov, sat_upper)

    ok = (
        direct.order == m ** (2 * g)
        and via_norm.upper == saturated
        and via_norm.order == direct.order * idx
    )
    if ok and idx == m:
        ok = via_norm.upper == _eta_preimage(cov)
    return ok, via_norm.order
