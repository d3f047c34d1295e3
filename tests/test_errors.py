"""Every certified identity fails through ``errors.certify``, under its own name.

Every value class refuses assignment and deletion through one guard,
``errors._Immutable``, which also makes a value its own copy and lets a
pickle restore it.  The same base gives the one equality and hash rule to
each class that names its value slots in ``_key``.
"""

import ast
import copy
import pickle
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from symplat import comppair, covers, matrix, pollat
from symplat.comppair import complement, preset_m2
from symplat.errors import CertificationError, _Immutable
from symplat.finquot import QuotientElement
from symplat.lattice import Lattice
from symplat.matrix import Mat
from symplat.moduli import locus_dimensions
from symplat.pollat import (
    LatticeMap,
    PolarizationType,
    adjoint_map,
    standard_principal,
    torsion_subgroup,
)

from conftest import homology_with_form, subdivided_surface

SRC = Path(__file__).resolve().parents[1] / "src" / "symplat"


def _with_diagonal_entry(monkeypatch, module, i, value):
    """Make ``module.smith_normal_form`` return D with D[i][i] = value."""
    real = module.smith_normal_form

    def altered(M):
        U, D, V = real(M)
        rows = [list(row) for row in D.rows]
        rows[i][i] = value
        return U, Mat(rows, ncols=D.ncols), V

    monkeypatch.setattr(module, "smith_normal_form", altered)


def _two_face_graph():
    """The derived graph of a double cover of the torus: two faces, nonzero boundaries."""
    return covers.standard_cover(1, 2).cover_graph


# Each case builds its input, patches one attribute so that exactly its check
# fails, and returns the call that must fail.

def force_snf_transforms(monkeypatch):
    def swap_cols_in_a_only(self, i, j):
        for row in self.w[:self.m]:
            row[i], row[j] = row[j], row[i]

    monkeypatch.setattr(matrix._SnfState, "swap_cols", swap_cols_in_a_only)
    return lambda: matrix.smith_normal_form(Mat([[3, 2], [0, 1]]))


def force_snf_pairing(monkeypatch):
    # a unimodular Gram takes no Smith form, so the form is 2J: D = (2, 2)
    _with_diagonal_entry(monkeypatch, pollat, 0, 1)  # (1, 2) does not pair up
    return lambda: pollat.PolarizedLattice(Lattice.standard(2), pollat.symplectic_form(1) * 2)


def force_quotient_principal(monkeypatch):
    P = standard_principal(1)
    K = pollat.torsion_subgroup(P, 2)[0].subgroup([])
    doubled = pollat.PolarizedLattice(P.lattice, P.form * 2)
    monkeypatch.setattr(pollat, "quotient_by_isotropic", lambda P, K, scale: doubled)
    return lambda: pollat.principal_quotient(P, K, 2)


def force_adjoint_defining(monkeypatch):
    P = standard_principal(1)
    f = LatticeMap(Mat.identity(2), P.lattice, P.lattice)
    monkeypatch.setattr(pollat.PolarizedLattice, "gram", lambda self: self._gram * 2)
    return lambda: adjoint_map(f, P, P)


def _prym_setup():
    cov = covers.standard_cover(2, 2)
    return cov.total, cov.prym_sublattice()[1]


def force_complement_rank(monkeypatch):
    ambient, sub_B = _prym_setup()
    empty = Lattice.from_generators(ambient.ambient_dim, [])
    monkeypatch.setattr(comppair, "kernel_lattice", lambda conditions, lam: empty)
    return lambda: complement(ambient, sub_B)


def force_pair_order_identity(monkeypatch):
    ambient, sub_B = _prym_setup()
    orders = {"A∩B": 1, "ker λ_A": 4, "ker λ_B": 4}
    monkeypatch.setattr(comppair, "_pair_orders", lambda pair: orders)
    return lambda: complement(ambient, sub_B)


def force_j_integrality(monkeypatch):
    pair = complement(*_prym_setup())
    third = Mat.identity(pair.ambient.ambient_dim) * Fraction(1, 3)
    # j = 1 - 2/3 = 1/3 does not preserve the lattice
    monkeypatch.setattr(comppair, "orthogonal_projection", lambda pair: third)
    return lambda: comppair.j_endomorphism(pair, 2)


def _product_doubled(monkeypatch, left, right):
    """Make ``Mat.__mul__`` double the product left * right, both matched by value."""
    real = Mat.__mul__
    monkeypatch.setattr(
        Mat, "__mul__", lambda a, b: real(real(a, b), 2) if (a, b) == (left, right) else real(a, b)
    )


def _zero_is_identity(monkeypatch):
    """Make ``Mat.zero``, which only the (j-1)(j+m-1) checks read, return the identity."""
    monkeypatch.setattr(Mat, "zero", staticmethod(lambda nrows, ncols: Mat.identity(nrows)))


def force_prym_tjurin(monkeypatch):
    pair = complement(*_prym_setup())
    _zero_is_identity(monkeypatch)
    return lambda: comppair.j_endomorphism(pair, 2)


def _kernel_emptied(monkeypatch, side):
    """Make ``comppair.kernel_lattice`` return the zero lattice in place of ``side`` of a pair."""
    pair = complement(*_prym_setup())
    real, kept = comppair.kernel_lattice, getattr(pair, side)
    empty = Lattice.from_generators(pair.ambient.ambient_dim, [])
    monkeypatch.setattr(
        comppair, "kernel_lattice",
        lambda conditions, lam: empty if (found := real(conditions, lam)) == kept else found,
    )
    return lambda: comppair.j_endomorphism(pair, 2)


def force_ker_one_minus_j(monkeypatch):
    return _kernel_emptied(monkeypatch, "sub_A")


def force_ker_j_plus_m_minus_one(monkeypatch):
    return _kernel_emptied(monkeypatch, "sub_B")


def force_pr_b_self_adjoint(monkeypatch):
    twin = comppair.j_endomorphism(complement(*_prym_setup()), 2).matrix
    pair = complement(*_prym_setup())
    _product_doubled(monkeypatch, pair.ambient.form, Mat.identity(twin.nrows) - twin)  # E*(1-j)
    return lambda: comppair.j_endomorphism(pair, 2)


def _welters_setup():
    """A pair at m = 2, a K of its ker mu_B and one honest run, which keeps j and the orders."""
    pair = complement(*_prym_setup())
    K = comppair.enumerate_mti(*comppair.ker_mu_of_pair(pair, 2))[0]
    return pair, K, comppair.welters_construct(pair, K, 2)


def force_pr_b_of_lambda(monkeypatch):
    pair, K, _ = _welters_setup()
    # the one Lattice that welters_construct builds, pr_B(Λ), now doubled
    monkeypatch.setattr(comppair, "Lattice", lambda n, basis: Lattice(n, basis * 2))
    return lambda: comppair.welters_construct(pair, K, 2)


def force_x_principal(monkeypatch):
    pair, K, _ = _welters_setup()
    monkeypatch.setattr(comppair, "polarization_type", lambda P: PolarizationType((1, 2)))
    return lambda: comppair.welters_construct(pair, K, 2)


def force_u_after_u_t(monkeypatch):
    pair, K, out = _welters_setup()
    _product_doubled(monkeypatch, out.u.matrix, out.u_t.matrix)
    return lambda: comppair.welters_construct(pair, K, 2)


def force_u_t_after_u(monkeypatch):
    pair, K, out = _welters_setup()
    _product_doubled(monkeypatch, out.u_t.matrix, out.u.matrix)
    return lambda: comppair.welters_construct(pair, K, 2)


def force_welters_prym_tjurin(monkeypatch):
    pair, K, _ = _welters_setup()
    _zero_is_identity(monkeypatch)  # j is kept, so its own check does not run again
    return lambda: comppair.welters_construct(pair, K, 2)


def force_welters_pair_orders(monkeypatch):
    pair, K, _ = _welters_setup()
    orders = {"A∩B": 1, "ker λ_A": 4, "ker λ_B": 4}
    monkeypatch.setattr(comppair, "_pair_orders", lambda pair: orders)
    return lambda: comppair.welters_construct(pair, K, 2)


def force_prym_norm_kernel(monkeypatch):
    cov = covers.standard_cover(2, 2)
    real = covers.prym_sublattice
    # the transfer image in place of the norm kernel
    monkeypatch.setattr(covers, "prym_sublattice", lambda cov: (real(cov)[1],) * 2)
    return cov.pair


def force_surface_ribbon(monkeypatch):
    monkeypatch.setattr(covers.RibbonGraph, "genus", lambda self: 0)
    return lambda: covers.surface_ribbon(1)


def force_tree_loop(monkeypatch):
    R = covers.surface_ribbon(1)
    # a one-vertex graph: contracting edge 0 would contract a loop
    monkeypatch.setattr(covers, "_spanning_tree", lambda R: ({0}, {0: (0,) * R.n_edges}))
    return lambda: homology_with_form(R)


def force_tree_vertices(monkeypatch):
    R = subdivided_surface(1)
    real = covers._spanning_tree
    # contracting no edge leaves both vertices
    monkeypatch.setattr(covers, "_spanning_tree", lambda R: (set(), *real(R)[1:]))
    return lambda: homology_with_form(R)


def force_face_cycle(monkeypatch):
    R = subdivided_surface(1)
    (e,) = covers._spanning_tree(R)[0]
    # a tree edge alone is no cycle; its non-tree coordinates are zero, so it
    # still lies in the radical
    unit = tuple(int(i == e) for i in range(R.n_edges))
    monkeypatch.setattr(covers.RibbonGraph, "face_vectors", lambda self: [unit])
    return lambda: homology_with_form(R)


def force_face_radical(monkeypatch):
    R = _two_face_graph()
    monkeypatch.setattr(covers, "_chord_sign", lambda pos, n, f, g: 1)
    return lambda: homology_with_form(R)


def force_face_rank(monkeypatch):
    R = covers.surface_ribbon(1)  # one face with zero boundary: rank 0, now 1
    _with_diagonal_entry(monkeypatch, covers, 0, 1)
    return lambda: homology_with_form(R)


def force_face_saturated(monkeypatch):
    R = _two_face_graph()  # face relations of rank 1, now with divisor 2
    _with_diagonal_entry(monkeypatch, covers, 0, 2)
    return lambda: homology_with_form(R)


def force_h1_rank(monkeypatch):
    R = covers.surface_ribbon(1)
    real = covers.RibbonGraph.genus
    monkeypatch.setattr(covers.RibbonGraph, "genus", lambda self: real(self) + 1)
    return lambda: homology_with_form(R)


def force_h1_principal(monkeypatch):
    R = covers.surface_ribbon(1)
    monkeypatch.setattr(covers, "polarization_type", lambda P: PolarizationType((2,)))
    return lambda: homology_with_form(R)


def force_cover_genus(monkeypatch):
    R = covers.surface_ribbon(2)
    real = covers.RibbonGraph.genus

    def genus(self):
        # off by one where cyclic_cover compares the genera, true where the
        # homology is built
        return real(self) + (sys._getframe(1).f_code.co_name == "cyclic_cover")

    monkeypatch.setattr(covers.RibbonGraph, "genus", genus)
    return lambda: covers.cyclic_cover(R, [1, 0, 0, 0], 2)


def force_chain_cycle(monkeypatch):
    R = subdivided_surface(1)
    (e,) = covers._spanning_tree(R)[0]
    H = covers._build_homology(R)
    # no patch: a tree edge alone is no cycle of the two-vertex graph
    return lambda: H.to_homology([[int(i == e)] for i in range(R.n_edges)])


def _doubled_power_and_sum(monkeypatch, k):
    """Make ``covers._power_and_sum`` return its k-th entry (0: σ^m, 1: Σσ^i) doubled."""
    real = covers._power_and_sum

    def doubled(M, m):
        out = list(real(M, m))
        out[k] = out[k] * 2
        return tuple(out)

    monkeypatch.setattr(covers, "_power_and_sum", doubled)
    return lambda: covers.cyclic_cover(covers.surface_ribbon(2), [1, 0, 0, 0], 2)


def _double_cover_twin():
    """An honest double cover of genus 2, and the call that builds it again."""
    def build():
        return covers.cyclic_cover(covers.surface_ribbon(2), [1, 0, 0, 0], 2)
    return build(), build


def force_sigma_symplectic(monkeypatch):
    twin, build = _double_cover_twin()
    _product_doubled(monkeypatch, twin.sigma.matrix.T, twin.total.form)
    return build


def force_sigma_nontrivial(monkeypatch):
    twin, build = _double_cover_twin()
    sigma, one = twin.sigma.matrix, Mat.identity(twin.sigma.matrix.nrows)
    real = Mat.__eq__
    # sigma, and only sigma, compares equal to the identity
    monkeypatch.setattr(Mat, "__eq__", lambda a, b: real(a, b) or (real(a, sigma) and real(b, one)))
    return build


def force_pushforward_transfer_m(monkeypatch):
    twin, build = _double_cover_twin()
    _product_doubled(monkeypatch, twin.pushforward.matrix, twin.transfer.matrix)
    return build


def force_transfer_multiplies_form(monkeypatch):
    twin, build = _double_cover_twin()
    _product_doubled(monkeypatch, twin.transfer.matrix.T, twin.total.form)
    return build


def force_sigma_order_m(monkeypatch):
    return _doubled_power_and_sum(monkeypatch, 0)


def force_transfer_pushforward_sum_sigma(monkeypatch):
    return _doubled_power_and_sum(monkeypatch, 1)


def force_component_group_order(monkeypatch):
    cov = covers.standard_cover(2, 2)
    trivial = covers.FiniteQuotient(cov.base.lattice, cov.base.lattice)
    monkeypatch.setattr(covers, "FiniteQuotient", lambda lower, upper: trivial)
    return lambda: covers.norm_component_group(cov)


def force_eta_order(monkeypatch):
    cov = covers.standard_cover(2, 2)
    monkeypatch.setattr(
        covers, "_cyclic_generator", lambda Q, m, what, failure: Q.element(Q.lower.basis.col(0))
    )
    return lambda: covers.eta_class(cov)


def force_ker_transfer_cyclic(monkeypatch):
    cov = covers.standard_cover(2, 2)
    monkeypatch.setattr(covers, "_transfer_preimage", lambda cov, upper: cov.base.lattice)
    return lambda: covers.eta_class(cov)


def force_ker_nmbar_cyclic(monkeypatch):
    cov = covers.standard_cover(2, 2)
    covers.eta_class(cov)  # kept, so only ker Nm-bar sees the patch
    # ker Nm-bar becomes dual(B)/dual(B), the trivial group
    monkeypatch.setattr(covers, "preimage_lattice", lambda M, lam: Lattice.standard(M.ncols))
    return lambda: covers.ker_mu_basis(cov)


def force_p1_index(monkeypatch):
    cov = covers.standard_cover(2, 2)
    monkeypatch.setattr(covers, "norm_component_group", lambda cov: (None, lambda x: 0))
    return lambda: covers.ker_mu_basis(cov)


def _ker_mu_cover():
    """A double cover with everything ``ker_mu_basis`` reads kept, and its ker mu_B."""
    cov = covers.standard_cover(2, 2)
    covers.eta_class(cov)
    covers.norm_component_group(cov)
    return cov, covers.ker_mu_of_pair(cov.pair(), cov.m)[0]


def _ker_mu_group_property(monkeypatch, name, value):
    """Make FiniteQuotient.<name> read ``value(real)`` on the kept ker mu_B only."""
    cov, Q = _ker_mu_cover()
    real = getattr(covers.FiniteQuotient, name).fget
    monkeypatch.setattr(
        covers.FiniteQuotient, name, property(lambda S: value(real(S)) if S is Q else real(S))
    )
    return lambda: covers.ker_mu_basis(cov)


def force_ker_mu_order(monkeypatch):
    return _ker_mu_group_property(monkeypatch, "order", lambda order: 2 * order)


def force_ker_mu_invariants(monkeypatch):
    # Z/4 in place of Z/2 x Z/2: the order is still 4
    return _ker_mu_group_property(monkeypatch, "invariants", lambda inv: (inv[0] * inv[1],))


def _basis_element_order_doubled(monkeypatch, k):
    """Make QuotientElement.order double on the k-th of (xi_bar, P_1) only.

    The element is matched by value, from a twin cover.  Under the other
    checks an order below m fails ``generate`` too, so only a seam on the
    order itself reaches these checks alone.
    """
    twin = covers.ker_mu_basis(covers.standard_cover(2, 2))[k]
    cov, _ = _ker_mu_cover()
    real = QuotientElement.order
    monkeypatch.setattr(QuotientElement, "order", lambda x: real(x) * (2 if x == twin else 1))
    return lambda: covers.ker_mu_basis(cov)


def force_xi_order(monkeypatch):
    return _basis_element_order_doubled(monkeypatch, 0)


def force_p1_order(monkeypatch):
    return _basis_element_order_doubled(monkeypatch, 1)


def force_generate(monkeypatch):
    cov, _ = _ker_mu_cover()
    real = covers.FiniteQuotient.subgroup
    # <xi_bar> alone: both orders are still m
    monkeypatch.setattr(covers.FiniteQuotient, "subgroup", lambda Q, gens: real(Q, list(gens)[:1]))
    return lambda: covers.ker_mu_basis(cov)


def force_p1_in_ker_nmbar(monkeypatch):
    # xi_bar + P_1 has order m and generates with xi_bar, but its norm is eta
    xi_bar, P1, _ = covers.ker_mu_basis(covers.standard_cover(2, 2))
    cov, _ = _ker_mu_cover()
    monkeypatch.setattr(covers, "_cyclic_generator", lambda Q, m, what, failure: xi_bar + P1)
    monkeypatch.setattr(covers, "norm_component_group", lambda cov: (None, lambda x: 1))
    return lambda: covers.ker_mu_basis(cov)


def force_classify_mti(monkeypatch):
    cov = covers.standard_cover(2, 2)
    monkeypatch.setattr(covers, "is_maximal_isotropic", lambda K, p: False)
    return lambda: covers.lift_mti_label(cov, 1, 0)


def _classify_with_labels(monkeypatch, m, edit):
    """classify_mti_K at (2, m), with ``covers.mti_labels`` returning ``edit`` of its list."""
    cov = covers.standard_cover(2, m)
    real = covers.mti_labels
    monkeypatch.setattr(covers, "mti_labels", lambda m: edit(real(m)))
    return lambda: covers.classify_mti_K(cov)


def _drop_first(labels):
    return labels[1:]  # psi(m) - 1 distinct lifts


def _repeat_first(labels):
    return labels[:-1] + labels[:1]  # psi(m) lifts, one twice


def force_classify_crosscheck(monkeypatch):
    return _classify_with_labels(monkeypatch, 3, _drop_first)


def force_classify_crosscheck_composite(monkeypatch):
    return _classify_with_labels(monkeypatch, 4, _drop_first)


def force_classify_crosscheck_repeated(monkeypatch):
    return _classify_with_labels(monkeypatch, 3, _repeat_first)


def force_classify_crosscheck_composite_repeated(monkeypatch):
    return _classify_with_labels(monkeypatch, 4, _repeat_first)


FORCED = [
    ("U*M*V = D", force_snf_transforms),
    ("snf-pairing", force_snf_pairing),
    ("quotient-principal", force_quotient_principal),
    ("adjoint-defining", force_adjoint_defining),
    ("complement-rank", force_complement_rank),
    ("pair-order-identity", force_pair_order_identity),
    ("j-integrality", force_j_integrality),
    ("prym-tjurin", force_prym_tjurin),
    ("ker(1-j)=A", force_ker_one_minus_j),
    ("ker(j+m-1)=B", force_ker_j_plus_m_minus_one),
    ("pr_B-self-adjoint", force_pr_b_self_adjoint),
    ("pr_B(Λ) = Λ_B^†", force_pr_b_of_lambda),
    ("X principal", force_x_principal),
    ("u∘u_t = [m]", force_u_after_u_t),
    ("u_t∘u = 1 - j", force_u_t_after_u),
    ("(j-1)(j+m-1) = 0", force_welters_prym_tjurin),
    ("|A∩B| = |ker λ_A| = |ker λ_B|", force_welters_pair_orders),
    ("prym-norm-kernel", force_prym_norm_kernel),
    ("surface-ribbon", force_surface_ribbon),
    ("tree-contract", force_tree_loop),
    ("tree-contract", force_tree_vertices),
    ("face-cycle", force_face_cycle),
    ("face-radical", force_face_radical),
    ("face-rank", force_face_rank),
    ("face-saturated", force_face_saturated),
    ("h1-rank", force_h1_rank),
    ("h1-principal", force_h1_principal),
    ("chain-cycle", force_chain_cycle),
    ("cover-genus", force_cover_genus),
    ("sigma-symplectic", force_sigma_symplectic),
    ("sigma-nontrivial", force_sigma_nontrivial),
    ("pushforward-transfer-m", force_pushforward_transfer_m),
    ("transfer-multiplies-form", force_transfer_multiplies_form),
    ("sigma-order-m", force_sigma_order_m),
    ("transfer-pushforward-sum-sigma", force_transfer_pushforward_sum_sigma),
    ("component-group-order", force_component_group_order),
    ("eta-order", force_eta_order),
    ("ker-transfer-cyclic", force_ker_transfer_cyclic),
    ("ker-nmbar-cyclic", force_ker_nmbar_cyclic),
    ("p1-index", force_p1_index),
    ("ker-mu-order", force_ker_mu_order),
    ("ker-mu-invariants", force_ker_mu_invariants),
    ("xi-order", force_xi_order),
    ("p1-order", force_p1_order),
    ("generate", force_generate),
    ("p1-in-ker-nmbar", force_p1_in_ker_nmbar),
    ("classify-mti", force_classify_mti),
    ("classify-crosscheck", force_classify_crosscheck),
    ("classify-crosscheck", force_classify_crosscheck_composite),
    ("classify-crosscheck", force_classify_crosscheck_repeated),
    ("classify-crosscheck", force_classify_crosscheck_composite_repeated),
]


@pytest.mark.parametrize(
    "name, force", FORCED, ids=[force.__name__[len("force_"):] for _, force in FORCED]
)
def test_each_check_fails_under_its_own_name(monkeypatch, name, force):
    call = force(monkeypatch)
    with pytest.raises(CertificationError) as info:
        call()
    assert info.value.failures == (name,)
    assert str(info.value).endswith(f" failed: {[name]}")


def _certification_raises(tree):
    """(enclosing function, inside an except clause) of each raise of CertificationError."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if getattr(exc, "id", getattr(exc, "attr", None)) != "CertificationError":
            continue
        in_except = False
        while node in parents and not isinstance(node, ast.FunctionDef):
            in_except |= isinstance(node, ast.ExceptHandler)
            node = parents[node]
        yield getattr(node, "name", None), in_except


def test_certification_errors_are_raised_by_certify_only():
    # the one raise allowed outside certify: adjoint_map turns the DomainError
    # of a non-integral adjoint into the failure adjoint-integrality
    allowed = {("errors.py", "certify", False), ("pollat.py", "adjoint_map", True)}
    found = {
        (path.name, *site)
        for path in sorted(SRC.glob("*.py"))
        for site in _certification_raises(ast.parse(path.read_text()))
    }
    assert found == allowed, sorted(found ^ allowed)


def _unreadable(path, node, what):
    pytest.fail(f"{path.name}:{node.lineno}: cannot read {what}: {ast.unparse(node)}")


def _dict_keys(path, checks, body):
    """The keys of ``checks``: a dict display, or a name that ``body`` binds to one and fills.

    The name may be bound once by ``name = {...}`` and filled by ``name[key] = ...``;
    any other form, or any other use of the name in ``body``, fails the test.
    """
    if isinstance(checks, ast.Dict) and None not in checks.keys:
        return checks.keys
    if not isinstance(checks, ast.Name):
        _unreadable(path, checks, "the checks of certify")
    keys, seen = [], {checks}
    for node in body:
        for target in node.targets if isinstance(node, ast.Assign) else ():
            if (isinstance(target, ast.Name) and target.id == checks.id
                    and isinstance(node.value, ast.Dict) and None not in node.value.keys):
                keys += node.value.keys
                seen.add(target)
            elif (isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name)
                    and target.value.id == checks.id):
                keys.append(target.slice)
                seen.add(target.value)
    for node in body:
        if isinstance(node, ast.Name) and node.id == checks.id and node not in seen:
            _unreadable(path, node, f"this use of {checks.id}")
    return keys


def _certified_names(paths):
    """Every identity name that a ``certify(what, checks)`` call in ``paths`` can hold.

    A key of ``checks`` is a string, or a parameter of the calling function,
    which holds the strings that calls of that function pass for it.  A call,
    dict or key of any other form fails the test at its file and line.
    """
    trees = [(path, ast.parse(path.read_text())) for path in paths]
    nodes = [(path, node) for path, tree in trees for node in ast.walk(tree)]
    calls = [(path, node) for path, node in nodes if isinstance(node, ast.Call)]
    certifies = {node for _, node in calls if ast.unparse(node.func) == "certify"}
    names = set()
    for path, fn in nodes:
        if not isinstance(fn, ast.FunctionDef):
            continue
        body = list(ast.walk(fn))
        params = [arg.arg for arg in fn.args.args]
        for call in certifies.intersection(body):
            certifies.discard(call)
            if len(call.args) != 2 or call.keywords:
                _unreadable(path, call, "the arguments of certify")
            for key in _dict_keys(path, call.args[1], body):
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    names.add(key.value)
                    continue
                if not (isinstance(key, ast.Name) and key.id in params):
                    _unreadable(path, key, "the key")
                i = params.index(key.id)
                sites = [(p, c) for p, c in calls if ast.unparse(c.func) == fn.name]
                if not sites:
                    _unreadable(path, key, f"the key, as no call of {fn.name} passes it")
                for site_path, site in sites:
                    given = site.args[i:i + 1]
                    if not (given and isinstance(given[0], ast.Constant) and isinstance(given[0].value, str)):
                        _unreadable(site_path, site, f"the {key.id} this call passes")
                    names.add(given[0].value)
    for call in certifies:
        path = next(path for path, node in calls if node is call)
        _unreadable(path, call, "a certify call outside a function")
    return names


def test_every_certified_name_is_forced():
    # a check cannot land without a FORCED row that makes it fail alone
    certified = _certified_names(sorted(SRC.glob("*.py")))
    forced = {name for name, _ in FORCED}
    assert certified == forced, sorted(certified ^ forced)


READABLE = """
def f(x, failure):
    certify("a", {"one": x})
    checks = {"two": x}
    checks["three"] = x
    certify("b", checks)
    certify("c", {failure: x})

def g(x):
    f(x, "four")
"""


@pytest.mark.parametrize("line, source", [
    (3, "def f(x):\n    checks = {}\n    checks.update({'a': x})\n    certify('b', checks)\n"),
    (2, "def f(x):\n    certify('b', dict(a=x))\n"),
    (2, "def f(x):\n    certify('b', {k: x for k in 'ab'})\n"),
    (2, "def f(x):\n    certify('b', {**x})\n"),
    (2, "def f(x, i):\n    certify('b', {f'n{i}': x})\n"),
    (2, "def f(x):\n    certify('b', checks={'a': x})\n"),
    (4, "def f(x, name):\n    certify('b', {name: x})\n\nf(1, 'n' * 2)\n"),
    (4, "def f(x, name):\n    certify('b', {name: x})\n\nf(1, name='n')\n"),
    (2, "def f(x, name):\n    certify('b', {name: x})\n"),
    (1, "certify('b', {'a': True})\n"),
])
def test_certified_names_refuse_a_form_they_cannot_read(tmp_path, line, source):
    # a check added in a form the name test does not read fails it at its line
    path = tmp_path / "unread.py"
    path.write_text(source)
    with pytest.raises(pytest.fail.Exception, match=f"^unread.py:{line}: cannot read "):
        _certified_names([path])


def test_certified_names_read_literal_filled_and_passed_keys(tmp_path):
    path = tmp_path / "read.py"
    path.write_text(READABLE)
    assert _certified_names([path]) == {"one", "two", "three", "four"}


def test_object_setattr_writes_only_into_self():
    # an immutable object fills its own slots; no module writes into another's
    found = [
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "object.__setattr__"
        and not (node.args and ast.unparse(node.args[0]) == "self")
    ]
    assert found == []


# One instance of each value class, by class name.
VALUES = {
    "Mat": lambda: Mat.identity(2),
    "Lattice": lambda: Lattice.standard(2),
    "FiniteQuotient": lambda: torsion_subgroup(standard_principal(1), 2)[0],
    "QuotientElement": lambda: torsion_subgroup(standard_principal(1), 2)[0].element((0, Fraction(1, 2))),
    "PairingOnQuotient": lambda: torsion_subgroup(standard_principal(1), 2)[1],
    "PolarizationType": lambda: PolarizationType((1, 2)),
    "PolarizedLattice": lambda: standard_principal(1),
    "LatticeMap": lambda: LatticeMap(Mat.identity(2), Lattice.standard(2), Lattice.standard(2)),
    "ComplementaryPair": lambda: covers.standard_cover(1, 2).pair(),
    "WeltersOutput": lambda: preset_m2("jacobian_quotient", standard_principal(1)),
    "RibbonGraph": lambda: covers.surface_ribbon(1),
    "VoltageAssignment": lambda: covers.VoltageAssignment(2, (1, 0)),
    "_Homology": lambda: covers._build_homology(covers.surface_ribbon(1)),
    "CoverHomology": lambda: covers.standard_cover(1, 2),
    "LocusReport": lambda: locus_dimensions(3, 3),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_classes_refuse_assignment_and_deletion(name):
    value = VALUES[name]()
    assert type(value).__name__ == name
    slot = type(value).__slots__[0]
    kept = getattr(value, slot)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        setattr(value, slot, None)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        delattr(value, slot)
    assert getattr(value, slot) is kept


def _same_value(a, b):
    """Equal values: by their own ``==`` where the class has one, else slot by slot."""
    if isinstance(a, _Immutable) and type(a).__eq__ is object.__eq__:
        return type(a) is type(b) and all(
            _same_value(getattr(a, name), getattr(b, name)) for name in type(a).__slots__
        )
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same_value, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_value(a[key], b[key]) for key in a)
    return a == b


@pytest.mark.parametrize("name", VALUES)
def test_value_classes_copy_as_themselves_and_survive_pickle(name):
    value = VALUES[name]()
    assert copy.copy(value) is value
    assert copy.deepcopy(value) is value
    assert copy.deepcopy([value, value])[1] is value
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(value, protocol))
        assert type(restored) is type(value) and restored is not value
        assert _same_value(restored, value)
        if type(value).__eq__ is not object.__eq__:
            assert restored == value and hash(restored) == hash(value)
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(restored, type(value).__slots__[0], None)


def test_one_immutability_guard():
    # __setattr__ and __delattr__ are written once, in errors._Immutable, and
    # every class with slots derives from it (VALUES builds one of each)
    guards, slotted = [], {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            guards += [
                (path.name, node.name, item.name) for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name in ("__setattr__", "__delattr__")
            ]
            slots = [
                ast.literal_eval(item.value) for item in node.body
                if isinstance(item, ast.Assign) and "__slots__" in [ast.unparse(t) for t in item.targets]
            ]
            if slots and slots[0]:
                slotted[node.name] = [ast.unparse(base) for base in node.bases]
    assert sorted(guards) == [
        ("errors.py", "_Immutable", "__delattr__"),
        ("errors.py", "_Immutable", "__setattr__"),
    ]
    assert slotted == {name: ["_Immutable"] for name in VALUES}


# The slots that make up the value of each class that compares by value.
KEYS = {
    "Mat": ("ncols", "den", "num"),
    "Lattice": ("ambient_dim", "basis"),
    "FiniteQuotient": ("lower", "upper"),
    "QuotientElement": ("parent", "rep"),
    "PolarizationType": ("chain",),
    "PolarizedLattice": ("lattice", "form"),
    "LatticeMap": ("matrix", "source", "target"),
    "LocusReport": (
        "g", "m", "r", "dim_Ag", "dim_Mg", "dim_R_gmr", "dim_jacobian_quotient_locus",
        "dim_inverse_prym_locus", "dim_prym_quotient_bound", "prym_target_dim_index",
        "cover_genus", "prym_dim", "genus_lower", "genus_welters_upper",
        "genus_family_lower_bound",
    ),
}


def test_one_value_rule():
    # __eq__ and __hash__ are written nowhere: errors._Immutable gives them to
    # each class that names its value slots in _key, and to no other; no hash
    # is kept in a slot
    written, keyed, slots = [], {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names = [item.name]
                elif isinstance(item, ast.Assign):
                    names = [ast.unparse(target) for target in item.targets]
                else:
                    continue
                written += [(path.name, node.name, name) for name in names if name in ("__eq__", "__hash__")]
                if "_key" in names:
                    keyed[node.name] = ast.literal_eval(item.value)
                if "__slots__" in names:
                    slots |= set(ast.literal_eval(item.value))
    assert written == []
    assert keyed == KEYS
    assert "_hash" not in slots
    for name in VALUES:
        by_value = type(VALUES[name]()).__eq__ is not object.__eq__
        assert by_value == (name in KEYS), name


@pytest.mark.parametrize("name", KEYS)
def test_values_compare_with_anything_and_hash_by_value(name):
    value, twin = VALUES[name](), VALUES[name]()
    assert value is not twin
    assert value == twin and not value != twin and hash(value) == hash(twin)
    other = VALUES["Lattice" if name != "Lattice" else "Mat"]()
    for x in (None, 5, other):
        assert not value == x and value != x
        assert not x == value and x != value
