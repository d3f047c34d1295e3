"""Every certified identity fails through ``errors.certify``, under its own name.

Every value class refuses assignment and deletion through one guard,
``errors._Immutable``.
"""

import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from symplat import comppair, covers, matrix, pollat
from symplat.comppair import complement, preset_m2
from symplat.errors import CertificationError
from symplat.lattice import Lattice
from symplat.matrix import Mat
from symplat.pollat import (
    LatticeMap,
    PolarizationType,
    adjoint_map,
    standard_principal,
    torsion_subgroup,
)

from conftest import subdivided_surface

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
    _with_diagonal_entry(monkeypatch, pollat, 0, 2)  # (2, 1) does not pair up
    return lambda: standard_principal(1)


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


def force_surface_ribbon(monkeypatch):
    monkeypatch.setattr(covers.RibbonGraph, "genus", lambda self: 0)
    return lambda: covers.surface_ribbon(1)


def force_tree_loop(monkeypatch):
    R = covers.surface_ribbon(1)
    # a one-vertex graph: contracting edge 0 would contract a loop
    monkeypatch.setattr(covers, "_spanning_tree", lambda R: ({0}, {0: (0,) * R.n_edges}))
    return lambda: covers.homology_with_form(R)


def force_tree_vertices(monkeypatch):
    R = subdivided_surface(1)
    real = covers._spanning_tree
    # contracting no edge leaves both vertices
    monkeypatch.setattr(covers, "_spanning_tree", lambda R: (set(), *real(R)[1:]))
    return lambda: covers.homology_with_form(R)


def force_face_cycle(monkeypatch):
    R = subdivided_surface(1)
    (e,) = covers._spanning_tree(R)[0]
    # a tree edge alone is no cycle; its non-tree coordinates are zero, so it
    # still lies in the radical
    unit = tuple(int(i == e) for i in range(R.n_edges))
    monkeypatch.setattr(covers.RibbonGraph, "face_vectors", lambda self: [unit])
    return lambda: covers.homology_with_form(R)


def force_face_radical(monkeypatch):
    R = _two_face_graph()
    monkeypatch.setattr(covers, "_chord_sign", lambda pos, n, f, g: 1)
    return lambda: covers.homology_with_form(R)


def force_face_rank(monkeypatch):
    R = covers.surface_ribbon(1)  # one face with zero boundary: rank 0, now 1
    _with_diagonal_entry(monkeypatch, covers, 0, 1)
    return lambda: covers.homology_with_form(R)


def force_face_saturated(monkeypatch):
    R = _two_face_graph()  # face relations of rank 1, now with divisor 2
    _with_diagonal_entry(monkeypatch, covers, 0, 2)
    return lambda: covers.homology_with_form(R)


def force_h1_rank(monkeypatch):
    R = covers.surface_ribbon(1)
    real = covers.RibbonGraph.genus
    monkeypatch.setattr(covers.RibbonGraph, "genus", lambda self: real(self) + 1)
    return lambda: covers.homology_with_form(R)


def force_h1_principal(monkeypatch):
    R = covers.surface_ribbon(1)
    monkeypatch.setattr(covers, "polarization_type", lambda P: PolarizationType((2,)))
    return lambda: covers.homology_with_form(R)


def force_cover_genus(monkeypatch):
    R = covers.surface_ribbon(2)
    real = covers.RibbonGraph.genus

    def genus(self):
        # off by one where cyclic_cover compares the genera, true where the
        # homology is built
        return real(self) + (sys._getframe(1).f_code.co_name == "cyclic_cover")

    monkeypatch.setattr(covers.RibbonGraph, "genus", genus)
    return lambda: covers.cyclic_cover(R, [1, 0, 0, 0], 2)


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


def force_classify_mti(monkeypatch):
    cov = covers.standard_cover(2, 2)
    monkeypatch.setattr(covers, "is_maximal_isotropic", lambda K, p: False)
    return lambda: covers.lift_mti_label(cov, 1, 0)


def force_classify_crosscheck(monkeypatch):
    cov = covers.standard_cover(2, 3)
    monkeypatch.setattr(covers, "enumerate_mti", lambda Q, p: [])
    return lambda: covers.classify_mti_K(cov)


def force_classify_crosscheck_composite(monkeypatch):
    cov = covers.standard_cover(2, 4)
    monkeypatch.setattr(covers, "enumerate_mti", lambda Q, p: [])
    return lambda: covers.classify_mti_K(cov)


FORCED = [
    ("U*M*V = D", force_snf_transforms),
    ("snf-pairing", force_snf_pairing),
    ("quotient-principal", force_quotient_principal),
    ("adjoint-defining", force_adjoint_defining),
    ("complement-rank", force_complement_rank),
    ("pair-order-identity", force_pair_order_identity),
    ("j-integrality", force_j_integrality),
    ("surface-ribbon", force_surface_ribbon),
    ("tree-contract", force_tree_loop),
    ("tree-contract", force_tree_vertices),
    ("face-cycle", force_face_cycle),
    ("face-radical", force_face_radical),
    ("face-rank", force_face_rank),
    ("face-saturated", force_face_saturated),
    ("h1-rank", force_h1_rank),
    ("h1-principal", force_h1_principal),
    ("cover-genus", force_cover_genus),
    ("component-group-order", force_component_group_order),
    ("eta-order", force_eta_order),
    ("ker-transfer-cyclic", force_ker_transfer_cyclic),
    ("ker-nmbar-cyclic", force_ker_nmbar_cyclic),
    ("p1-index", force_p1_index),
    ("classify-mti", force_classify_mti),
    ("classify-crosscheck", force_classify_crosscheck),
    ("classify-crosscheck", force_classify_crosscheck_composite),
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
    "QuotientElement": lambda: torsion_subgroup(standard_principal(1), 2)[0].elements()[1],
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
                if isinstance(item, ast.Assign) and [ast.unparse(t) for t in item.targets] == ["__slots__"]
            ]
            if slots and slots[0]:
                slotted[node.name] = [ast.unparse(base) for base in node.bases]
    assert sorted(guards) == [
        ("errors.py", "_Immutable", "__delattr__"),
        ("errors.py", "_Immutable", "__setattr__"),
    ]
    assert slotted == {name: ["_Immutable"] for name in VALUES}
