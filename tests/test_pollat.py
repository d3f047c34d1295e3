"""Polarized lattices: types, duals, kernels, quotients, adjoints."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symplat.errors import CertificationError, DomainError, IsotropyError
from symplat.finquot import FiniteQuotient, enumerate_mti, orthogonal_subgroup
from symplat.lattice import Lattice, index
from symplat.matrix import Mat
from symplat.pollat import (
    LatticeMap,
    PolarizationType,
    PolarizedLattice,
    adjoint_map,
    dual_lattice,
    dual_polarization,
    ker_lambda,
    ker_mu,
    ker_mu_pairing,
    polarization_type,
    principal_quotient,
    quotient_by_isotropic,
    standard_principal,
    symplectic_form,
    torsion_subgroup,
)

from conftest import minor_gcd_invariants


def type_1m_rank4(m):
    """A rank-4 sublattice of the standard principal one with type (1, m)."""
    P = standard_principal(2)  # pairs (e1, e3), (e2, e4)
    L = Lattice.from_generators(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, m)])
    return PolarizedLattice(L, P.form)


def test_polarization_type_standard():
    for g in (1, 2, 3):
        assert polarization_type(standard_principal(g)).chain == (1,) * g


def test_polarization_type_scaled():
    P = PolarizedLattice(Lattice.standard(2), symplectic_form(1) * 2)
    assert polarization_type(P).chain == (2,)


def test_polarization_type_2e3_2e4():
    L = Lattice.from_generators(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)])
    P = PolarizedLattice(L, symplectic_form(2))
    assert polarization_type(P).chain == (2, 2)


def test_degenerate_form_rejected():
    with pytest.raises(DomainError):
        PolarizedLattice(Lattice.standard(2), Mat.zero(2, 2))


def test_type_chain_validation():
    with pytest.raises(DomainError):
        PolarizationType((2, 3))
    assert PolarizationType((1, 2, 4)).degree == 8


def test_dual_lattice_principal():
    P = standard_principal(2)
    assert dual_lattice(P) == P.lattice


def test_dual_lattice_scaled():
    P = PolarizedLattice(Lattice.standard(2), symplectic_form(1) * 2)
    assert dual_lattice(P) == Lattice.standard(2).scaled(Fraction(1, 2))


def test_dual_index_is_degree_squared():
    for P in [
        type_1m_rank4(2),
        type_1m_rank4(3),
        PolarizedLattice(Lattice.standard(2), symplectic_form(1) * 2),
    ]:
        dsq = polarization_type(P).degree ** 2
        assert index(P.lattice, dual_lattice(P)) == dsq


def test_ker_lambda():
    P = standard_principal(2)
    Q, p = ker_lambda(P)
    assert Q.order == 1
    P2 = PolarizedLattice(Lattice.standard(2), symplectic_form(1) * 2)
    Q2, _ = ker_lambda(P2)
    assert Q2.invariants == (2, 2)
    Q12, _ = ker_lambda(type_1m_rank4(2))
    assert Q12.invariants == (2, 2)


def test_torsion_subgroup():
    P = standard_principal(1)
    Q1, _ = torsion_subgroup(P, 1)
    assert Q1.order == 1
    Q2, p2 = torsion_subgroup(P, 2)
    assert Q2.invariants == (2, 2)
    assert orthogonal_subgroup(Q2, p2).upper == Q2.lower  # nondegenerate
    # principal rank-4, m=3: pairing matrix is J_2 as a Z/3 matrix
    P4 = standard_principal(2)
    Q3, p3 = torsion_subgroup(P4, 3)
    assert Q3.invariants == (3, 3, 3, 3)
    basis = [Q3.element(tuple(Fraction(x, 3) for x in col)) for col in Mat.identity(4).columns()]
    as_z3 = [[int(3 * p3.value(a, b)) % 3 for b in basis] for a in basis]
    J2 = symplectic_form(2)
    assert as_z3 == [[J2.rows[i][j] % 3 for j in range(4)] for i in range(4)]


def test_dual_polarization_trivial():
    P = standard_principal(1)
    Pd, mu = dual_polarization(P, 1)
    assert Pd == P
    assert mu.matrix == Mat.identity(2)


def test_dual_polarization_type_reversal():
    P = PolarizedLattice(Lattice.standard(2), symplectic_form(1) * 2)
    Pd, mu = dual_polarization(P, 2)
    assert polarization_type(Pd).chain == (1,)
    assert Pd.lattice == Lattice.standard(2).scaled(Fraction(1, 2))
    P12 = type_1m_rank4(2)
    Pd12, mu12 = dual_polarization(P12, 2)
    assert polarization_type(Pd12).chain == (1, 2)
    # chain reversal (m/d_n, ..., m/d_1) for several cases
    for m, P in [(2, type_1m_rank4(2)), (3, type_1m_rank4(3)), (4, type_1m_rank4(4))]:
        chain = polarization_type(P).chain
        Pd, _ = dual_polarization(P, m)
        assert polarization_type(Pd).chain == tuple(m // d for d in reversed(chain))


def test_dual_polarization_requires_divisibility():
    with pytest.raises(DomainError):
        dual_polarization(type_1m_rank4(2), 3)


def test_mu_composes_to_multiplication():
    P = type_1m_rank4(2)
    Pd, mu = dual_polarization(P, 2)
    # lambda is the identity on the common span; mu acts as multiplication by m
    assert mu.matrix * Pd.lattice.basis == Pd.lattice.basis * 2
    assert P.lattice.contains_lattice(Lattice(4, mu.matrix * Pd.lattice.basis))


def test_ker_mu_orders_and_exactness():
    # principal: ker mu = m-torsion image
    P = standard_principal(2)
    assert ker_mu(P, 2).invariants == (2, 2, 2, 2)
    # type (2) rank 2 at m=2: |B_m| = 4 = |ker lambda|, so ker mu is trivial
    P2 = PolarizedLattice(Lattice.standard(2), symplectic_form(1) * 2)
    Qmu = ker_mu(P2, 2)
    tors, _ = torsion_subgroup(P2, 2)
    Qlam, _ = ker_lambda(P2)
    assert tors.order == Qlam.order * Qmu.order
    assert Qmu.order == 1
    # same chain at m=4: |B_4| = 16, |ker lambda| = 4, so |ker mu| = 4
    assert ker_mu(P2, 4).order == 4
    for P, m in [(type_1m_rank4(2), 2), (type_1m_rank4(3), 3), (standard_principal(2), 4)]:
        tors, _ = torsion_subgroup(P, m)
        assert tors.order == ker_lambda(P)[0].order * ker_mu(P, m).order


def test_ker_mu_is_ker_lambda_of_dual():
    for P, m in [(type_1m_rank4(2), 2), (type_1m_rank4(3), 3)]:
        Pd, _ = dual_polarization(P, m)
        Qd, _ = ker_lambda(Pd)
        Qmu, pmu = ker_mu_pairing(P, m)
        assert Qd.lower == Qmu.lower and Qd.upper == Qmu.upper
        assert pmu.form == Pd.form


def test_quotient_trivial():
    P = standard_principal(1)
    tors, p = torsion_subgroup(P, 1)
    K = tors.subgroup([])
    assert quotient_by_isotropic(P, K, 1) == P


def test_quotient_refuses_a_subgroup_over_another_lattice():
    P = standard_principal(1)
    K = FiniteQuotient(P.lattice.scaled(2), P.lattice)
    with pytest.raises(DomainError, match="^subgroup is not presented over the polarized lattice$"):
        quotient_by_isotropic(P, K, 2)


def test_quotient_nonisotropic_rejected():
    P = standard_principal(1)
    tors, p = torsion_subgroup(P, 2)
    with pytest.raises(IsotropyError):
        quotient_by_isotropic(P, tors, 2)  # the whole 2-torsion is not isotropic


@pytest.mark.parametrize("g, m", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)])
def test_quotients_principal_exhaustive(g, m):
    P = standard_principal(g)
    tors, p = torsion_subgroup(P, m)
    mtis = enumerate_mti(tors, p)
    assert mtis, "enumeration returned no maximal isotropic subgroups"
    for K in mtis:
        X = principal_quotient(P, K, m)
        assert polarization_type(X).is_principal
        assert index(P.lattice, X.lattice) == K.order


def test_principal_quotient_certification_error():
    P = standard_principal(1)
    tors, p = torsion_subgroup(P, 4)
    # an isotropic but non-maximal subgroup gives a non-principal quotient
    K = tors.subgroup([tors.element((Fraction(1, 2), 0))])
    with pytest.raises(CertificationError):
        principal_quotient(P, K, 4)


def test_adjoint_identity_and_scalars():
    P = standard_principal(2)
    ident = LatticeMap(Mat.identity(4), P.lattice, P.lattice)
    assert adjoint_map(ident, P, P).matrix == Mat.identity(4)
    twice = LatticeMap(Mat.identity(4) * 2, P.lattice, P.lattice)
    assert adjoint_map(twice, P, P).matrix == Mat.identity(4) * 2


@pytest.mark.parametrize("seed", range(10))
def test_adjoint_involution_and_antimultiplicative(seed):
    rng = random.Random(500 + seed)
    P = standard_principal(2)
    def rand_map():
        return LatticeMap(
            Mat([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)], ncols=4),
            P.lattice,
            P.lattice,
        )
    f, g = rand_map(), rand_map()
    ft = adjoint_map(f, P, P)
    assert adjoint_map(ft, P, P).matrix == f.matrix
    gf = LatticeMap(g.matrix * f.matrix, P.lattice, P.lattice)
    assert adjoint_map(gf, P, P).matrix == ft.matrix * adjoint_map(g, P, P).matrix


def test_adjoint_defining_property():
    rng = random.Random(99)
    P = standard_principal(2)
    F = Mat([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)], ncols=4)
    f = LatticeMap(F, P.lattice, P.lattice)
    ft = adjoint_map(f, P, P)

    def E(x, y):
        return sum(a * b for a, b in zip(x, P.form.apply(y)))

    for x in Mat.identity(4).columns():
        for y in Mat.identity(4).columns():
            assert E(ft.matrix.apply(x), y) == E(x, F.apply(y))


def test_lattice_map_integrality_enforced():
    P = standard_principal(1)
    with pytest.raises(DomainError):
        LatticeMap(Mat([[Fraction(1, 2), 0], [0, 1]], ncols=2), P.lattice, P.lattice)


def test_rank_zero_polarized():
    P = PolarizedLattice(Lattice.from_generators(2, []), symplectic_form(1))
    assert polarization_type(P).chain == ()
    assert polarization_type(P).is_principal
    assert dual_lattice(P).rank == 0


# -- the type, nondegeneracy and pairing from one Smith form -----------------

@st.composite
def scaled_forms(draw, degenerate=False):
    """(A, J_d): an invertible integral A, g <= 3, and J_g with its blocks scaled by d.

    (A Z^2g, J_d) has Gram matrix B^T J_d B for a basis B = A U of the lattice.
    With ``degenerate`` one block is scaled by 0.
    """
    g = draw(st.integers(1, 3))
    d = [draw(st.sampled_from((1, 1, 2, 3, 4, 6))) for _ in range(g)]
    if degenerate:
        d[draw(st.integers(0, g - 1))] = 0
    n = 2 * g
    J = [[0] * n for _ in range(n)]
    for i, d_i in enumerate(d):
        J[i][g + i], J[g + i][i] = d_i, -d_i
    A = Mat([[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)], ncols=n)
    assume(A.det() != 0)
    return A, Mat(J, ncols=n)


@settings(max_examples=40, deadline=None)
@given(scaled_forms())
def test_type_is_the_paired_determinantal_invariants(case):
    A, J = case
    P = PolarizedLattice(Lattice(A.nrows, A), J)
    invariants = minor_gcd_invariants(A.T * J * A)
    assert invariants[0::2] == invariants[1::2]
    assert polarization_type(P).chain == invariants[0::2]


@settings(max_examples=20, deadline=None)
@given(scaled_forms(degenerate=True))
def test_drawn_degenerate_form_is_refused(case):
    A, J = case
    with pytest.raises(DomainError, match="^form is degenerate on the lattice span$"):
        PolarizedLattice(Lattice(A.nrows, A), J)
