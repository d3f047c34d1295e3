"""Finite quotients: invariants, elements, pairings, subgroup enumeration."""

import re
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from symplat.comppair import ker_mu_of_pair
from symplat.covers import standard_cover
from symplat.errors import BudgetError, DomainError
from symplat.finquot import (
    FiniteQuotient,
    PairingOnQuotient,
    enumerate_mti,
    enumerate_subgroups,
    is_isotropic,
    is_maximal_isotropic,
    orthogonal_subgroup,
)
from symplat.lattice import Lattice, _inclusion
from symplat.matrix import Mat, hermite_column_form
from symplat.pollat import (
    PolarizedLattice,
    standard_principal,
    symplectic_form,
    torsion_subgroup,
)

from conftest import (
    GroupTable,
    OracleElement,
    brute_force_mti,
    filtered_mti,
    generator_enumerate,
    library_subgroup_as_set,
    mti_by_orthogonal,
    order_modulo_by_coordinates,
    orthogonal_by_triple_product,
    pairing_value,
    preimage_under_mult,
    quotient_elements,
    quotient_exponent,
    quotient_as_table,
    snf_order,
)

Z2 = Lattice.standard(2)


def quot(lower_gens, upper=None, dim=2):
    upper = upper if upper is not None else Lattice.standard(dim)
    return FiniteQuotient(Lattice.from_generators(dim, lower_gens), upper)


def test_invariants_trivial():
    Q = FiniteQuotient(Z2, Z2)
    assert Q.invariants == ()
    assert Q.order == 1


def test_invariants_scaling():
    Q = FiniteQuotient(Z2.scaled(2), Z2)
    assert Q.invariants == (2, 2)
    assert Q.order == 4


def test_invariants_mixed():
    Q = quot([(1, 1), (0, 6)])
    assert Q.invariants == (6,)
    assert quotient_exponent(Q) == 6


def test_quotient_requires_containment():
    with pytest.raises(DomainError, match="not contained"):
        FiniteQuotient(Z2, Z2.scaled(2))


@pytest.mark.parametrize(
    "lower, upper",
    [
        (Lattice.from_generators(2, [(1, 0)]), Z2),
        (
            Lattice.from_generators(3, [(1, 0, 0), (0, 1, 0)]),
            Lattice.from_generators(3, [(1, 0, 0), (0, 0, 1)]),
        ),
    ],
)
def test_quotient_requires_equal_span(lower, upper):
    with pytest.raises(DomainError, match="equal rational span"):
        FiniteQuotient(lower, upper)


def test_elements_and_orders():
    Q = FiniteQuotient(Z2.scaled(2), Z2)
    elems = quotient_elements(Q)
    assert len(elems) == 4
    orders = sorted(e.order() for e in elems)
    assert orders == [1, 2, 2, 2]
    x, y = elems[1], elems[2]
    assert (x + y) - y == x
    assert (2 * x).order() == 1


def test_element_equality_modulo_lower():
    Q = FiniteQuotient(Z2.scaled(2), Z2)
    assert Q.element((1, 0)) == Q.element((3, 2))
    assert Q.element((1, 0)) != Q.element((0, 1))


def test_subgroup_generation():
    Q = FiniteQuotient(Z2.scaled(6), Z2)
    S = Q.subgroup([Q.element((2, 0))])
    assert S.order == 3
    assert S.is_subgroup_of(Q)


def test_subgroup_refuses_generators_outside_the_quotient():
    Q = FiniteQuotient(Z2.scaled(2), Z2)
    with pytest.raises(DomainError, match="^generators do not lie in the quotient$"):
        Q.subgroup([(Fraction(1, 2), 0)])


def test_pairing_well_defined_check():
    Q = FiniteQuotient(Z2.scaled(2), Z2)
    good = PairingOnQuotient(Q, Mat([[0, 2], [-2, 0]]))
    assert pairing_value(good, Q.element((1, 0)), Q.element((0, 1))) == 0
    with pytest.raises(DomainError):
        PairingOnQuotient(Q, Mat([[0, Fraction(1, 4)], [Fraction(-1, 4), 0]]))
    with pytest.raises(DomainError):
        PairingOnQuotient(Q, Mat([[0, 2], [2, 0]]))  # not alternating
    with pytest.raises(DomainError, match="^pairing form has the wrong shape$"):
        PairingOnQuotient(Q, Mat.zero(3, 3))


def test_pairing_antisymmetry_of_values():
    P = standard_principal(2)
    Q, p = torsion_subgroup(P, 3)
    elems = quotient_elements(Q)
    for x in elems[:9]:
        for y in elems[:9]:
            assert (pairing_value(p, x, y) + pairing_value(p, y, x)) % 1 == 0
            assert pairing_value(p, x, x) == 0


@pytest.mark.parametrize(
    "diag, expected_count",
    [
        ((2, 2), 5),
        ((2, 2, 2, 2), 67),
        ((3, 3), 6),
        ((4, 4), 15),
        ((2, 4), 8),
        ((6,), 4),
        ((12,), 6),
    ],
)
def test_subgroup_counts_against_closure_oracle(diag, expected_count):
    n = len(diag)
    lower = Lattice.from_generators(
        n, [tuple(d if i == j else 0 for i in range(n)) for j, d in enumerate(diag)]
    )
    Q = FiniteQuotient(lower, Lattice.standard(n))
    subs = enumerate_subgroups(Q)
    table, _ = quotient_as_table(Q)
    oracle = table.all_subgroups()
    assert len(subs) == len(oracle) == expected_count
    assert {library_subgroup_as_set(S, Q) for S in subs} == oracle
    # orders multiply out: every subgroup order divides the group order
    assert all(Q.order % S.order == 0 for S in subs)


def test_enumeration_deterministic_and_sorted():
    P = standard_principal(1)
    Q, p = torsion_subgroup(P, 2)
    runs = [enumerate_subgroups(Q) for _ in range(2)]
    assert [S.upper.basis for S in runs[0]] == [S.upper.basis for S in runs[1]]
    orders = [S.order for S in runs[0]]
    assert orders == sorted(orders)


def test_budget_error():
    P = standard_principal(2)
    Q, p = torsion_subgroup(P, 17)
    with pytest.raises(BudgetError):
        enumerate_subgroups(Q, budget=100)


def test_budget_bounds_candidates_visited():
    # (Z/2)^4 has order 16: the count of column placements tried trips first,
    # 132 for its 67 subgroups and 59 for its 15 Lagrangians
    Q, p = torsion_subgroup(standard_principal(2), 2)
    assert len(enumerate_subgroups(Q, budget=132)) == 67
    with pytest.raises(BudgetError, match="candidate"):
        enumerate_subgroups(Q, budget=131)
    assert len(enumerate_mti(Q, p, budget=59)) == 15
    with pytest.raises(BudgetError, match="candidate"):
        enumerate_mti(Q, p, budget=58)


@pytest.mark.parametrize("g, m, tried, kept", [(2, 3, 173, 40), (3, 2, 1061, 135)])
def test_budget_counts_every_placement_whichever_test_rejects_it(g, m, tried, kept):
    # one count per placement, before the isotropy and containment tests, so
    # the order of those tests cannot move the threshold
    Q, p = torsion_subgroup(standard_principal(g), m)
    assert len(enumerate_mti(Q, p, budget=tried)) == kept
    with pytest.raises(BudgetError, match=f"^more than {tried - 1} candidate subgroups$"):
        enumerate_mti(Q, p, budget=tried - 1)


@pytest.mark.parametrize("g, m", [(1, 2), (1, 3), (2, 2), (1, 4), (2, 3)])
def test_mti_against_brute_force(g, m):
    P = standard_principal(g)
    Q, p = torsion_subgroup(P, m)
    found = enumerate_mti(Q, p)
    assert found == filtered_mti(Q, p)
    oracle = brute_force_mti(Q, p)
    assert {library_subgroup_as_set(S, Q) for S in found} == oracle
    # maximal isotropic subgroups of nondegenerate m-torsion have order m^g
    assert all(S.order == m**g for S in found)


def _torsion_with_form(blocks, m):
    """(1/m)Z^n / Z^n with the pairing m*F, F the block sum of c*J (c = 0 allowed)."""
    n = 2 * len(blocks)
    rows = [[0] * n for _ in range(n)]
    for t, c in enumerate(blocks):
        rows[2 * t][2 * t + 1], rows[2 * t + 1][2 * t] = c, -c
    Zn = Lattice.standard(n)
    Q = FiniteQuotient(Zn, Zn.scaled(Fraction(1, m)))
    return Q, PairingOnQuotient(Q, Mat(rows) * m)


@pytest.mark.parametrize(
    "blocks, m",
    [((1, 0), 2), ((1, 0), 3), ((0, 0), 2), ((0, 0), 3), ((2, 1), 2), ((3, 1), 3)],
)
def test_mti_matches_filter_oracle_degenerate(blocks, m):
    Q, p = _torsion_with_form(blocks, m)
    assert orthogonal_subgroup(Q, p).upper != Q.lower  # degenerate
    found = enumerate_mti(Q, p)
    assert found == filtered_mti(Q, p)
    if m == 2:  # the brute-force oracle takes tens of seconds at m = 3
        assert {library_subgroup_as_set(S, Q) for S in found} == brute_force_mti(Q, p)


def test_mti_zero_form_is_whole_group():
    Q, p = _torsion_with_form((0, 0), 2)
    assert enumerate_mti(Q, p) == [Q]


_elementary = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3)).filter(
    lambda t: t[0] != t[1]
)


@settings(max_examples=8, deadline=None)
@given(
    ops=st.lists(_elementary, min_size=1, max_size=8),
    scales=st.tuples(*[st.sampled_from((1, 1, 2, 3))] * 4),
    m=st.sampled_from((2, 3)),
)
def test_mti_matches_filter_oracle_under_change_of_basis(ops, scales, m):
    # A = (elementary operations) * diag(scales) is a rational change of basis:
    # (A Z^4, A^-T J A^-1) is principal, with a non-standard lattice and form.
    # (An A in Sp4(Z) alone would give back Z^4 and J exactly.)
    rows = [[scales[j] if i == j else 0 for j in range(4)] for i in range(4)]
    for i, j, c in ops:
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    A = Mat(rows)
    Ainv = A.inverse()
    P = PolarizedLattice(Lattice(4, A), Ainv.T * symplectic_form(2) * Ainv)
    Q, p = torsion_subgroup(P, m)
    found = enumerate_mti(Q, p)
    assert found == filtered_mti(Q, p)
    assert len(found) == (m + 1) * (m * m + 1)


def test_mti_count_g2_m5():
    Q, p = torsion_subgroup(standard_principal(2), 5)
    found = enumerate_mti(Q, p)
    assert len(found) == (5 + 1) * (25 + 1) == 156
    assert all(S.order == 25 for S in found)


def test_mti_trivial_group():
    Q = FiniteQuotient(Z2, Z2)
    p = PairingOnQuotient(Q, Mat([[0, 1], [-1, 0]]))
    assert enumerate_mti(Q, p) == [Q]


def test_isotropy_basics():
    P = standard_principal(1)
    Q, p = torsion_subgroup(P, 2)
    trivial = Q.subgroup([])
    assert is_isotropic(trivial, p)
    cyc = Q.subgroup([Q.element((Fraction(1, 2), 0))])
    assert is_isotropic(cyc, p)
    assert is_maximal_isotropic(cyc, p)
    assert not is_isotropic(Q, p)
    assert not is_maximal_isotropic(trivial, p)


def test_orthogonal_subgroup():
    P = standard_principal(1)
    Q, p = torsion_subgroup(P, 2)
    cyc = Q.subgroup([Q.element((Fraction(1, 2), 0))])
    perp = orthogonal_subgroup(cyc, p)
    assert perp.upper == cyc.upper  # self-orthogonal: maximal isotropic
    rad = orthogonal_subgroup(Q, p)
    assert rad.upper == Q.lower  # nondegenerate pairing


def test_preimage_under_mult():
    S0 = FiniteQuotient(Z2, Z2)
    assert preimage_under_mult(S0, 2).order == 4
    assert preimage_under_mult(S0, 1) == S0
    Z4 = Lattice.standard(4)
    S = FiniteQuotient(
        Z4,
        Lattice.from_generators(
            4,
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (Fraction(1, 3), 0, 0, 0)],
        ),
    )
    assert S.order == 3
    pre = preimage_under_mult(S, 3)
    assert pre.order == 3**5


def test_preimage_contains_torsion_and_surjects():
    P = standard_principal(1)
    lower = P.lattice
    S = FiniteQuotient(
        lower, Lattice.from_generators(2, [(1, 0), (0, 1), (Fraction(1, 2), 0)])
    )
    pre = preimage_under_mult(S, 2)
    tors, _ = torsion_subgroup(P, 2)
    assert pre.upper.contains_lattice(tors.upper)
    # multiplication by 2 maps pre onto S
    doubled = Lattice(2, pre.upper.basis * 2)
    from symplat.lattice import lattice_sum

    assert lattice_sum(doubled, lower) == S.upper


def test_subgroup_count_formula_symplectic():
    # number of Lagrangians of (Z/p)^(2g) is prod_{i=1..g} (p^i + 1)
    for g, p_ in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        P = standard_principal(g)
        Q, pp = torsion_subgroup(P, p_)
        found = enumerate_mti(Q, pp)
        assert len(found) == prod(p_**i + 1 for i in range(1, g + 1))


# -- order, elements and membership against the representative-only oracle --

_small_rationals = st.one_of(
    st.integers(-4, 4), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
)


@st.composite
def nested_quotients(draw):
    """upper = B Z^r for a rational n x r basis B of full rank, lower = B M Z^r."""
    n = draw(st.integers(1, 4))
    r = draw(st.integers(1, n))
    B = Mat([[draw(_small_rationals) for _ in range(r)] for _ in range(n)], ncols=r)
    assume(B.rank() == r)
    M = Mat([[draw(st.integers(-3, 3)) for _ in range(r)] for _ in range(r)], ncols=r)
    assume(M.det() != 0)
    return FiniteQuotient(Lattice(n, B * M), Lattice(n, B))


def _check_against_oracle(Q, data):
    assert Q.order == snf_order(Q)
    B, r = Q.upper.basis, Q.upper.rank
    coeffs = st.lists(st.integers(-6, 6), min_size=r, max_size=r)
    xv, yv = B.apply(data.draw(coeffs)), B.apply(data.draw(coeffs))
    k = data.draw(st.integers(-7, 7))
    x, y = Q.element(xv), Q.element(yv)
    ox, oy = OracleElement(Q, xv), OracleElement(Q, yv)
    pairs = [(x, ox), (x + y, ox + oy), (x - y, ox - oy), (-x, -ox), (k * x, ox * k),
             (x * k, ox * k)]
    for new, old in pairs:
        assert new.rep == old.rep
        assert new.order() == old.order()
        assert all(0 <= c < 1 for c in new.c)
        assert new == Q.element(old.rep)
    # integer scalars only: a Fraction is refused even when it would stay in upper
    for scalar in (Fraction(1), Fraction(1, 2)):
        with pytest.raises(DomainError, match="^quotient elements are scaled by integers only$"):
            scalar * x
    # membership in the subgroup generated by x: T*c integral, no solve
    S = Q.subgroup([x])
    assert (y in S) == S.upper.contains_vector(y.rep)
    assert x in S and (k * x) in S
    # a vector of span(upper) outside upper is still refused, with the same message
    half = B.apply([Fraction(1, 2)] + [0] * (r - 1))
    for make in (Q.element, lambda v: OracleElement(Q, v)):
        with pytest.raises(DomainError, match="^representative does not lie in the upper lattice$"):
            make(half)


@settings(max_examples=60, deadline=None)
@given(Q=nested_quotients(), data=st.data())
def test_order_and_elements_against_oracle(Q, data):
    _check_against_oracle(Q, data)


@settings(max_examples=60, deadline=None)
@given(Q=nested_quotients(), data=st.data())
def test_order_modulo_against_the_coordinates_and_membership(Q, data):
    B, r = Q.upper.basis, Q.upper.rank
    coeffs = st.lists(st.integers(-6, 6), min_size=r, max_size=r)
    x = Q.element(B.apply(data.draw(coeffs)))
    S = Q.subgroup([B.apply(data.draw(coeffs)) for _ in range(data.draw(st.integers(0, 2)))])
    k = S.order_modulo(x)
    assert k == order_modulo_by_coordinates(S, x)
    # the least k >= 1 with k x in S, asked of S.upper directly
    assert k == next(j for j in range(1, x.order() + 1) if S.upper.contains_vector((j * x).rep))
    assert (x in S) == (k == 1) == S.upper.contains_vector(x.rep)
    assert Q.order_modulo(x) == 1 and x in Q


def test_order_modulo_refuses_another_lower_lattice():
    Q, _ = torsion_subgroup(standard_principal(1), 2)
    x = FiniteQuotient(Z2.scaled(2), Z2).element((1, 0))
    for ask in (Q.order_modulo, Q.__contains__):
        with pytest.raises(DomainError, match="^element of a quotient over another lower lattice$"):
            ask(x)


_TORSION_SUBGROUPS = {}


@settings(max_examples=30, deadline=None)
@given(gm=st.sampled_from([(1, 2), (1, 4), (1, 6), (2, 2), (2, 3)]), data=st.data())
def test_torsion_subgroups_against_oracle(gm, data):
    if gm not in _TORSION_SUBGROUPS:
        Q, _ = torsion_subgroup(standard_principal(gm[0]), gm[1])
        _TORSION_SUBGROUPS[gm] = enumerate_subgroups(Q)
    S = data.draw(st.sampled_from(_TORSION_SUBGROUPS[gm]))
    _check_against_oracle(S, data)


def test_element_outside_the_span_is_refused():
    Q = FiniteQuotient(Lattice.from_generators(2, [(2, 0)]), Lattice.from_generators(2, [(1, 0)]))
    with pytest.raises(DomainError, match="^representative does not lie in the upper lattice$"):
        Q.element((0, 1))
    with pytest.raises(DomainError, match="^representative does not lie in the upper lattice$"):
        OracleElement(Q, (0, 1))


# -- the column-by-column search against the generate-then-filter oracle ----

def _gaussian_binomial_total(n, q):
    """Subgroups of (Z/q)^n, q prime: the sum over k of the Gaussian binomials [n k]_q.

    Butler, Subgroup Lattices and Symmetric Functions, Mem. AMS 539 (1994).
    """
    return sum(
        prod(q ** (n - i) - 1 for i in range(k)) // prod(q ** (i + 1) - 1 for i in range(k))
        for k in range(n + 1)
    )


@pytest.mark.parametrize("n, q, count", [(4, 2, 67), (4, 3, 212), (6, 2, 2825)])
def test_subgroup_counts_match_gaussian_binomials(n, q, count):
    Zn = Lattice.standard(n)
    Q = FiniteQuotient(Zn.scaled(q), Zn)
    assert len(enumerate_subgroups(Q)) == _gaussian_binomial_total(n, q) == count


@pytest.mark.parametrize("n, q, count", [(4, 2, 67), (4, 3, 212)])
def test_closure_oracle_counts_match_gaussian_binomials(n, q, count):
    assert len(GroupTable((q,) * n).all_subgroups()) == _gaussian_binomial_total(n, q) == count


@st.composite
def diagonal_pairings(draw):
    """Z^k / diag(d) Z^k, d_i in {2, 3, 4, 6, 8}, k <= 4, with a drawn alternating pairing.

    F[i][j] = c_ij / gcd(d_i, d_j) for antisymmetric integers c is well defined
    on the quotient.  |Q| <= 256 keeps the oracle's full generation cheap.
    """
    d = []
    for _ in range(draw(st.integers(1, 4))):
        fits = [x for x in (2, 3, 4, 6, 8) if prod(d) * x <= 256]
        if not fits:
            break
        d.append(draw(st.sampled_from(fits)))
    k = len(d)
    F = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            F[i][j] = Fraction(draw(st.integers(-3, 3)), gcd(d[i], d[j]))
            F[j][i] = -F[i][j]
    Q = quot([tuple(x if i == j else 0 for i in range(k)) for j, x in enumerate(d)], dim=k)
    return Q, PairingOnQuotient(Q, Mat(F, ncols=k))


@settings(max_examples=30, deadline=None)
@given(case=diagonal_pairings())
def test_search_matches_generator_on_drawn_diagonals(case):
    Q, p = case
    assert enumerate_subgroups(Q) == generator_enumerate(Q)
    assert enumerate_mti(Q, p) == generator_enumerate(Q, p)


@settings(max_examples=30, deadline=None)
@given(case=diagonal_pairings())
def test_search_orders_are_the_determinants(case):
    Q, p = case
    for S in enumerate_subgroups(Q) + enumerate_mti(Q, p):
        assert S.order == abs(S._coords.det())


@settings(max_examples=30, deadline=None)
@given(case=diagonal_pairings())
def test_orthogonal_subgroup_matches_the_triple_product(case):
    # the pairing keeps upper^T * form; the oracle forms the triple product anew
    Q, p = case
    for S in enumerate_subgroups(Q)[:40] + enumerate_mti(Q, p):
        assert orthogonal_subgroup(S, p) == orthogonal_by_triple_product(S, p)


_block_forms = st.builds(
    _torsion_with_form,
    st.sampled_from([(1, 0), (0, 0), (2, 1), (3, 1), (1, 1)]),
    st.sampled_from((2, 3)),
)


@settings(max_examples=30, deadline=None)
@given(case=st.one_of(diagonal_pairings(), _block_forms))
def test_order_rule_matches_the_orthogonal_rule(case):
    # |S|^2 = |Q| |R| for isotropic S against S^perp ⊆ S, degenerate forms included
    Q, p = case
    for S in enumerate_subgroups(Q)[:40] + enumerate_mti(Q, p):
        assert is_maximal_isotropic(S, p) == mti_by_orthogonal(S, p)


def test_maximal_isotropy_refuses_another_lower_lattice():
    Q, p = torsion_subgroup(standard_principal(1), 2)
    other = FiniteQuotient(Z2.scaled(2), Z2.scaled(Fraction(1, 2)))
    assert not is_maximal_isotropic(other, p)  # not isotropic: False first
    cyclic = FiniteQuotient(Z2.scaled(2), Lattice.from_generators(2, [(1, 0), (0, 2)]))
    assert is_isotropic(cyclic, p)
    with pytest.raises(DomainError, match="lower lattice"):
        is_maximal_isotropic(cyclic, p)
    with pytest.raises(DomainError, match="^subgroup does not share the quotient's lower lattice$"):
        orthogonal_subgroup(cyclic, p)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("blocks", [(1, 0), (0, 0), (2, 1), (3, 1)])
def test_search_matches_generator_on_degenerate_forms(blocks, m):
    Q, p = _torsion_with_form(blocks, m)
    assert enumerate_mti(Q, p) == generator_enumerate(Q, p)


@settings(max_examples=8, deadline=None)
@given(
    ops=st.lists(_elementary, min_size=1, max_size=8),
    scales=st.tuples(*[st.sampled_from((1, 1, 2, 3))] * 4),
    m=st.sampled_from((2, 3)),
)
def test_search_matches_generator_under_change_of_basis(ops, scales, m):
    # (A Z^4, A^-T J A^-1) for A = (elementary operations) * diag(scales)
    rows = [[scales[j] if i == j else 0 for j in range(4)] for i in range(4)]
    for i, j, c in ops:
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    Ainv = Mat(rows).inverse()
    Q, p = torsion_subgroup(
        PolarizedLattice(Lattice(4, Mat(rows)), Ainv.T * symplectic_form(2) * Ainv), m
    )
    assert enumerate_subgroups(Q) == generator_enumerate(Q)
    assert enumerate_mti(Q, p) == generator_enumerate(Q, p)


@settings(max_examples=10, deadline=None)
@given(Q0=nested_quotients())
def test_trivial_quotient_has_one_subgroup(Q0):
    Q = FiniteQuotient(Q0.lower, Q0.lower)
    n = Q.lower.ambient_dim
    p = PairingOnQuotient(Q, Mat.zero(n, n))
    assert enumerate_subgroups(Q) == generator_enumerate(Q) == [Q]
    assert enumerate_mti(Q, p) == generator_enumerate(Q, p) == [Q]


# -- survivors kept as Hermite keys against the build-then-sort fallback -----

@st.composite
def changed_diagonal_pairings(draw):
    """A drawn diagonal pairing moved by a drawn unimodular U.

    (U lower, U upper) with the form U^-T F U^-1 is the same group with the
    same pairing; its adapted basis is mostly not a scalar matrix.
    """
    Q, p = draw(diagonal_pairings())
    k = Q.lower.ambient_dim
    rows = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(draw(st.integers(1, 6))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        if i != j:
            c = draw(st.integers(-2, 2))  # one multiplier per row operation keeps U unimodular
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    U = Mat(rows, ncols=k)
    Uinv = U.inverse()
    moved = FiniteQuotient(Lattice(k, U * Q.lower.basis), Lattice(k, U * Q.upper.basis))
    return moved, PairingOnQuotient(moved, Uinv.T * p.form * Uinv)


def _count_hermite_builds(mp):
    """Record every survivor built from its Hermite key, in build order."""
    built = []
    real = FiniteQuotient._over_hermite

    def counted(lower, c, keys):
        quotients = real(lower, c, keys)
        built.extend(quotients)
        return quotients

    mp.setattr(FiniteQuotient, "_over_hermite", counted)
    return built


@settings(max_examples=40, deadline=None)
@given(case=st.one_of(diagonal_pairings(), changed_diagonal_pairings()))
def test_hermite_keys_and_the_fallback_match_the_generator(case):
    # a divisibility chain d gives Wsub = I and the fast path; other d, and
    # most changes of basis, fall back to building and then sorting
    Q, p = case
    with pytest.MonkeyPatch.context() as mp:
        built = _count_hermite_builds(mp)
        found = enumerate_subgroups(Q) + enumerate_mti(Q, p)
    assert found == generator_enumerate(Q) + generator_enumerate(Q, p)
    event("Hermite keys" if built else "fallback")
    # either every survivor is built from its key, or none is
    assert built == [] or all(a is b for a, b in zip(built, found, strict=True))
    for S in built:
        assert S._coords == _inclusion(S.lower, S.upper)
        assert hermite_column_form(S.upper.basis) == S.upper.basis


def _ker_mu(g, m):
    return ker_mu_of_pair(standard_cover(g, m).pair(), m)


@pytest.mark.parametrize("make, keys", [
    (lambda: torsion_subgroup(standard_principal(2), 3), True),
    (lambda: torsion_subgroup(standard_principal(2), 4), True),
    (lambda: _torsion_with_form((1, 0), 6), True),
    (lambda: _ker_mu(2, 4), False),  # d = 1 columns
    (lambda: _ker_mu(3, 2), False),
], ids=["census-2-3", "census-2-4", "degenerate-6", "ker-mu-2-4", "ker-mu-3-2"])
def test_which_quotients_keep_hermite_keys(monkeypatch, make, keys):
    Q, p = make()
    built = _count_hermite_builds(monkeypatch)
    found = enumerate_mti(Q, p)
    assert found == generator_enumerate(Q, p)
    assert len(built) == (len(found) if keys else 0)


def test_a_hermite_key_must_contain_lower():
    Z2 = Lattice.standard(2)
    with pytest.raises(DomainError, match="^lower lattice is not contained in the upper one$"):
        # Z^2 is fine, 2Z + Z misses (1, 0)
        FiniteQuotient._over_hermite(Z2, 1, [((1, 0), (0, 1)), ((2, 0), (0, 1))])
    (S,) = FiniteQuotient._over_hermite(Z2.scaled(2), Fraction(1, 2), [((1, 0), (1, 2))])
    half = Lattice.from_generators(2, [(Fraction(1, 2), Fraction(1, 2)), (0, 1)])
    assert S == FiniteQuotient(Z2.scaled(2), half)
    assert S._coords == _inclusion(S.lower, S.upper) and S.order == 8


def _halves_plus_thirds():
    halves = torsion_subgroup(standard_principal(1), 2)[0]
    thirds = torsion_subgroup(standard_principal(1), 3)[0]
    return halves.element((0, Fraction(1, 2))) + thirds.element((0, Fraction(1, 3)))


FINQUOT_REFUSALS = [
    (_halves_plus_thirds, "elements of different quotients"),
]


@pytest.mark.parametrize("call, message", FINQUOT_REFUSALS)
def test_finquot_refuses_malformed_input(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
