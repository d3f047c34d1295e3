"""Lattices: saturation, kernels, indices, sums, intersections, preimages."""

import random
import re
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from symplat.errors import DomainError
from symplat.finquot import FiniteQuotient
from symplat.lattice import (
    Lattice,
    congruence_kernel,
    index,
    kernel_lattice,
    lattice_intersection,
    lattice_sum,
    preimage_lattice,
    saturate,
)
from symplat.matrix import Mat

from conftest import (
    canonical_basis_oracle,
    congruence_kernel_by_smith,
    preimage_by_smith,
    same_span_by_rank,
    saturate_by_rational_kernel,
)


Z2 = Lattice.standard(2)


def test_saturate_scaled_vector():
    assert saturate([(2, 0)], Z2) == Lattice.from_generators(2, [(1, 0)])


def test_saturate_full_span():
    assert saturate([(1, 0), (0, 1)], Z2) == Z2


def test_saturate_primitive_on_line():
    assert saturate([(2, 4)], Z2) == Lattice.from_generators(2, [(1, 2)])


def test_saturate_outside_span():
    L = Lattice.from_generators(2, [(1, 0)])
    with pytest.raises(DomainError):
        saturate([(0, 1)], L)


@pytest.mark.parametrize("seed", range(20))
def test_saturate_idempotent(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    L = Lattice.standard(n)
    k = rng.randint(0, n)
    vecs = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
    S1 = saturate(vecs, L)
    S2 = saturate([S1.basis.col(j) for j in range(S1.rank)], L)
    assert S1 == S2


def test_kernel_zero_map():
    assert kernel_lattice(Mat.zero(2, 2), Z2) == Z2


def test_kernel_identity():
    assert kernel_lattice(Mat.identity(2), Z2).rank == 0


def test_kernel_sum_map():
    K = kernel_lattice(Mat([[1, 1]]), Z2)
    assert K == Lattice.from_generators(2, [(1, -1)])


@pytest.mark.parametrize("seed", range(20))
def test_kernel_rank_and_saturation(seed):
    rng = random.Random(300 + seed)
    n = rng.randint(1, 4)
    m = rng.randint(1, 3)
    f = Mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)], ncols=n)
    L = Lattice.standard(n)
    K = kernel_lattice(f, L)
    assert (f * K.basis).is_zero()
    image_rank = (f * L.basis).rank()
    assert K.rank + image_rank == L.rank
    # saturated: saturation of the kernel span inside L is the kernel itself
    assert saturate([K.basis.col(j) for j in range(K.rank)], L) == K


def test_index_examples():
    assert index(Z2, Z2) == 1
    assert index(Z2.scaled(2), Z2) == 4
    assert index(Lattice.from_generators(2, [(1, 1), (0, 3)]), Z2) == 3


def test_index_errors():
    with pytest.raises(DomainError):
        index(Z2, Z2.scaled(2))  # containment fails
    with pytest.raises(DomainError):
        index(Lattice.from_generators(2, [(1, 0)]), Z2)  # spans differ


@pytest.mark.parametrize("seed", range(15))
def test_index_multiplicative(seed):
    rng = random.Random(400 + seed)
    n = rng.randint(1, 3)
    Lpp = Lattice.standard(n)
    a = rng.randint(1, 4)
    b = rng.randint(1, 4)
    Lp = Lpp.scaled(a)
    L = Lp.scaled(b)
    assert index(L, Lp) * index(Lp, Lpp) == index(L, Lpp)


def test_lattice_membership_and_coords():
    L = Lattice.from_generators(2, [(2, 0), (0, 3)])
    assert L.contains_vector((4, 3))
    assert not L.contains_vector((1, 0))
    assert not L.contains_vector((Fraction(1, 2), 0))


def test_canonical_equality_of_generators():
    L1 = Lattice.from_generators(2, [(2, 1), (1, 1)])
    L2 = Lattice.from_generators(2, [(1, 0), (0, 1)])
    assert L1 == L2  # both generate Z^2


def test_lattice_sum_and_intersection():
    A = Lattice.from_generators(2, [(2, 0)])
    B = Lattice.from_generators(2, [(0, 3)])
    S = lattice_sum(A, B)
    assert S == Lattice.from_generators(2, [(2, 0), (0, 3)])
    even = Lattice.from_generators(2, [(2, 0), (0, 2)])
    odd3 = Lattice.from_generators(2, [(3, 0), (0, 3)])
    meet = lattice_intersection(even, odd3)
    assert meet == Lattice.from_generators(2, [(6, 0), (0, 6)])


def test_rank_zero_lattice():
    Z0 = Lattice.from_generators(3, [])
    assert Z0.rank == 0
    assert Z0.contains_vector((0, 0, 0))
    assert not Z0.contains_vector((1, 0, 0))
    assert index(Z0, Z0) == 1
    Q = FiniteQuotient(Z0, Z0)
    W, diag = Q._adapted()
    assert (Q.order, Q.invariants, diag) == (1, (), ())
    assert (W.nrows, W.ncols) == (3, 0)


def test_congruence_kernel():
    A = Mat([[1, 1]])
    K = congruence_kernel(A, 2)
    L = Lattice(2, K)
    # {(x, y) : x + y even}
    assert L.contains_vector((1, 1))
    assert L.contains_vector((2, 0))
    assert not L.contains_vector((1, 0))
    assert index(L, Z2) == 2


def test_preimage_lattice():
    M = Mat([[2, 0], [0, 3]])
    P = preimage_lattice(M, Z2)
    assert P == Lattice.from_generators(
        2, [(Fraction(1, 2), 0), (0, Fraction(1, 3))]
    )
    with pytest.raises(DomainError, match="^preimage_lattice requires an injective matrix$"):
        preimage_lattice(Mat([[1, 1]]).T * Mat([[1, 1]]), Z2)  # rank 1, not injective


def test_canonical_representative():
    # the representative modulo L, coordinates reduced into [0, 1), is the
    # quotient element's rep
    L = Lattice.from_generators(2, [(2, 0), (0, 2)])
    Q = FiniteQuotient(L, Z2)
    assert Q.element((3, -1)).rep == (1, 1)
    assert Q.element((0, 0)).rep == (0, 0)


_entries = st.one_of(
    st.just(0), st.integers(-6, 6), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
)


@st.composite
def generator_matrices(draw):
    """Rational n x k generator matrices, k up to n + 2 (so often dependent)."""
    n = draw(st.integers(0, 4))
    k = draw(st.integers(0, n + 2))
    return Mat([[draw(_entries) for _ in range(k)] for _ in range(n)], ncols=k)


@settings(max_examples=150, deadline=None)
@given(generator_matrices())
def test_canonical_basis_against_oracle(M):
    L = Lattice(M.nrows, M)
    assert L.basis == canonical_basis_oracle(M)
    assert all(type(x) is int or x.denominator != 1 for row in L.basis.rows for x in row)
    # every generator is an integer combination of the basis
    if M.ncols and L.rank:
        assert L.coords_matrix(M).is_integral()


# -- the column-reduction kernels against the Smith and rational oracles -----

@st.composite
def congruence_systems(draw):
    """(A, d): an integer A up to 4 x 5, with zero rows and 0-row or 0-column
    shapes, and a modulus d in 2..12, composite ones included."""
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    rows = [[draw(st.integers(-12, 12)) for _ in range(n)] for _ in range(m)]
    if m and draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))] = [0] * n
    return Mat(rows, ncols=n), draw(st.integers(2, 12))


@settings(max_examples=150, deadline=None)
@given(congruence_systems())
def test_congruence_kernel_against_smith_oracle(system):
    A, d = system
    K = congruence_kernel(A, d)
    n = A.ncols
    assert (K.nrows, K.ncols) == (n, n) and K.is_integral()
    assert all(x % d == 0 for row in (A * K).rows for x in row)
    assert Lattice(n, K) == Lattice(n, congruence_kernel_by_smith(A, d))


@st.composite
def vectors_in_lattices(draw):
    """(vectors, L): L spanned by a drawn rational matrix, and up to rank + 1
    rational combinations of its basis (none at all included)."""
    M = draw(generator_matrices())
    L = Lattice(M.nrows, M)
    k = draw(st.integers(0, L.rank + 1))
    coeffs = [[draw(_entries) for _ in range(L.rank)] for _ in range(k)]
    return [L.basis.apply(c) for c in coeffs], L


@settings(max_examples=150, deadline=None)
@given(vectors_in_lattices())
def test_saturate_against_rational_kernel_oracle(case):
    vectors, L = case
    S = saturate(vectors, L)
    assert S == saturate_by_rational_kernel(vectors, L)
    assert L.contains_lattice(S) and S.rank == Mat.from_columns(
        vectors, nrows=L.ambient_dim
    ).rank()


@st.composite
def maps_into_lattices(draw):
    """(M, target): M = target.basis * C for a drawn rational C of up to
    rank + 1 columns, so M lands in target's span and is often not injective."""
    M = draw(generator_matrices())
    target = Lattice(M.nrows, M)
    k = draw(st.integers(0, target.rank + 1))
    C = Mat([[draw(_entries) for _ in range(k)] for _ in range(target.rank)], ncols=k)
    return target.basis * C, target


@settings(max_examples=150, deadline=None)
@given(maps_into_lattices())
def test_preimage_against_smith_oracle(case):
    M, target = case
    if M.rank() < M.ncols:
        for preimage in (preimage_lattice, preimage_by_smith):
            with pytest.raises(DomainError, match="^preimage_lattice requires an injective matrix$"):
                preimage(M, target)
        return
    P = preimage_lattice(M, target)
    assert P == preimage_by_smith(M, target)
    assert target.contains_lattice(Lattice(M.nrows, M * P.basis))


# -- lattice laws on drawn full-rank lattices, against sympy's Smith form ----

@st.composite
def full_rank_lattices(draw, n):
    M = Mat([[draw(_entries) for _ in range(n)] for _ in range(n)], ncols=n)
    assume(M.det() != 0)
    return Lattice(n, M)


def smith_index(L, Lp):
    """[Lp : L] as the product of sympy's Smith diagonal of L in Lp-coordinates."""
    T = Lp.coords_matrix(L.basis)
    D = smith_normal_form(Matrix(T.nrows, T.ncols, [int(x) for row in T.rows for x in row]))
    return abs(prod(D[i, i] for i in range(T.nrows)))


@settings(max_examples=60, deadline=5000)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(full_rank_lattices(n), full_rank_lattices(n))))
def test_sum_and_intersection_indices(pair):
    L, M = pair
    total, meet = lattice_sum(L, M), lattice_intersection(L, M)
    assert index(L, total) == index(meet, M)
    assert index(L, total) == smith_index(L, total)
    assert index(meet, M) == smith_index(meet, M)


@settings(max_examples=60, deadline=5000)
@given(vectors_in_lattices())
def test_saturate_is_idempotent_on_drawn_lattices(case):
    vectors, L = case
    S = saturate(vectors, L)
    assert saturate(S.basis.columns(), L) == S


# -- nested lattices: one solve, the index read off the Hermite diagonal -----

@st.composite
def nested_lattices(draw):
    """(L, Lp, pivots): L ⊆ Lp of rank r < n whose bases pivot on the drawn
    rows ``pivots``, never rows 0..r-1.  Each other row of Lp's generators is
    a rational combination of the pivot rows above it."""
    n = draw(st.integers(2, 5))
    r = draw(st.integers(1, n - 1))
    pivots = sorted(draw(st.sets(st.integers(0, n - 1), min_size=r, max_size=r)))
    assume(pivots != list(range(r)))
    top = [[draw(_entries) for _ in range(r)] for _ in range(r)]
    assume(Mat(top).det() != 0)
    rows, placed = [], []
    for i in range(n):
        if i in pivots:
            placed.append(top[len(placed)])
            rows.append(placed[-1])
        else:
            coeffs = [draw(_entries) for _ in placed]
            rows.append([sum(c * row[j] for c, row in zip(coeffs, placed)) for j in range(r)])
    Lp = Lattice(n, Mat(rows, ncols=r))
    A = Mat([[draw(st.integers(-4, 4)) for _ in range(r)] for _ in range(r)])
    assume(A.det() != 0)
    return Lattice(n, Lp.basis * A), Lp, pivots


@settings(max_examples=100, deadline=None)
@given(nested_lattices())
def test_index_off_the_first_rows_against_smith(case):
    L, Lp, pivots = case
    for B in (L.basis, Lp.basis):
        assert [next(i for i, x in enumerate(col) if x) for col in B.columns()] == pivots
    assert index(L, Lp) == smith_index(L, Lp) == FiniteQuotient(L, Lp).order


@pytest.mark.parametrize(
    "L, Lp, message",
    [
        (Z2, Lattice.standard(3), "different ambient spaces"),
        (Lattice.from_generators(2, [(1, 0)]), Z2, "equal rational span"),
        (
            Lattice.from_generators(3, [(1, 0, 0), (0, 1, 0)]),
            Lattice.from_generators(3, [(1, 0, 0), (0, 0, 1)]),
            "equal rational span",
        ),
        (Z2, Z2.scaled(2), "not contained"),
    ],
    ids=["ambient", "rank", "span", "containment"],
)
def test_index_and_quotient_refuse_pairs_that_are_not_nested(L, Lp, message):
    with pytest.raises(DomainError, match=message):
        index(L, Lp)
    with pytest.raises(DomainError, match=message):
        FiniteQuotient(L, Lp)


@st.composite
def lattice_pairs(draw):
    """(L, M): M drawn on its own (in another Q^n too) or spanned by rational
    combinations of L's basis."""
    M1 = draw(generator_matrices())
    L = Lattice(M1.nrows, M1)
    if draw(st.booleans()):
        M2 = draw(generator_matrices())
    else:
        k = draw(st.integers(0, L.rank + 1))
        M2 = L.basis * Mat([[draw(_entries) for _ in range(k)] for _ in range(L.rank)], ncols=k)
    return L, Lattice(M2.nrows, M2)


@settings(max_examples=150, deadline=None)
@given(lattice_pairs())
def test_same_span_against_the_rank_oracle(pair):
    L, M = pair
    assert L.same_span(M) == M.same_span(L) == same_span_by_rank(L, M)


def test_nested_pairs_take_one_solve_and_no_det_or_inverse(monkeypatch):
    upper = Lattice.from_generators(4, [(0, 1, 1, 0), (0, 0, 2, 1)])
    lower = Lattice.from_generators(4, [(0, 2, 2, 0), (0, 1, 7, 3)])
    calls = dict.fromkeys(("solve", "det", "inverse"), 0)
    for name in calls:
        def counting(*args, _name=name, _original=getattr(Mat, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(Mat, name, counting)

    Q = FiniteQuotient(lower, upper)
    order, invariants, (W, diag) = Q.order, Q.invariants, Q._adapted()
    assert calls == {"solve": 1, "det": 0, "inverse": 0}
    assert (order, invariants) == (6, (6,))
    assert Lattice(4, W) == upper and Lattice(4, W * Mat.diagonal(diag)) == lower

    calls.update(solve=0)
    assert index(lower, upper) == 6
    assert calls == {"solve": 1, "det": 0, "inverse": 0}

    calls.update(solve=0)
    assert upper.same_span(lower)
    assert calls["solve"] <= 1


LATTICE_REFUSALS = [
    (lambda: Lattice(3, Mat.identity(2)), "basis rows must match ambient dimension"),
    (lambda: Lattice.from_generators(2, [(1, 0, 0)]), "generator length must match ambient dimension"),
    (lambda: kernel_lattice(Mat([[1, 0, 0]]), Lattice.standard(2)),
     "map not defined on the ambient space of the lattice"),
    (lambda: lattice_sum(Lattice.standard(2), Lattice.standard(3)),
     "ambient dimension mismatch in lattice sum"),
    (lambda: lattice_intersection(Lattice.standard(2), Lattice.standard(3)),
     "ambient dimension mismatch in intersection"),
    (lambda: congruence_kernel(Mat([[Fraction(1, 2)]]), 2),
     "congruence_kernel requires an integer matrix"),
]


@pytest.mark.parametrize("call, message", LATTICE_REFUSALS)
def test_lattice_refuses_malformed_input(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
