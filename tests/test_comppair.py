"""Complementary pairs, the j endomorphism, and the Welters construction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from symplat.comppair import (
    complement,
    j_endomorphism,
    ker_mu_of_pair,
    orthogonal_projection,
    preset_m2,
    welters_construct,
)
from symplat import cli, comppair, covers
from symplat.covers import (
    VoltageAssignment,
    classify_mti_K,
    cyclic_cover,
    prym_sublattice,
    standard_cover,
)
from symplat.jsonio import welters_report
from symplat.errors import DomainError, IsotropyError
from symplat.finquot import enumerate_mti
from symplat.lattice import Lattice, kernel_lattice
from symplat.matrix import Mat
from symplat.pollat import (
    PolarizedLattice,
    ker_lambda,
    polarization_type,
    standard_principal,
    symplectic_form,
    torsion_subgroup,
)

from conftest import projection_by_block_inverse, quotient_exponent, voltage_covers


def split_pair():
    """Ambient = J-block principal rank 4, B = the second symplectic plane."""
    ambient = standard_principal(2)  # pairs (e1, e3), (e2, e4)
    sub_B = Lattice.from_generators(4, [(0, 1, 0, 0), (0, 0, 0, 1)])
    return ambient, sub_B


def type_m_plane(m):
    """A saturated rank-2 sublattice of restricted type (m): span{e1, m e3 + e2}."""
    return Lattice.from_generators(4, [(1, 0, 0, 0), (0, 1, m, 0)])


def test_complement_whole_lattice():
    P = standard_principal(2)
    pair = complement(P, P.lattice)
    assert pair.sub_A.rank == 0
    assert pair.intersection.order == 1


def test_complement_split():
    ambient, sub_B = split_pair()
    pair = complement(ambient, sub_B)
    assert pair.sub_A == Lattice.from_generators(4, [(1, 0, 0, 0), (0, 0, 1, 0)])
    assert pair.intersection.order == 1


@pytest.mark.parametrize("m", [2, 3, 4])
def test_complement_type_m_plane(m):
    ambient = standard_principal(2)
    sub_B = type_m_plane(m)
    pair = complement(ambient, sub_B)
    PB = pair.restricted(sub_B)
    assert polarization_type(PB).chain == (m,)
    # |A∩B| = |ker λ_B| = |ker λ_A| = m^2 for a type-(m) plane
    assert pair.intersection.order == m * m
    assert ker_lambda(PB)[0].order == m * m
    assert ker_lambda(pair.restricted(pair.sub_A))[0].order == m * m


def test_complement_rejects_unsaturated():
    ambient = standard_principal(2)
    bad = Lattice.from_generators(4, [(2, 0, 0, 0), (0, 0, 1, 0)])
    with pytest.raises(DomainError):
        complement(ambient, bad)


def test_complement_rejects_a_lattice_outside_the_ambient():
    half = Lattice.from_generators(4, [(Fraction(1, 2), 0, 0, 0), (0, 0, 1, 0)])
    with pytest.raises(DomainError, match="^B is not a sublattice of the ambient lattice$"):
        complement(standard_principal(2), half)


def test_complement_rejects_degenerate():
    ambient = standard_principal(2)
    lagrangian = Lattice.from_generators(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    with pytest.raises(DomainError):
        complement(ambient, lagrangian)


@pytest.mark.parametrize(
    "gens",
    [
        [(1, 0, 0, 0)],
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)],
        [(1, 0, 0, 0), (0, 1, 0, 0)],
    ],
    ids=["rank-1", "rank-3", "lagrangian"],
)
def test_complement_refuses_odd_rank_and_degenerate_B(gens):
    message = r"^the form degenerates on B: not \(the lattice of\) an abelian subvariety$"
    with pytest.raises(DomainError, match=message):
        complement(standard_principal(2), Lattice.from_generators(4, gens))


def test_each_side_is_built_once(monkeypatch):
    built = []

    def counting(sub, form):
        built.append(sub)
        return PolarizedLattice(sub, form)

    monkeypatch.setattr(comppair, "PolarizedLattice", counting)
    pair = complement(standard_principal(2), type_m_plane(2))
    K = enumerate_mti(*ker_mu_of_pair(pair, 2))[0]
    welters_report(welters_construct(pair, K, 2))
    assert pair.restricted(pair.sub_B) is pair.restricted(pair.sub_B)
    assert pair.restricted(pair.sub_A) is pair.restricted(pair.sub_A)
    # B, then A, then the Welters quotient X; ker μ_B and the report reuse B and A
    assert built == [pair.sub_B, pair.sub_A, K.upper]


def test_complement_requires_principal():
    P = PolarizedLattice(Lattice.standard(2), symplectic_form(1) * 2)
    with pytest.raises(DomainError):
        complement(P, P.lattice)


def test_j_split_case():
    ambient, sub_B = split_pair()
    pair = complement(ambient, sub_B)
    for m in (2, 3, 5):
        j = j_endomorphism(pair, m)
        assert j.matrix == Mat.diagonal([1, 1 - m, 1, 1 - m])


def test_j_whole_lattice():
    P = standard_principal(2)
    pair = complement(P, P.lattice)
    j = j_endomorphism(pair, 3)
    assert j.matrix == Mat.identity(4) * (1 - 3)


def test_j_kernels_and_relation():
    ambient = standard_principal(2)
    pair = complement(ambient, type_m_plane(2))
    j = j_endomorphism(pair, 2)
    one = Mat.identity(4)
    assert (j.matrix - one) * (j.matrix + one) == Mat.zero(4, 4)
    assert kernel_lattice(one - j.matrix, ambient.lattice) == pair.sub_A
    assert kernel_lattice(j.matrix + one, ambient.lattice) == pair.sub_B


def test_j_exponent_precondition():
    ambient = standard_principal(2)
    pair = complement(ambient, type_m_plane(2))
    with pytest.raises(DomainError):
        j_endomorphism(pair, 3)  # exponent of A∩B is 2, does not divide 3


@pytest.mark.parametrize("m", [0, -2])
def test_j_refuses_a_nonpositive_m(cover22, m):
    with pytest.raises(DomainError, match="^m must be >= 1$"):
        j_endomorphism(cover22.pair(), m)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_j_swap_identity(m):
    ambient = standard_principal(2)
    pair = complement(ambient, type_m_plane(m))
    j = j_endomorphism(pair, m)
    j_swapped = j_endomorphism(complement(ambient, pair.sub_A), m)
    assert j_swapped.matrix == Mat.identity(4) * (2 - m) - j.matrix


def _assert_exponent_read_off_the_type_of_B(cov):
    # A∩B ≅ ker λ_B, so its exponent is the last entry of B's type; j reads
    # it there and takes no Smith form of A∩B
    for pair in (cov.pair(), complement(cov.total, prym_sublattice(cov)[0])):
        j_endomorphism(pair, cov.m)
        assert pair.intersection._snf is None
        chain = polarization_type(pair.restricted(pair.sub_B)).chain
        assert (chain[-1] if chain else 1) == quotient_exponent(pair.intersection)


@pytest.mark.parametrize("g, m", [(2, m) for m in range(2, 10)] + [(3, 2), (3, 3), (4, 2)])
def test_intersection_exponent_of_standard_covers(g, m):
    _assert_exponent_read_off_the_type_of_B(standard_cover(g, m))


@settings(max_examples=15, deadline=None)
@given(voltage_covers())
def test_intersection_exponent_of_drawn_covers(cover):
    R, volts, m = cover
    _assert_exponent_read_off_the_type_of_B(cyclic_cover(R, VoltageAssignment(m, volts), m))


def _assert_projection_is_the_block_inverse_one(cov):
    # the cover's own pair, whose B is the transfer image, and the pair whose B is the Prym
    for pair in (cov.pair(), complement(cov.total, prym_sublattice(cov)[0])):
        assert orthogonal_projection(pair) == projection_by_block_inverse(pair)


@pytest.mark.parametrize("g, m", [(2, 2), (2, 3), (3, 3), (2, 5), (4, 2), (8, 8), (16, 4)])
def test_projection_from_the_gram_of_B_on_standard_covers(g, m):
    _assert_projection_is_the_block_inverse_one(standard_cover(g, m))


@settings(max_examples=15, deadline=None)
@given(voltage_covers())
def test_projection_from_the_gram_of_B_on_drawn_covers(cover):
    R, volts, m = cover
    _assert_projection_is_the_block_inverse_one(cyclic_cover(R, VoltageAssignment(m, volts), m))


@pytest.mark.parametrize("kind", comppair.M2_PRESETS)
def test_projection_from_the_gram_of_B_on_the_m2_presets(kind, cover22):
    out = preset_m2(kind, standard_principal(2) if kind == "jacobian_quotient" else cover22)
    assert out.u.matrix == orthogonal_projection(out.pair) == projection_by_block_inverse(out.pair)
    if kind == "jacobian_quotient":
        out = preset_m2(kind, cover22)
        assert orthogonal_projection(out.pair) == projection_by_block_inverse(out.pair)


def test_j_matches_deck_action(cover22):
    prym, _ = prym_sublattice(cover22)
    pair = complement(cover22.total, prym)
    j = j_endomorphism(pair, 2)
    assert j.matrix == cover22.sigma.matrix


def test_welters_m1_degenerate():
    P = standard_principal(1)
    pair = complement(P, P.lattice)
    Q, p = ker_mu_of_pair(pair, 1)
    assert Q.order == 1
    out = welters_construct(pair, Q.subgroup([]), 1)
    assert out.X == P
    assert out.u.matrix == Mat.identity(2)


@pytest.mark.parametrize("g, m", [(1, 2), (2, 2), (1, 3), (2, 3)])
def test_welters_jacobian_preset_exhaustive(g, m):
    """B = the whole lattice: the quotient-of-Jacobians family."""
    P = standard_principal(g)
    tors, p = torsion_subgroup(P, m)
    pair = complement(P, P.lattice)
    for K in enumerate_mti(tors, p):
        out = welters_construct(pair, K, m)
        assert polarization_type(out.X).is_principal
        assert all(out.certificate.values())
        # u u^t = [m] and u^t u = 1 - j were certified; spot-check the matrices
        BX = out.X.lattice.basis
        assert out.u.matrix * out.u_t.matrix * BX == BX * m


def test_welters_rejects_non_mti():
    P = standard_principal(2)
    tors, p = torsion_subgroup(P, 2)
    not_maximal = tors.subgroup([tors.element((Fraction(1, 2), 0, 0, 0))])
    with pytest.raises(IsotropyError):
        welters_construct(complement(P, P.lattice), not_maximal, 2)


def test_welters_rejects_wrong_presentation():
    P = standard_principal(2)
    sub_B = type_m_plane(2)
    tors, p = torsion_subgroup(P, 2)
    K = enumerate_mti(tors, p)[0]
    with pytest.raises(DomainError):
        welters_construct(complement(P, sub_B), K, 2)  # K lives over the wrong lattice


def test_welters_fails_fast_on_bad_divisibility():
    P = standard_principal(2)
    sub_B = type_m_plane(4)  # type (4) does not divide m = 2
    pair = complement(P, sub_B)
    with pytest.raises(DomainError):
        ker_mu_of_pair(pair, 2)


@pytest.mark.parametrize("m", [0, -2])
def test_ker_mu_of_pair_refuses_a_nonpositive_level(cover22, m):
    with pytest.raises(DomainError, match="^level m must be >= 1$"):
        ker_mu_of_pair(cover22.pair(), m)


@pytest.mark.parametrize("m", [0, -2])
def test_welters_construct_refuses_a_nonpositive_level(cover22, m):
    # the refusal is ker_mu_of_pair's, the first thing welters_construct calls
    K = covers.lift_mti_label(cover22, 1, 0)
    with pytest.raises(DomainError, match="^level m must be >= 1$"):
        welters_construct(cover22.pair(), K, m)


def test_preset_jacobian_rank4():
    P = standard_principal(2)
    out = preset_m2("jacobian_quotient", P)
    assert out.X.dim == 2
    assert polarization_type(out.X).is_principal


def test_preset_prym(cover22):
    out = preset_m2("prym_quotient", cover22)
    assert out.X.dim == 1
    assert polarization_type(out.X).is_principal


def test_preset_pullback(cover22):
    out = preset_m2("pullback_quotient", cover22)
    assert out.X.dim == 2
    assert polarization_type(out.X).is_principal


def test_preset_unknown_kind(cover22):
    with pytest.raises(DomainError):
        preset_m2("unknown", cover22)


def test_preset_wrong_degree(cover23):
    with pytest.raises(DomainError):
        preset_m2("prym_quotient", cover23)


def test_pr_b_self_adjointness(cover22):
    _, sub_B = prym_sublattice(cover22)
    pair = complement(cover22.total, sub_B)
    j = j_endomorphism(pair, 2)
    E = cover22.total.form
    one = Mat.identity(cover22.total.ambient_dim)
    assert (one - j.matrix).T * E == E * (one - j.matrix)


def test_welters_on_cover_all_K(cover22):
    _, sub_B = prym_sublattice(cover22)
    pair = complement(cover22.total, sub_B)
    Q, p = ker_mu_of_pair(pair, 2)
    for K in enumerate_mti(Q, p):
        out = welters_construct(pair, K, 2)
        assert out.X.dim == 2
        assert all(out.certificate.values())


def _count_complement(monkeypatch):
    calls = []
    real = comppair.complement

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (comppair, covers):
        monkeypatch.setattr(module, "complement", counting)
    return calls


def test_cmd_welters_builds_one_pair(monkeypatch, tmp_path):
    fixture = tmp_path / "cover.json"
    assert cli.run(["cover", "--g", "2", "--m", "2", "--out", str(fixture)])[0] == cli.EXIT_OK
    calls = _count_complement(monkeypatch)
    code, text = cli.run(["welters", str(fixture), "--K", "1:0"])
    assert code == cli.EXIT_OK, text
    assert len(calls) == 1


def test_welters_census_through_one_pair(monkeypatch):
    cov = standard_cover(2, 3)
    pair = cov.pair()
    labeled = classify_mti_K(cov)
    calls = _count_complement(monkeypatch)
    census = [welters_construct(pair, K, 3) for _, K in labeled]
    assert calls == []
    # pr_B, ker mu_B and j were built once, on the pair
    assert all(out.pair is pair and out.j is census[0].j for out in census)
    _, sub_B = prym_sublattice(cov)
    for out, (_, K) in zip(census, labeled):
        alone = welters_construct(complement(cov.total, sub_B), K, 3)
        assert out.certificate == alone.certificate
        assert all(out.certificate.values())
        assert out.X == alone.X and out.u.matrix == alone.u.matrix
        assert welters_report(out) == welters_report(alone)
