"""Ribbon graphs, cyclic covers, and the cover-certification operations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symplat import covers, finquot
from symplat.comppair import _pair_orders, complement, ker_mu_of_pair
from symplat.covers import (
    RibbonGraph,
    VoltageAssignment,
    _eta_preimage,
    _power_and_sum,
    _transfer_preimage,
    birational_predicate,
    classify_mti_K,
    cyclic_cover,
    eta_class,
    homology_with_form,
    ker_mu_basis,
    lift_mti_label,
    mti_labels,
    norm_component_group,
    prym_sublattice,
    standard_cover,
    surface_ribbon,
    verify_kernel_identification,
)
from symplat.errors import DomainError
from symplat.finquot import FiniteQuotient, enumerate_mti
from symplat.lattice import Lattice, kernel_lattice, lattice_sum, saturate
from symplat.matrix import Mat
from symplat.pollat import ker_lambda, polarization_type

from conftest import (
    birational_by_membership,
    classify_by_lifting_every_label,
    dense_chain_maps,
    kernel_identification_by_lattices,
    power_and_sum_by_steps,
    preimage_under_mult,
    subdivided_surface,
    voltage_covers,
)


ALL_COVERS = ["cover22", "cover23", "cover32", "cover24"]


def get_cover(request, name):
    return request.getfixturevalue(name)


# -- ribbon graphs -----------------------------------------------------------

@pytest.mark.parametrize("g", [1, 2, 3])
def test_surface_ribbon_euler(g):
    R = surface_ribbon(g)
    assert R.n_vertices == 1
    assert R.n_edges == 2 * g
    assert len(R.faces()) == 1
    assert R.euler_characteristic() == 2 - 2 * g
    assert R.genus() == g


def test_surface_ribbon_invalid_genus():
    with pytest.raises(DomainError):
        surface_ribbon(0)


def test_ribbon_validation():
    with pytest.raises(DomainError):
        RibbonGraph(2, [(0, 1, 2)])  # darts missing


def test_torus_intersection_form():
    P = homology_with_form(surface_ribbon(1))
    assert P.form == Mat([[0, 1], [-1, 0]])
    assert polarization_type(P).is_principal


@pytest.mark.parametrize("g", [1, 2, 3])
def test_surface_homology_principal(g):
    P = homology_with_form(surface_ribbon(g))
    assert P.rank == 2 * g
    assert polarization_type(P).chain == (1,) * g


@pytest.mark.parametrize(
    "R",
    [RibbonGraph(2, [(0, 1), (2, 3)]), RibbonGraph(0, [])],
    ids=["two-components", "no-vertex"],
)
def test_homology_refuses_a_disconnected_graph(R):
    with pytest.raises(DomainError, match="^ribbon graph is not connected$"):
        homology_with_form(R)


def test_two_vertex_graph_homology():
    # a torus spine with a subdivided edge: 2 vertices, 3 edges
    # edges: 0 = a1 (u->v), 1 = a2 (v->u), 2 = b loop at u
    rot_u = (0, 4, 3, 5)   # tail a1, tail b, head a2, head b
    rot_v = (2, 1)         # tail a2, head a1
    R = RibbonGraph(3, [rot_u, rot_v])
    assert R.is_connected()
    P = homology_with_form(R)
    assert R.genus() == 1
    assert P.rank == 2
    assert polarization_type(P).is_principal


# -- the hand-computed (1, 2) cover ------------------------------------------

def test_cover_1_2_hand_fixture():
    cov = standard_cover(1, 2)
    assert cov.cover_genus == 1
    assert cov.sigma.matrix == Mat.identity(2)
    assert cov.pushforward.matrix == Mat([[2, 0], [0, 1]])
    assert cov.transfer.matrix == Mat([[1, 0], [0, 2]])
    sub_A, sub_B = prym_sublattice(cov)
    assert sub_A.rank == 0
    assert sub_B == cov.total.lattice
    eta = eta_class(cov)
    assert eta.order() == 2
    assert (2 * eta).is_zero()


def test_cover_m1_trivial():
    cov = standard_cover(2, 1)
    assert cov.cover_genus == 2
    assert cov.sigma.matrix == Mat.identity(4)
    assert cov.pushforward.matrix == Mat.identity(4)
    assert cov.transfer.matrix == Mat.identity(4)
    sub_A, sub_B = prym_sublattice(cov)
    assert sub_A.rank == 0
    group, component_index = norm_component_group(cov)
    assert group.order == 1
    assert component_index(cov.total.lattice.basis.col(0)) == 0
    with pytest.raises(DomainError):
        eta_class(cov)


# -- cover certification over the acceptance fixtures ------------------------

@pytest.mark.parametrize("name", ALL_COVERS)
def test_cover_genus_formula(request, name):
    cov = get_cover(request, name)
    assert cov.cover_genus == cov.m * cov.g - cov.m + 1
    assert cov.total.rank == 2 * cov.cover_genus


@pytest.mark.parametrize("name", ALL_COVERS)
def test_sigma_identities(request, name):
    cov = get_cover(request, name)
    S, EN = cov.sigma.matrix, cov.total.form
    n = cov.total.ambient_dim
    assert S.T * EN * S == EN
    power = Mat.identity(n)
    for _ in range(cov.m):
        power = power * S
    assert power == Mat.identity(n)
    assert S != Mat.identity(n)


@pytest.mark.parametrize("name", ALL_COVERS)
def test_pushforward_transfer_identities(request, name):
    cov = get_cover(request, name)
    m, n = cov.m, cov.total.ambient_dim
    down, up, S = cov.pushforward.matrix, cov.transfer.matrix, cov.sigma.matrix
    assert down * up == Mat.identity(cov.base.ambient_dim) * m
    total = Mat.zero(n, n)
    power = Mat.identity(n)
    for _ in range(m):
        total = total + power
        power = power * S
    assert up * down == total
    assert up.T * cov.total.form * up == cov.base.form * m


@pytest.mark.parametrize("name", ALL_COVERS)
def test_sigma_fixed_lattice_is_transfer_image(request, name):
    cov = get_cover(request, name)
    n = cov.total.ambient_dim
    fixed = kernel_lattice(cov.sigma.matrix - Mat.identity(n), cov.total.lattice)
    image_cols = (cov.transfer.matrix * cov.base.lattice.basis).columns()
    assert fixed == saturate(image_cols, cov.total.lattice)


@pytest.mark.parametrize("name", ALL_COVERS)
def test_prym_pair_ranks_and_complement(request, name):
    cov = get_cover(request, name)
    sub_A, sub_B = prym_sublattice(cov)
    assert sub_A.rank == 2 * (cov.cover_genus - cov.g)
    assert sub_B.rank == 2 * cov.g
    # complement() applied to sub_B reproduces sub_A = ker pi_* (saturated)
    pair = complement(cov.total, sub_B)
    assert pair.sub_A == sub_A
    assert pair.sub_A == kernel_lattice(cov.pushforward.matrix, cov.total.lattice)


@pytest.mark.parametrize("name", ALL_COVERS)
def test_restricted_type_divides_m(request, name):
    cov = get_cover(request, name)
    _, sub_B = prym_sublattice(cov)
    pair = complement(cov.total, sub_B)
    chain = polarization_type(pair.restricted(sub_B)).chain
    assert all(cov.m % d == 0 for d in chain)


@pytest.mark.parametrize("name", ALL_COVERS)
def test_pair_order_identity(request, name):
    from symplat.pollat import ker_lambda

    cov = get_cover(request, name)
    pair = cov.pair()
    a = pair.intersection.order
    assert a == ker_lambda(pair.restricted(pair.sub_A))[0].order
    assert a == ker_lambda(pair.restricted(pair.sub_B))[0].order


@pytest.mark.parametrize("name", ALL_COVERS)
def test_component_group(request, name):
    cov = get_cover(request, name)
    group, component_index = norm_component_group(cov)
    assert group.order == cov.m
    _, P1, _ = ker_mu_basis(cov)
    assert component_index(P1.rep) == 1
    # sigma-translates x - sigma(x) of lattice cycles land in the identity component
    x = cov.total.lattice.basis.col(0)
    diff = tuple(a - b for a, b in zip(x, cov.sigma.matrix.apply(x)))
    assert component_index(diff) == 0
    with pytest.raises(DomainError):
        component_index(tuple(Fraction(1, 2 * cov.m) for _ in range(cov.total.ambient_dim)))


@pytest.mark.parametrize("name", ALL_COVERS)
def test_eta_class(request, name):
    cov = get_cover(request, name)
    eta = eta_class(cov)
    assert eta.order() == cov.m
    assert (cov.m * eta).is_zero()
    # duality oracle: eta generates the same subgroup as the voltage dual
    w = cov.voltage_functional()
    E0 = cov.base.form
    z = E0.T.inverse() * w.T  # integer since E0 is unimodular
    assert z.is_integral()
    dual_gen = tuple(Fraction(x, cov.m) for x in z.column_vector())
    lam0 = cov.base.lattice
    span_eta = lattice_sum(lam0, Lattice.from_generators(lam0.ambient_dim, [eta.rep]))
    span_dual = lattice_sum(lam0, Lattice.from_generators(lam0.ambient_dim, [dual_gen]))
    assert span_eta == span_dual


@pytest.mark.parametrize("name", ALL_COVERS)
def test_ker_mu_basis(request, name):
    cov = get_cover(request, name)
    xi_bar, P1, checks = ker_mu_basis(cov)
    assert all(checks.values())
    assert xi_bar.order() == cov.m
    assert P1.order() == cov.m


@pytest.mark.parametrize("name, expected", [("cover22", 3), ("cover23", 4), ("cover32", 3), ("cover24", 6)])
def test_classification_counts(request, name, expected):
    cov = get_cover(request, name)
    labeled = classify_mti_K(cov)
    assert len(labeled) == expected
    labels = [lab for lab, _ in labeled]
    assert (1, 0) in labels  # <xi_bar> is always present
    assert (0, 1) in labels  # <P_1>
    assert len(set(labels)) == len(labels)


@pytest.mark.parametrize("name", ALL_COVERS)
def test_birational_predicate(request, name):
    cov = get_cover(request, name)
    _, P1, _ = ker_mu_basis(cov)
    for (a, b), K in classify_mti_K(cov):
        # K = <a xi + b P1> contains l P1 != 0 iff some t has t*a = 0, t*b != 0
        contains_some_p1 = any(
            (t * a) % cov.m == 0 and (t * b) % cov.m != 0 for t in range(1, cov.m)
        )
        assert birational_predicate(K, P1) == (not contains_some_p1)


@pytest.mark.parametrize("name", ALL_COVERS)
def test_kernel_identification(request, name):
    cov = get_cover(request, name)
    m, g = cov.m, cov.g
    _, P1, _ = ker_mu_basis(cov)
    for label, K in classify_mti_K(cov):
        ok, order = verify_kernel_identification(cov, K)
        assert ok
        if birational_predicate(K, P1):
            assert order == m ** (2 * g) * m


def test_kernel_identification_eta_comparison(cover24):
    # for birational K the identified subgroup is [m]^{-1}<eta>, at composite m too
    cov = cover24
    eta = eta_class(cov)
    lam0 = cov.base.lattice
    eta_group = FiniteQuotient(
        lam0, lattice_sum(lam0, Lattice.from_generators(lam0.ambient_dim, [eta.rep]))
    )
    expected = preimage_under_mult(eta_group, cov.m)
    assert expected.order == cov.m ** (2 * cov.g) * cov.m
    assert _eta_preimage(cov) == expected.upper
    _, P1, _ = ker_mu_basis(cov)
    birational = [K for _, K in classify_mti_K(cov) if birational_predicate(K, P1)]
    assert birational
    for K in birational:
        assert verify_kernel_identification(cov, K) == (True, expected.order)


def test_kernel_identification_compares_eta_at_composite_m(monkeypatch):
    # 1:0 is birational at m = 4, so the [m]^{-1}<eta> comparison runs and fails
    cov = standard_cover(2, 4)
    K = dict(classify_mti_K(cov))[(1, 0)]
    assert verify_kernel_identification(cov, K)[0]
    monkeypatch.setattr(covers, "_eta_preimage", lambda cov: cov.base.lattice)
    assert not verify_kernel_identification(cov, K)[0]


def _assert_noncyclic_lagrangians_not_birational(cov):
    # ker mu_B = (Z/m)^2 has sigma(m) Lagrangians, one per index-m sublattice
    # of Z^2; a non-cyclic K never has K + <P_1> = ker mu_B, so P_1 has order
    # below m modulo K
    _, P1, _ = ker_mu_basis(cov)
    found = enumerate_mti(*ker_mu_of_pair(cov.pair(), cov.m))
    assert len(found) == sum(d for d in range(1, cov.m + 1) if cov.m % d == 0)
    for K in found:
        if len(K.invariants) == 2:
            assert K.order_modulo(P1) < cov.m


@pytest.mark.parametrize("m", [4, 8, 9])
def test_noncyclic_lagrangians_are_not_birational(m):
    _assert_noncyclic_lagrangians_not_birational(standard_cover(2, m))


@settings(max_examples=4, deadline=None)
@given(voltage_covers(st.just(2), st.sampled_from((4, 8, 9)), st.just(False)))
def test_noncyclic_lagrangians_are_not_birational_on_drawn_voltages(cover):
    R, volts, m = cover
    _assert_noncyclic_lagrangians_not_birational(cyclic_cover(R, VoltageAssignment(m, volts), m))


def test_lifting_every_label_builds_one_orthogonal(monkeypatch):
    # the pairing keeps |R| once; is_maximal_isotropic builds no S^perp
    cov = standard_cover(2, 6)
    calls = []
    real = finquot.orthogonal_subgroup

    def counting(S, p):
        calls.append(S)
        return real(S, p)

    monkeypatch.setattr(finquot, "orthogonal_subgroup", counting)
    labels = mti_labels(6)
    assert len(labels) == 12
    for a, b in labels:
        lift_mti_label(cov, a, b)
    assert len(calls) == 1


# -- input validation ---------------------------------------------------------

def test_disconnected_cover_rejected():
    R = surface_ribbon(2)
    with pytest.raises(DomainError):
        cyclic_cover(R, VoltageAssignment(2, [0, 0, 0, 0]), 2)


def test_ramified_cover_rejected():
    # a one-loop sphere graph: its two faces each traverse the loop once,
    # so any nonzero voltage has nonzero face total
    R = RibbonGraph(1, [(0, 1)])
    assert R.genus() == 0
    with pytest.raises(DomainError):
        cyclic_cover(R, VoltageAssignment(2, [1]), 2)


def test_voltage_validation():
    R = surface_ribbon(1)
    with pytest.raises(DomainError):
        cyclic_cover(R, VoltageAssignment(3, [1, 0]), 2)  # modulus mismatch
    with pytest.raises(DomainError):
        cyclic_cover(R, VoltageAssignment(2, [1]), 2)  # wrong length


def test_nonstandard_voltage_cover():
    # voltages (1, 1) on the torus still give a connected double cover
    R = surface_ribbon(1)
    cov = cyclic_cover(R, VoltageAssignment(2, [1, 1]), 2)
    assert cov.cover_genus == 1
    cov3 = cyclic_cover(surface_ribbon(2), VoltageAssignment(3, [2, 0, 1, 0]), 3)
    assert cov3.cover_genus == 4


# -- chain maps on edge indices against the dense chain matrices -------------

def test_subdivided_surface_is_the_two_vertex_torus():
    R = subdivided_surface(1)
    assert (R.n_vertices, R.n_edges, R.genus()) == (2, 3, 1)
    assert [subdivided_surface(g).genus() for g in (2, 3)] == [2, 3]


@settings(max_examples=40, deadline=None)
@given(voltage_covers())
def test_chain_maps_against_dense_matrices(cover):
    R, volts, m = cover
    cov = cyclic_cover(R, VoltageAssignment(m, volts), m)
    sigma, push, transfer = dense_chain_maps(cov)
    assert cov.sigma.matrix == sigma
    assert cov.pushforward.matrix == push
    assert cov.transfer.matrix == transfer


# -- each side of the Prym pair, and each label, computed once ---------------

@settings(max_examples=20, deadline=None)
@given(voltage_covers())
def test_pair_orders_against_dual_lattices(cover):
    R, volts, m = cover
    pair = cyclic_cover(R, VoltageAssignment(m, volts), m).pair()
    orders = _pair_orders(pair)
    assert orders["ker λ_A"] == ker_lambda(pair.restricted(pair.sub_A))[0].order
    assert orders["ker λ_B"] == ker_lambda(pair.restricted(pair.sub_B))[0].order
    assert orders["A∩B"] == orders["ker λ_B"]


def _psi(m):
    """Dedekind's psi: m times the product of (1 + 1/p) over the primes p | m."""
    out = m
    for p in range(2, m + 1):
        if m % p == 0 and all(p % q for q in range(2, p)):
            out = out * (p + 1) // p
    return out


def _assert_classified_as_by_lifting(cov):
    found = classify_mti_K(cov)
    expected = classify_by_lifting_every_label(cov)
    assert [label for label, _ in found] == [label for label, _ in expected]
    assert [K.upper for _, K in found] == [K.upper for _, K in expected]
    assert len(found) == _psi(cov.m)


@pytest.mark.parametrize("m", [4, 6, 8, 9])
def test_classification_matches_lifting_every_label(m):
    _assert_classified_as_by_lifting(standard_cover(2, m))


@settings(max_examples=8, deadline=None)
@given(voltage_covers(st.just(2), st.sampled_from((4, 6, 8, 9)), st.just(False)))
def test_classification_matches_lifting_every_label_on_drawn_voltages(cover):
    R, volts, m = cover
    _assert_classified_as_by_lifting(cyclic_cover(R, VoltageAssignment(m, volts), m))


def test_norm_component_group_is_kept(cover23):
    assert norm_component_group(cover23) is norm_component_group(cover23)


# -- kernel identification from the order of P_1 modulo K --------------------

def _assert_identified_as_by_lattices(cov):
    _, P1, _ = ker_mu_basis(cov)
    for label, K in classify_mti_K(cov):
        expected = kernel_identification_by_lattices(cov, K)
        assert verify_kernel_identification(cov, K) == expected, label
        assert birational_predicate(K, P1) == birational_by_membership(K, P1), label


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 9])
def test_kernel_identification_matches_the_lattice_oracle(m):
    _assert_identified_as_by_lattices(standard_cover(2, m))


@settings(max_examples=8, deadline=None)
@given(voltage_covers(st.just(2), st.sampled_from((4, 6, 8, 9)), st.just(False)))
def test_kernel_identification_matches_the_lattice_oracle_on_drawn_voltages(cover):
    R, volts, m = cover
    _assert_identified_as_by_lattices(cyclic_cover(R, VoltageAssignment(m, volts), m))


def test_k_plus_p1_is_lifted_only_strictly_between_k_and_ker_mu(monkeypatch):
    # at m = 4, <2 xi + P_1> contains 2 P_1 but not P_1: K + <P_1> has order 8 of 16
    cov = standard_cover(2, 4)
    Q, _ = ker_mu_of_pair(cov.pair(), 4)
    _, P1, _ = ker_mu_basis(cov)
    labeled = classify_mti_K(cov)
    K = dict(labeled)[(2, 1)]
    assert K.order_modulo(P1) == 2 and K.order * 2 < Q.order
    expected = {label: kernel_identification_by_lattices(cov, K) for label, K in labeled}
    lifted = []
    subgroup = FiniteQuotient.subgroup

    def counting(self, elements):
        lifted.append(self)
        return subgroup(self, elements)

    monkeypatch.setattr(FiniteQuotient, "subgroup", counting)
    for label, K in labeled:
        before = len(lifted)
        assert verify_kernel_identification(cov, K) == expected[label], label
        assert len(lifted) - before == (label == (2, 1)), label
    assert lifted == [Q] and expected[(2, 1)] == (True, 4 ** 4 * 2)


def test_transfer_preimages_are_kept(cover23):
    K = classify_mti_K(cover23)[0][1]
    assert _transfer_preimage(cover23, K.upper) is _transfer_preimage(cover23, K.upper)
    assert _eta_preimage(cover23) is _eta_preimage(cover23)


@settings(max_examples=20, deadline=None)
@given(voltage_covers(st.integers(1, 2), st.integers(1, 9)))
def test_sigma_powers_by_doubling_match_the_steps(cover):
    R, volts, m = cover
    sigma = cyclic_cover(R, VoltageAssignment(m, volts), m).sigma.matrix
    for k in range(1, 12):
        assert _power_and_sum(sigma, k) == power_and_sum_by_steps(sigma, k), k
