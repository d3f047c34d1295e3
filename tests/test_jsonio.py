"""Serialization: bit-exact round trips and canonical dumps."""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symplat.errors import DomainError
from symplat.jsonio import (
    SCHEMA,
    cover_from_obj,
    cover_to_obj,
    dumps_canonical,
    frac_from_str,
    lattice_from_obj,
    lattice_to_obj,
    mat_from_obj,
    mat_to_obj,
    polarized_from_obj,
    polarized_to_obj,
)
from symplat.lattice import Lattice
from symplat.matrix import Mat
from symplat.pollat import PolarizedLattice, standard_principal, symplectic_form

from conftest import frac_to_str, json_canonical


def entry(x):
    """The string ``mat_to_obj`` writes for the one entry of the 1x1 matrix [x]."""
    return mat_to_obj(Mat([[x]]))["rows"][0][0]


def test_frac_round_trip():
    for x in [0, 1, -17, Fraction(3, 4), Fraction(-22, 7), Fraction(10**30, 7)]:
        assert frac_from_str(entry(x)) == x
    assert entry(Fraction(4, 2)) == "2"
    with pytest.raises(DomainError):
        frac_from_str("x/y")
    with pytest.raises(DomainError):
        frac_from_str("1/0")


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.integers(),
    st.fractions(),
    st.builds(lambda k, d: Fraction(k * d, d), st.integers(), st.integers(1, 9)),
))
def test_frac_to_str_is_the_string_of_its_fraction(x):
    # ints of either sign, integral Fractions such as Fraction(4, 2), proper Fractions
    assert entry(x) == frac_to_str(x) == str(Fraction(x))


def test_frac_to_str_of_a_bool_is_its_integer():
    assert (entry(True), entry(False)) == (frac_to_str(True), frac_to_str(False)) == ("1", "0")


@st.composite
def rational_matrices(draw):
    """Matrices up to 4x4, 0-row and 0-column ones included, over a drawn denominator.

    Entries over a common den share part of a factor with it (2/12 prints as 1/6).
    """
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    den = draw(st.integers(1, 12))
    row = st.lists(st.integers(-30, 30), min_size=ncols, max_size=ncols)
    num = draw(st.lists(row, min_size=nrows, max_size=nrows))
    # built by a product, so no rows are kept from the constructor
    return Mat(num, ncols=ncols).scaled(Fraction(1, den))


def fraction_strings(rows):
    return [[frac_to_str(x) for x in row] for row in rows]


def test_entry_strings_in_lowest_terms():
    M = Mat([[1, 2, 0, -4, -6, 4]]).scaled(Fraction(1, 4))
    assert M.den == 4
    assert mat_to_obj(M)["rows"] == [["1/4", "1/2", "0", "-1", "-3/2", "1"]]
    assert M._rows is None


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_mat_and_lattice_entries_match_the_fraction_route(M):
    L = Lattice(M.nrows, M)  # rank 0 when M is zero or has no columns
    obj, lattice_obj = mat_to_obj(M), lattice_to_obj(L)
    assert M._rows is None and L.basis._rows is None
    assert obj == {"rows": fraction_strings(M.rows), "ncols": M.ncols}
    assert lattice_obj == {
        "ambient_dim": M.nrows,
        "basis": fraction_strings(L.basis.col(j) for j in range(L.rank)),
    }


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), st.data())
def test_polarized_entries_match_the_fraction_route(g, data):
    # basis B = B' * d/e and form J * e^2 k/d, so the Gram d k B'^T J B' is integral
    n = 2 * g
    e, d, k = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
    cols = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                              min_size=n, max_size=n))
    B = Mat.from_columns(cols, nrows=n).scaled(Fraction(d, e))
    form = symplectic_form(g).scaled(Fraction(e * e * k, d))
    rank = data.draw(st.sampled_from([0, n]))
    try:
        P = PolarizedLattice(Lattice(n, B.take_columns(range(rank))), form)
    except DomainError:
        assume(False)  # a degenerate draw
    obj = polarized_to_obj(P)
    assert P.lattice.basis._rows is None and P.form._rows is None
    assert obj == {
        "ambient_dim": n,
        "basis": fraction_strings(P.lattice.basis.col(j) for j in range(P.rank)),
        "form": fraction_strings(P.form.rows),
    }


json_text = st.text(st.one_of(st.sampled_from('∩∘λ"\\\n\t\x00\x1f\x7f'), st.characters()),
                    max_size=6)
json_leaves = st.one_of(
    st.none(), st.booleans(), json_text,
    st.integers(-(2**70), 2**70), st.integers(2**64, 2**200), st.floats(),
)
json_payloads = st.recursive(json_leaves, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=4).map(tuple),
    st.lists(json_text, max_size=4),
    st.dictionaries(json_text, kids, max_size=4),
), max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(json_payloads)
def test_dumps_canonical_writes_what_json_writes(payload):
    assert dumps_canonical(payload) == json_canonical(payload)


def test_dumps_canonical_on_pinned_payloads():
    for payload in [{}, [], (), {"a": {}, "b": [], "c": ()}, [[], [[]], {"x": [""]}],
                    {"A∩B": "λ∘μ", "q\"\\": [-1, 2**64 + 1, True, None, float("nan")]}]:
        assert dumps_canonical(payload) == json_canonical(payload)


@pytest.mark.parametrize("payload", [{1: "a"}, {"a": {None: 1}}, {"a": [{("k",): 0}]}])
def test_dumps_canonical_refuses_a_key_that_is_not_a_string(payload):
    with pytest.raises(TypeError):
        dumps_canonical(payload)


@pytest.mark.parametrize("payload", [object(), {"a": [1, Fraction(1, 2)]}, [{1, 2}], ["s", b"b"]])
def test_dumps_canonical_refuses_what_json_cannot_serialize(payload):
    with pytest.raises(TypeError):
        json_canonical(payload)
    with pytest.raises(TypeError):
        dumps_canonical(payload)


def test_mat_round_trip():
    M = Mat([[1, Fraction(1, 2)], [Fraction(-3, 7), 0]], ncols=2)
    assert mat_from_obj(mat_to_obj(M)) == M
    empty = Mat.from_columns([], nrows=3)
    assert mat_from_obj(mat_to_obj(empty)) == empty


def test_lattice_round_trip():
    L = Lattice.from_generators(3, [(1, 2, 0), (0, Fraction(1, 3), 1)])
    assert lattice_from_obj(lattice_to_obj(L)) == L


def test_polarized_round_trip():
    P = standard_principal(2)
    assert polarized_from_obj(polarized_to_obj(P)) == P
    scaled = PolarizedLattice(
        Lattice.standard(2).scaled(Fraction(1, 2)), symplectic_form(1) * 4
    )
    assert polarized_from_obj(polarized_to_obj(scaled)) == scaled


def test_cover_round_trip(cover22):
    obj = cover_to_obj(cover22)
    assert obj["schema"] == SCHEMA
    rebuilt = cover_from_obj(obj)
    assert rebuilt.total == cover22.total
    assert rebuilt.sigma.matrix == cover22.sigma.matrix
    assert rebuilt.pushforward.matrix == cover22.pushforward.matrix
    assert rebuilt.transfer.matrix == cover22.transfer.matrix


def test_cover_tamper_detection(cover22):
    obj = cover_to_obj(cover22)
    obj["sigma"]["rows"][0][0] = "99"
    with pytest.raises(DomainError):
        cover_from_obj(obj)


def test_dumps_canonical_stable():
    payload = {"b": 1, "a": {"z": [1, 2], "y": "s"}}
    assert dumps_canonical(payload) == dumps_canonical(payload)
    assert dumps_canonical(payload).endswith("\n")
    assert dumps_canonical({"a": 1, "b": 2}) == dumps_canonical({"b": 2, "a": 1})


def test_ambient_dim_must_be_a_nonnegative_int():
    for dim in ("x", True, -1, 2.0, None):
        for decode in (lattice_from_obj, polarized_from_obj):
            with pytest.raises(DomainError):
                decode({"ambient_dim": dim, "basis": [], "form": []})
    assert lattice_from_obj({"ambient_dim": 0, "basis": []}) == Lattice.standard(0)


JSONIO_REFUSALS = [
    (lambda: lattice_from_obj({"ambient_dim": 2}), "malformed lattice object"),
    (lambda: lattice_from_obj({"basis": []}), "malformed lattice object"),
    (lambda: lattice_from_obj({"ambient_dim": 2, "basis": 5}), "malformed lattice object"),
]


@pytest.mark.parametrize("call, message", JSONIO_REFUSALS)
def test_jsonio_refuses_malformed_input(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
