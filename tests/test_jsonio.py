"""Serialization: bit-exact round trips and canonical dumps."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symplat.errors import DomainError
from symplat.jsonio import (
    SCHEMA,
    cover_from_obj,
    cover_to_obj,
    dumps_canonical,
    frac_from_str,
    frac_to_str,
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


def test_frac_round_trip():
    for x in [0, 1, -17, Fraction(3, 4), Fraction(-22, 7), Fraction(10**30, 7)]:
        assert frac_from_str(frac_to_str(x)) == x
    assert frac_to_str(Fraction(4, 2)) == "2"
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
    assert frac_to_str(x) == str(Fraction(x))


def test_frac_to_str_of_a_bool_is_its_integer():
    assert (frac_to_str(True), frac_to_str(False)) == ("1", "0")


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
