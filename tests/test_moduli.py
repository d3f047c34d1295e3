"""Dimension tables and genus bounds against independently coded formulas."""

import re

import pytest

from symplat.errors import DomainError
from symplat.moduli import genus_bounds, locus_dimensions, two_minimal_locus_dim


# hand-coded reference formulas, written independently of the module
REF = {
    "dim_Ag": lambda g, m, r: g * (g + 1) // 2,
    "dim_Mg": lambda g, m, r: 3 * g - 3,
    "dim_R_gmr": lambda g, m, r: 3 * g - 3 + r,
    "dim_jacobian_quotient_locus": lambda g, m, r: 3 * g - 3,
    "dim_inverse_prym_locus": lambda g, m, r: 3 * g - 3,
    "dim_prym_quotient_bound": lambda g, m, r: 2 * (g - 1 + m) - 3,
    "prym_target_dim_index": lambda g, m, r: m * (g - 1) + 1 + r // 2,
    "cover_genus": lambda g, m, r: m * (g - 1) + 1 + r // 2,
    "prym_dim": lambda g, m, r: (m - 1) * (g - 1) + r // 2,
    "genus_family_lower_bound": lambda g, m, r: m * g - m + 1,
}


@pytest.mark.parametrize("g", range(2, 11))
@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("r", [0, 2, 4])
def test_locus_dimensions_against_reference(g, m, r):
    rep = locus_dimensions(g, m, r)
    for field, ref in REF.items():
        assert getattr(rep, field) == ref(g, m, r), field


def test_specific_values():
    rep = locus_dimensions(5, 2, 0)
    assert rep.dim_Ag == 15
    assert rep.dim_R_gmr == 12
    assert rep.cover_genus == 9
    rep = locus_dimensions(6, 2, 0)
    assert rep.dim_R_gmr == 15
    assert rep.cover_genus == 11
    rep = locus_dimensions(2, 3, 0)
    assert rep.cover_genus == 4
    assert rep.prym_dim == 2
    assert rep.dim_inverse_prym_locus == 3
    assert rep.genus_family_lower_bound == 4


def test_r_validation():
    with pytest.raises(DomainError):
        locus_dimensions(2, 2, 3)
    with pytest.raises(DomainError):
        locus_dimensions(2, 2, -2)
    with pytest.raises(DomainError):
        locus_dimensions(1, 2, 0)


@pytest.mark.parametrize("g", range(2, 11))
def test_genus_bounds(g):
    assert genus_bounds(g, 1) == (g, g, g)
    assert genus_bounds(g, 2) == (g, 2 * g + 1, 2 * g - 1)
    for m in (3, 4, 5):
        lower, upper, family = genus_bounds(g, m)
        assert lower == g
        assert upper is None
        assert family == m * g - m + 1


def test_family_bound_below_upper_bound():
    for g in range(2, 11):
        for m in (1, 2):
            lower, upper, family = genus_bounds(g, m)
            assert family <= upper


@pytest.mark.parametrize("g", range(2, 11))
def test_two_minimal_locus(g):
    assert two_minimal_locus_dim(g) == 3 * g


def test_cover_genus_cross_module(cover22, cover23, cover32, cover24):
    for cov in (cover22, cover23, cover32, cover24):
        rep = locus_dimensions(cov.g, cov.m, 0)
        assert rep.cover_genus == cov.cover_genus


def test_report_serialization():
    rep = locus_dimensions(3, 3, 0)
    obj = rep.to_json_obj()
    assert obj["genus_welters_upper"] == "unknown"


MODULI_REFUSALS = [
    (lambda: locus_dimensions(2, 0), "cover degree must be >= 1"),
    (lambda: genus_bounds(1, 2), "genus bounds need g >= 2"),
    (lambda: genus_bounds(2, 0), "cover degree must be >= 1"),
    (lambda: two_minimal_locus_dim(1), "locus dimension needs g >= 2"),
]


@pytest.mark.parametrize("call, message", MODULI_REFUSALS)
def test_moduli_refuses_malformed_input(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
