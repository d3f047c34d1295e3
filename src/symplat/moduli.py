"""Dimension and genus bookkeeping for the moduli loci, in closed form.

Pure integer arithmetic: dimensions of A_g, M_g and the Hurwitz-type spaces
of degree-m covers, the dimensions of the loci swept out by the quotient
constructions, the genus of cyclic unramified covers, and the known genus
bounds for curves representing m times the minimal class.
"""

from .errors import DomainError, _Immutable

__all__ = ["LocusReport", "locus_dimensions", "genus_bounds", "two_minimal_locus_dim"]


class LocusReport(_Immutable):
    """All the closed-form dimension data attached to a triple (g, m, r).

    Every field is an int, except ``genus_welters_upper``: None where no
    upper bound is known.
    """

    __slots__ = _key = (
        "g", "m", "r", "dim_Ag", "dim_Mg", "dim_R_gmr", "dim_jacobian_quotient_locus",
        "dim_inverse_prym_locus", "dim_prym_quotient_bound", "prym_target_dim_index",
        "cover_genus", "prym_dim", "genus_lower", "genus_welters_upper",
        "genus_family_lower_bound",
    )

    def __init__(
        self, *, g, m, r, dim_Ag, dim_Mg, dim_R_gmr, dim_jacobian_quotient_locus,
        dim_inverse_prym_locus, dim_prym_quotient_bound, prym_target_dim_index,
        cover_genus, prym_dim, genus_lower, genus_welters_upper, genus_family_lower_bound,
    ):
        self._fill(
            g, m, r, dim_Ag, dim_Mg, dim_R_gmr, dim_jacobian_quotient_locus,
            dim_inverse_prym_locus, dim_prym_quotient_bound, prym_target_dim_index,
            cover_genus, prym_dim, genus_lower, genus_welters_upper, genus_family_lower_bound,
        )

    def to_json_obj(self):
        obj = {name: getattr(self, name) for name in self.__slots__}
        if obj["genus_welters_upper"] is None:
            obj["genus_welters_upper"] = "unknown"
        return obj


def locus_dimensions(g, m, r=0):
    """The dimension table for genus g, cover degree m, branch degree r.

    r is the degree of the reduced branch divisor and must be even; the
    cover genus follows Riemann-Hurwitz, 2g' - 2 = m(2g - 2) + r.
    """
    if g < 2:
        raise DomainError("locus dimensions need base genus g >= 2")
    if m < 1:
        raise DomainError("cover degree must be >= 1")
    if r < 0 or r % 2 != 0:
        raise DomainError("branch degree r must be even and nonnegative")
    lower, upper, family = genus_bounds(g, m)
    return LocusReport(
        g=g,
        m=m,
        r=r,
        dim_Ag=g * (g + 1) // 2,
        dim_Mg=3 * g - 3,
        dim_R_gmr=3 * g - 3 + r,
        # quotients of Jacobians: the quotient map on moduli is etale
        dim_jacobian_quotient_locus=3 * g - 3,
        # quotients of pulled-back Jacobians of cyclic unramified covers
        dim_inverse_prym_locus=3 * g - 3,
        dim_prym_quotient_bound=2 * (g - 1 + m) - 3,
        prym_target_dim_index=m * (g - 1) + 1 + r // 2,
        cover_genus=m * (g - 1) + 1 + r // 2,
        prym_dim=(m - 1) * (g - 1) + r // 2,
        genus_lower=lower,
        genus_welters_upper=upper,
        genus_family_lower_bound=family,
    )


def genus_bounds(g, m):
    """(lower, upper, family_bound) for the genus of an m-minimal curve.

    lower = g always; upper = g at m = 1 (Matsusaka), 2g + 1 at m = 2
    (Welters' classification), unknown (None) for m >= 3.  family_bound =
    mg - m + 1 is the genus realized by the cyclic-unramified-cover family.
    """
    if g < 2:
        raise DomainError("genus bounds need g >= 2")
    if m < 1:
        raise DomainError("cover degree must be >= 1")
    lower = g
    if m == 1:
        upper = g
    elif m == 2:
        upper = 2 * g + 1
    else:
        upper = None
    return lower, upper, m * g - m + 1


def two_minimal_locus_dim(g):
    """Dimension of the locus of 2-minimal ppav of dimension g: equals 3g.

    The three degree-2 families contribute 3g - 3 (quotients of Jacobians),
    3(g + 1) - 3 (Pryms of unramified double covers of genus g + 1 curves,
    whose Pryms have dimension g) and 3g - 3 (quotients of pulled-back
    Jacobians); the maximum is attained by the unramified Prym family.
    """
    if g < 2:
        raise DomainError("locus dimension needs g >= 2")
    families = {
        "jacobian_quotient": 3 * g - 3,
        "prym_unramified": 3 * (g + 1) - 3,
        "pullback_quotient": 3 * g - 3,
    }
    return max(families.values())
