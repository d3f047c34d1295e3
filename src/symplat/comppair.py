"""Complementary pairs and the Welters construction.

Inside a principal lattice (JN at the homology level), a nondegenerate
saturated sublattice B determines its orthogonal complement A, the finite
intersection A ∩ B = ker λ_A = ker λ_B, and the endomorphism j acting as 1
on A and 1-m on B.  Choosing a maximal totally isotropic subgroup K of
ker μ_B produces a principal lattice X = B̂/K together with maps u, u^t
satisfying u∘u^t = [m] and u^t∘u = 1-j; those identities are certified
exactly on every run.  A pair keeps its sides A and B, pr_B, ker μ_B and j
once computed, so a Welters census over every K of ker μ_B builds them once.
"""

from functools import wraps

from .errors import DomainError, IsotropyError, _Immutable, certify
from .finquot import FiniteQuotient, enumerate_mti, is_maximal_isotropic
from .lattice import Lattice, kernel_lattice, lattice_sum, saturate
from .matrix import Mat
from .pollat import (
    LatticeMap,
    PolarizedLattice,
    adjoint_map,
    ker_mu_pairing,
    polarization_type,
)

__all__ = [
    "ComplementaryPair",
    "WeltersOutput",
    "complement",
    "j_endomorphism",
    "ker_mu_of_pair",
    "orthogonal_projection",
    "welters_construct",
    "preset_m2",
    "M2_PRESETS",
]


def _kept(fn):
    """Compute fn(obj, *args) once per object and arguments, kept in obj._cache."""
    @wraps(fn)
    def kept(obj, *args):
        if (key := (fn.__name__, *args)) not in obj._cache:
            obj._cache[key] = fn(obj, *args)
        return obj._cache[key]
    return kept


class ComplementaryPair(_Immutable):
    """A pair (A, B) of orthogonal-complementary sublattices of a principal one."""

    __slots__ = ("ambient", "sub_B", "sub_A", "_cache")

    def __init__(self, ambient, sub_B, sub_A):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "sub_B", sub_B)
        object.__setattr__(self, "sub_A", sub_A)
        object.__setattr__(self, "_cache", {})

    @_kept
    def restricted(self, sub):
        """The polarized lattice (sub, E|span(sub))."""
        return PolarizedLattice(sub, self.ambient.form)

    @property
    @_kept
    def intersection(self):
        """A ∩ B as the finite group Λ/(Λ_A ⊕ Λ_B)."""
        return FiniteQuotient(lattice_sum(self.sub_A, self.sub_B), self.ambient.lattice)

    def __repr__(self):
        return (
            f"ComplementaryPair(rank_A={self.sub_A.rank}, rank_B={self.sub_B.rank}, "
            f"|A∩B|={self.intersection.order})"
        )


class WeltersOutput(_Immutable):
    """The certified output (X, u, u^t, j) of the Welters construction."""

    __slots__ = ("X", "u", "u_t", "j", "pair", "m", "K", "certificate")

    def __init__(self, X, u, u_t, j, pair, m, K, certificate):
        for name, value in [
            ("X", X), ("u", u), ("u_t", u_t), ("j", j),
            ("pair", pair), ("m", m), ("K", K), ("certificate", certificate),
        ]:
            object.__setattr__(self, name, value)

    def __repr__(self):
        return f"WeltersOutput(dim X={self.X.dim}, m={self.m})"


def complement(ambient, sub_B):
    """The complementary pair determined by B inside a principal lattice.

    A is the saturated E-orthogonal complement of B; the intersection A ∩ B
    is presented as the finite group Λ/(Λ_A ⊕ Λ_B) (the kernel of the sum
    isogeny A x B → JN, which consists of the pairs (x, -x) with x in A ∩ B).
    Certifies |A ∩ B| = |ker λ_A| = |ker λ_B|.
    """
    if not polarization_type(ambient).is_principal:
        raise DomainError("complementary pairs require a principal ambient lattice")
    if not ambient.lattice.contains_lattice(sub_B):
        raise DomainError("B is not a sublattice of the ambient lattice")
    if saturate(sub_B.basis.columns(), ambient.lattice) != sub_B:
        raise DomainError("B must be saturated in the ambient lattice")
    conditions = (ambient.form * sub_B.basis).T
    pair = ComplementaryPair(ambient, sub_B, kernel_lattice(conditions, ambient.lattice))
    try:
        pair.restricted(sub_B)
    except DomainError:
        # the only refusals left: B has odd rank or the form degenerates on it
        raise DomainError(
            "the form degenerates on B: not (the lattice of) an abelian subvariety"
        )
    rank_ok = pair.sub_A.rank + sub_B.rank == ambient.rank
    certify("complement rank count", {"complement-rank": rank_ok})
    orders = _pair_orders(pair)
    certify(f"order identity |A∩B| = |ker λ_A| = |ker λ_B| on {orders}", {
        "pair-order-identity": len(set(orders.values())) == 1,
    })
    return pair


@_kept
def _pair_orders(pair):
    """|A∩B|, |ker λ_A| and |ker λ_B| by name; |ker λ| = (d1 ⋯ dn)^2."""
    return {
        "A∩B": pair.intersection.order,
        "ker λ_A": polarization_type(pair.restricted(pair.sub_A)).degree ** 2,
        "ker λ_B": polarization_type(pair.restricted(pair.sub_B)).degree ** 2,
    }


@_kept
def orthogonal_projection(pair):
    """The E-orthogonal projection of the ambient span onto span(B) along span(A)."""
    A, B = pair.sub_A.basis, pair.sub_B.basis
    n = pair.ambient.ambient_dim
    block = A.hstack(B)
    zero_then_B = Mat.zero(n, A.ncols).hstack(B)
    return zero_then_B * block.inverse()


@_kept
def j_endomorphism(pair, m):
    """The endomorphism j = 1 - m*pr_B, certified against its identities.

    j acts as 1 on A and as 1-m on B, satisfies the Prym-Tjurin relation
    (j-1)(j+m-1) = 0, has ker(1-j) saturated equal to A and ker(j+m-1) equal
    to B, and is E-self-adjoint through 1-j = m*pr_B.
    """
    # A∩B ≅ ker λ_B, so its exponent is the last (largest) entry of the type of B
    if m % max(polarization_type(pair.restricted(pair.sub_B)), default=1) != 0:
        raise DomainError("exponent of A∩B must divide m")
    n = pair.ambient.ambient_dim
    pr_B = orthogonal_projection(pair)
    j = Mat.identity(n) - pr_B * m
    lam = pair.ambient.lattice
    coords = lam.coords_matrix(j * lam.basis)
    certify("lattice preservation by j", {"j-integrality": coords.is_integral()})
    one = Mat.identity(n)
    E = pair.ambient.form
    certify("j identities", {
        "prym-tjurin": (j - one) * (j + one * (m - 1)) == Mat.zero(n, n),
        "ker(1-j)=A": kernel_lattice(one - j, lam) == pair.sub_A,
        "ker(j+m-1)=B": kernel_lattice(j + one * (m - 1), lam) == pair.sub_B,
        "pr_B-self-adjoint": (one - j).T * E == E * (one - j),
    })
    return LatticeMap(j, lam, lam)


@_kept
def ker_mu_of_pair(pair, m):
    """ker μ_B = ((1/m)Λ_B)/Λ_B^† with the pairing of form m*E."""
    return ker_mu_pairing(pair.restricted(pair.sub_B), m)


def welters_construct(pair, K, m):
    """Run the full construction (Λ, Λ_B, K) → (X, u, u^t, j) and certify it.

    ``pair`` is the complementary pair of B (see ``complement``), which keeps
    pr_B, ker μ_B and j: a census over every K builds them once.  ``K`` is a
    maximal totally isotropic subgroup of ker μ_B (a FiniteQuotient presented
    over the dual lattice of B).  The returned certificate records every
    identity checked; any failure raises CertificationError naming it.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    ambient = pair.ambient
    Qmu, pmu = ker_mu_of_pair(pair, m)
    if not K.is_subgroup_of(Qmu):
        raise DomainError("K is not presented as a subgroup of ker μ_B")
    if not is_maximal_isotropic(K, pmu):
        raise IsotropyError("K is not maximal totally isotropic in ker μ_B")

    j_map = j_endomorphism(pair, m)
    pr_B = orthogonal_projection(pair)
    lam = ambient.lattice
    dualB = Qmu.lower

    X = PolarizedLattice(K.upper, ambient.form * m)
    u = LatticeMap(pr_B, lam, X.lattice)
    u_t = adjoint_map(u, ambient, X)
    BX, j, n = X.lattice.basis, j_map.matrix, lam.ambient_dim
    one = Mat.identity(n)
    certificate = certify("welters certification", {
        # the identification JN/A ≅ B̂ at lattice level
        "pr_B(Λ) = Λ_B^†": Lattice(n, pr_B * lam.basis) == dualB,
        "X principal": polarization_type(X).is_principal,
        "u∘u_t = [m]": u.matrix * u_t.matrix * BX == BX * m,
        "u_t∘u = 1 - j": u_t.matrix * u.matrix == one - j,
        "(j-1)(j+m-1) = 0": (j - one) * (j + one * (m - 1)) == Mat.zero(n, n),
        "|A∩B| = |ker λ_A| = |ker λ_B|": len(set(_pair_orders(pair).values())) == 1,
    })
    return WeltersOutput(X, u, u_t, j_map, pair, m, K, certificate)


M2_PRESETS = ("jacobian_quotient", "prym_quotient", "pullback_quotient")


def preset_m2(kind, fixture, K=None):
    """The three m = 2 construction families, dispatched on ``kind``.

    - jacobian_quotient: fixture is a principal PolarizedLattice; B is the
      whole lattice and K a maximal isotropic subgroup of the 2-torsion.
    - prym_quotient: fixture is a CoverHomology of a double cover; B is the
      Prym sublattice (the saturated kernel of the norm).
    - pullback_quotient: fixture is the same cover; B is the saturated
      transfer image (the roles of A and B exchanged).

    When K is omitted the first maximal totally isotropic subgroup in
    canonical order is used.
    """
    if kind not in M2_PRESETS:
        raise DomainError(f"unknown preset {kind!r}; expected one of {M2_PRESETS}")
    m = 2
    if kind == "jacobian_quotient":
        ambient = fixture if isinstance(fixture, PolarizedLattice) else fixture.total
        sub_B = ambient.lattice
    else:
        cov = fixture
        if cov.m != m:
            raise DomainError("prym/pullback presets need a degree-2 cover fixture")
        ambient = cov.total
        prym, pullback = cov.prym_sublattice()
        sub_B = prym if kind == "prym_quotient" else pullback
    pair = complement(ambient, sub_B)
    if K is None:
        Qmu, pmu = ker_mu_of_pair(pair, m)
        K = enumerate_mti(Qmu, pmu)[0]
    return welters_construct(pair, K, m)
