"""Polarized lattices: the homological side of polarized abelian varieties.

A polarized lattice is a lattice of even rank together with an integral,
nondegenerate alternating form on its span.  Duals are taken inside the same
rational span (the polarization identifies the torus with its dual up to the
finite kernel), so kernels of polarization maps become finite quotients of
nested lattices and isogeny quotients become lattice enlargements.
"""

from fractions import Fraction

from .errors import CertificationError, DomainError, IsotropyError, _Immutable, certify
from .finquot import FiniteQuotient, PairingOnQuotient
from .lattice import Lattice
from .matrix import Mat, smith_normal_form

__all__ = [
    "PolarizationType",
    "PolarizedLattice",
    "LatticeMap",
    "standard_principal",
    "symplectic_form",
    "polarization_type",
    "dual_lattice",
    "ker_lambda",
    "torsion_subgroup",
    "ker_mu",
    "ker_mu_pairing",
    "quotient_by_isotropic",
    "principal_quotient",
    "adjoint_map",
]


class PolarizationType(_Immutable):
    """The elementary-divisor chain (d1 | d2 | ... | dn) of a polarization."""

    __slots__ = ("chain",)
    _key = ("chain",)

    def __init__(self, chain):
        chain = tuple(int(d) for d in chain)
        if any(d < 1 for d in chain):
            raise DomainError("polarization type entries must be positive")
        for a, b in zip(chain, chain[1:]):
            if b % a != 0:
                raise DomainError("polarization type must be a divisibility chain")
        object.__setattr__(self, "chain", chain)

    def __iter__(self):
        return iter(self.chain)

    def __len__(self):
        return len(self.chain)

    @property
    def is_principal(self):
        return all(d == 1 for d in self.chain)

    @property
    def degree(self):
        n = 1
        for d in self.chain:
            n *= d
        return n

    def __repr__(self):
        return f"PolarizationType{self.chain}"


class PolarizedLattice(_Immutable):
    """A lattice of rank 2n with an integral nondegenerate alternating form.

    A Gram matrix of determinant 1 is principal, of type (1, ..., 1).  Any
    other takes one Smith form: its diagonal is (d1, d1, d2, d2, ...) for the
    type (d1, d2, ...), ending in 0 when degenerate.
    ``_not_integral`` replaces the error raised when the form is not integral.
    """

    __slots__ = ("lattice", "form", "_gram", "_type")
    _key = ("lattice", "form")

    def __init__(self, lattice, form, _not_integral=None):
        if form.nrows != lattice.ambient_dim or not form.is_square():
            raise DomainError("form must be square of ambient dimension")
        if not form.is_alternating():
            raise DomainError("polarization form must be alternating")
        if lattice.rank % 2 != 0:
            raise DomainError("polarized lattices have even rank")
        gram = lattice.basis.T * form * lattice.basis
        if not gram.is_integral():
            raise _not_integral or DomainError("form is not integral on the lattice")
        if gram.det() == 1:
            # unimodular, so every Smith entry is 1; det = Pf^2 is never -1
            diag = [1] * lattice.rank
        else:
            _, D, _ = smith_normal_form(gram)
            diag = [D.rows[i][i] for i in range(lattice.rank)]
            if diag and diag[-1] == 0:
                raise DomainError("form is degenerate on the lattice span")
            certify("alternating Gram invariants", {"snf-pairing": diag[0::2] == diag[1::2]})
        self._fill(lattice, form, gram, PolarizationType(diag[0::2]))

    @property
    def ambient_dim(self):
        return self.lattice.ambient_dim

    @property
    def rank(self):
        return self.lattice.rank

    @property
    def dim(self):
        """The dimension of the corresponding abelian variety."""
        return self.rank // 2

    def gram(self):
        return self._gram

    def __repr__(self):
        return f"PolarizedLattice(dim={self.dim}, type={polarization_type(self).chain})"


def symplectic_form(g):
    """The standard symplectic form J_g = [[0, I], [-I, 0]] on Q^(2g)."""
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for i in range(g):
        rows[i][g + i] = 1
        rows[g + i][i] = -1
    return Mat(rows, ncols=n)


def standard_principal(g):
    """The principal lattice (Z^(2g), J_g)."""
    return PolarizedLattice(Lattice.standard(2 * g), symplectic_form(g))


def polarization_type(P):
    """The type (d1 | ... | dn) of the polarization, read off its Gram matrix."""
    return P._type


def dual_lattice(P):
    """The dual lattice {x in span : E(x, L) ⊆ Z}, containing the lattice."""
    return Lattice(P.ambient_dim, P.lattice.basis * P.gram().inverse())


def ker_lambda(P):
    """ker of the polarization map: dual/lattice, with its Q/Z pairing."""
    Q = FiniteQuotient(P.lattice, dual_lattice(P))
    return Q, PairingOnQuotient(Q, P.form)


def torsion_subgroup(P, m):
    """The m-torsion (1/m)L / L with its Weil pairing (form m*E)."""
    if m < 1:
        raise DomainError("torsion level must be >= 1")
    Q = FiniteQuotient(P.lattice, P.lattice.scaled(Fraction(1, m)))
    return Q, PairingOnQuotient(Q, P.form * m)


def ker_mu(P, m):
    """ker of mu: ((1/m)L) / L^dual, for the dual polarization at level m.

    The dual abelian variety is (L^dual, m*E), of type (m/d_n, ..., m/d_1),
    and mu: L^dual -> L is multiplication by m, so lambda∘mu = [m] and ker mu
    is ker lambda of the dual.  Requires m >= 1 and every d_i | m.
    """
    if m < 1:
        raise DomainError("level m must be >= 1")
    t = polarization_type(P)
    if any(m % d for d in t):
        raise DomainError(f"polarization type {t.chain} does not divide m={m}")
    return FiniteQuotient(dual_lattice(P), P.lattice.scaled(Fraction(1, m)))


def ker_mu_pairing(P, m):
    """ker mu with the pairing induced from the m-torsion of P (form m*E)."""
    Q = ker_mu(P, m)
    return Q, PairingOnQuotient(Q, P.form * m)


def quotient_by_isotropic(P, K, scale):
    """The isogeny quotient: enlarge the lattice by K, rescale the form.

    K is a subgroup presented with K.lower equal to P's lattice; the result is
    (K.upper, scale*E).  Raises IsotropyError when scale*E fails to be
    integral on the enlarged lattice (exactly the failure of isotropy).
    """
    if K.lower != P.lattice:
        raise DomainError("subgroup is not presented over the polarized lattice")
    return PolarizedLattice(
        K.upper, P.form * Fraction(scale),
        _not_integral=IsotropyError("subgroup is not isotropic at this scale"),
    )


def principal_quotient(P, K, m):
    """quotient_by_isotropic at scale m, certified principal."""
    X = quotient_by_isotropic(P, K, m)
    t = polarization_type(X)
    certify(f"quotient polarization type {t.chain}", {"quotient-principal": t.is_principal})
    return X


class LatticeMap(_Immutable):
    """A rational linear map carrying one lattice into another.

    The matrix maps the source ambient space to the target ambient space;
    integrality (matrix * source ⊆ target) is checked at construction.
    """

    __slots__ = ("matrix", "source", "target")
    _key = ("matrix", "source", "target")

    def __init__(self, matrix, source, target):
        if matrix.ncols != source.ambient_dim or matrix.nrows != target.ambient_dim:
            raise DomainError("map shape does not match the ambient spaces")
        image = matrix * source.basis
        try:
            coords = target.coords_matrix(image)
        except DomainError:
            raise DomainError("image of the source lattice leaves the target span")
        if not coords.is_integral():
            raise DomainError("map does not carry the source lattice into the target")
        self._fill(matrix, source, target)

    def __repr__(self):
        return f"LatticeMap({self.source.ambient_dim}->{self.target.ambient_dim})"


def adjoint_map(f, P_src, P_dst):
    """The Rosati-style adjoint f^t with E_src(f^t x, y) = E_dst(x, f y).

    The defining identity pins f^t on the span of P_dst; the returned matrix
    extends it by zero on the Euclidean complement.  Integrality of
    f^t(L_dst) ⊆ L_src is certified and fails loudly on inconsistent inputs.
    """
    if f.source != P_src.lattice:
        raise DomainError("map source disagrees with the source polarized lattice")
    if not P_dst.lattice.contains_lattice(f.target):
        raise DomainError("map target disagrees with the target polarized lattice")
    Bs, Bd = P_src.lattice.basis, P_dst.lattice.basis
    gram_s = P_src.gram()
    rhs = Bd.T * P_dst.form * (f.matrix * Bs)
    X = gram_s.inverse().T * rhs.T
    pinv_d = (Bd.T * Bd).inverse() * Bd.T
    ft = Bs * X * pinv_d
    # certify the defining identity on the span bases
    lhs = (ft * Bd).T * P_src.form * Bs
    certify("adjoint characterization", {"adjoint-defining": lhs == rhs})
    try:
        return LatticeMap(ft, P_dst.lattice, P_src.lattice)
    except DomainError:
        raise CertificationError(
            "adjoint is not integral on the dual side (inconsistent inputs)",
            ["adjoint-integrality"],
        )
