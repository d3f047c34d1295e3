"""Exact symplectic-lattice computations for polarized abelian varieties.

The package realizes, in exact integer/rational arithmetic, the lattice side
of three constructions of principally polarized abelian varieties carrying
low-degree curve classes: isogeny quotients of Jacobians by maximal totally
isotropic torsion subgroups, the Welters complementary-pair construction, and
Prym-type data of cyclic unramified covers built from voltage ribbon graphs.
A companion module tabulates the dimension bookkeeping of the corresponding
moduli loci.
"""

from .errors import BudgetError, CertificationError, DomainError, IsotropyError
from .matrix import Mat, hermite_column_form, integer_kernel, smith_normal_form, xgcd
from .lattice import (
    Lattice,
    index,
    kernel_lattice,
    lattice_intersection,
    lattice_sum,
    preimage_lattice,
    saturate,
)
from .finquot import (
    DEFAULT_BUDGET,
    FiniteQuotient,
    PairingOnQuotient,
    QuotientElement,
    enumerate_mti,
    enumerate_subgroups,
    is_isotropic,
    is_maximal_isotropic,
    orthogonal_subgroup,
)
from .pollat import (
    LatticeMap,
    PolarizationType,
    PolarizedLattice,
    adjoint_map,
    dual_lattice,
    ker_lambda,
    ker_mu,
    ker_mu_pairing,
    polarization_type,
    principal_quotient,
    quotient_by_isotropic,
    standard_principal,
    symplectic_form,
    torsion_subgroup,
)
from .comppair import (
    ComplementaryPair,
    WeltersOutput,
    complement,
    j_endomorphism,
    preset_m2,
    welters_construct,
)
from .covers import (
    CoverHomology,
    RibbonGraph,
    VoltageAssignment,
    birational_predicate,
    classify_mti_K,
    cyclic_cover,
    eta_class,
    ker_mu_basis,
    norm_component_group,
    prym_sublattice,
    standard_cover,
    surface_ribbon,
    verify_kernel_identification,
)
from .moduli import LocusReport, genus_bounds, locus_dimensions, two_minimal_locus_dim

__version__ = "0.1.0"
