"""Census of principal quotients of a principal lattice by isotropic torsion.

For a principally polarized lattice (Z^(2g), J_g) and a level m, every
maximal totally isotropic subgroup K of the m-torsion (with respect to the
Weil pairing) yields an isogeny quotient carrying an induced principal
polarization: enlarge the lattice by the lifts of K and rescale the form by
m.  This script enumerates all such K for small (g, m), quotients by each,
and certifies that every quotient is principal.
"""

from symplat import (
    enumerate_mti,
    index,
    polarization_type,
    principal_quotients,
    standard_principal,
    torsion_subgroup,
)


def census(g, m):
    P = standard_principal(g)
    torsion, weil = torsion_subgroup(P, m)
    subgroups = enumerate_mti(torsion, weil)
    print(f"g = {g}, m = {m}: {torsion.order} torsion points, "
          f"{len(subgroups)} maximal totally isotropic subgroups")
    for i, (K, X) in enumerate(zip(subgroups, principal_quotients(P, subgroups, m))):
        t = polarization_type(X)
        assert t.is_principal
        if i < 3:
            print(f"   K #{i}: order {K.order}, index [X : L] = "
                  f"{index(P.lattice, X.lattice)}, quotient type {t.chain}")
    if len(subgroups) > 3:
        print(f"   ... and {len(subgroups) - 3} more, all principal")
    print()


if __name__ == "__main__":
    print(__doc__)
    for g, m in [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)]:
        census(g, m)
    print("Counts follow the classical formula: for prime p the number of")
    print("Lagrangian subgroups of (Z/p)^(2g) is the product of (p^i + 1).")
