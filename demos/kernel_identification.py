"""Classifying the isotropic subgroups of ker mu and identifying the quotient.

For the standard degree-m cyclic cover, ker mu_B of the pulled-back lattice
is isomorphic to (Z/m)^2, generated by xi-bar (a lift of the cover's torsion
class eta through the norm) and P_1 (the generator of the component group of
the norm kernel).  The cyclic subgroups <a xi + b P1> with gcd(a, b, m) = 1
are maximal totally isotropic; the curve map into B-hat/K is birational onto
its image exactly when no nonzero multiple of P_1 lies in K.

The kernel identification expresses X = B-hat/K as a quotient of the base:
the subgroup [m]^{-1}(Nm-bar(K)) of the base torus is the preimage of K
saturated by <P_1>; it contains the kernel of the composite map with index m
in the birational case (equality when P_1 lies in K), and at every m, for
birational K, it equals [m]^{-1}<eta>, of order m^(2g) * m.
"""

from symplat import (
    birational_predicate,
    classify_mti_K,
    ker_mu_basis,
    standard_cover,
    verify_kernel_identification,
)


def explore(g, m):
    cov = standard_cover(g, m)
    _, P1, _ = ker_mu_basis(cov)
    print(f"(g, m) = ({g}, {m}): cover genus {cov.cover_genus}")
    for (a, b), K in classify_mti_K(cov):
        ok, order = verify_kernel_identification(cov, K)
        flag = "birational" if birational_predicate(K, P1) else "collapses fibers"
        print(f"   K = <{a} xi + {b} P1>: {flag}; identification "
              f"{'verified' if ok else 'FAILED'}, |[m]^-1(Nm K)| = {order}")
    print()


if __name__ == "__main__":
    print(__doc__)
    for g, m in [(2, 2), (2, 3), (3, 2), (2, 4)]:
        explore(g, m)
