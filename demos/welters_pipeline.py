"""The Welters construction, end to end, with its certification suite.

Inside a principal lattice, a nondegenerate saturated sublattice B and a
maximal totally isotropic subgroup K of ker mu_B produce a principal
lattice X = B-hat/K together with maps u (projection) and u^t (its adjoint)
and the endomorphism j = 1 - m * pr_B.  The certificate checks, exactly:

    pr_B(L) = dual of B      (the torus quotient is the dual abelian variety)
    X is principal
    u ∘ u^t = [m]            u^t ∘ u = 1 - j        (j - 1)(j + m - 1) = 0
    |A ∩ B| = |ker lambda_A| = |ker lambda_B|

The three degree-2 families are presets: quotients of Jacobians (B = the
whole lattice), quotients of Pryms (B = the norm kernel), and quotients of
pulled-back Jacobians (B = the transfer image).
"""

from symplat import (
    classify_mti_K,
    preset_m2,
    standard_cover,
    welters_construct,
)


def show(name, out):
    print(f"{name}")
    print(f"   dim X = {out.X.dim}, m = {out.m}, K order {out.K.order}")
    for identity, holds in out.certificate.items():
        print(f"   [{'ok' if holds else 'FAIL'}] {identity}")
    print()


if __name__ == "__main__":
    print(__doc__)
    cov = standard_cover(2, 2)
    for kind in ("jacobian_quotient", "prym_quotient", "pullback_quotient"):
        show(f"preset {kind} on the (g=2, m=2) cover", preset_m2(kind, cov))

    cov3 = standard_cover(2, 3)
    # the pair (A = Prym, B = pullback): pr_B, ker mu_B and j are built once
    pair = cov3.pair()
    for (a, b), K in classify_mti_K(cov3):
        out = welters_construct(pair, K, 3)
        show(f"degree-3 pipeline with K = <{a} xi + {b} P1>", out)
