"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each criterion prints a PASS line when it holds (run with ``pytest -s`` to
see them).  All equalities are exact (zero tolerance); the two census
criteria also enforce their wall-clock budgets.
"""

import json
import time

from symplat.cli import EXIT_OK, run
from symplat.comppair import (
    M2_PRESETS,
    complement,
    ker_mu_of_pair,
    preset_m2,
    welters_construct,
)
from symplat.covers import (
    birational_predicate,
    classify_mti_K,
    eta_class,
    ker_mu_basis,
    norm_component_group,
    prym_sublattice,
    verify_kernel_identification,
)
from symplat.finquot import enumerate_mti
from symplat.lattice import kernel_lattice
from symplat.matrix import Mat
from symplat.moduli import genus_bounds, locus_dimensions
from symplat.pollat import (
    ker_lambda,
    polarization_type,
    principal_quotient,
    standard_principal,
    torsion_subgroup,
)

from conftest import brute_force_mti, library_subgroup_as_set


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {criterion}: {status}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_quotient_suite():
    """All maximal isotropic torsion subgroups; every quotient principal."""
    start = time.monotonic()
    details = []
    ok = True
    for g, m in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        P = standard_principal(g)
        tors, pairing = torsion_subgroup(P, m)
        found = enumerate_mti(tors, pairing)
        oracle = brute_force_mti(tors, pairing)
        counts_match = {library_subgroup_as_set(S, tors) for S in found} == oracle
        all_principal = all(
            polarization_type(principal_quotient(P, K, m)).is_principal for K in found
        )
        ok = ok and counts_match and all_principal and len(found) == len(oracle)
        details.append(f"(g={g},m={m}): {len(found)} subgroups")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    report(1, ok, f"{'; '.join(details)}; {elapsed:.1f}s < 60s")


def test_criterion_1_census_g2_m4():
    """The (2,4) census: 151 subgroups of order 16, every quotient principal."""
    start = time.monotonic()
    code, text = run(["quotient", "--g", "2", "--m", "4"])
    elapsed = time.monotonic() - start
    payload = json.loads(text) if code == EXIT_OK else {}
    quotients = payload.get("quotients", [])
    ok = (
        code == EXIT_OK
        and payload["count"] == len(quotients) == 151
        and all(q["K_order"] == "16" and q["principal"] for q in quotients)
        and elapsed < 20
    )
    report(1, ok, f"(g=2,m=4): {len(quotients)} subgroups; {elapsed:.1f}s < 20s")


def test_criterion_1_census_g3_m3():
    """The (3,3) census: 1120 = 4*10*28 subgroups of order 27, every quotient principal."""
    start = time.monotonic()
    code, text = run(["quotient", "--g", "3", "--m", "3"])
    elapsed = time.monotonic() - start
    payload = json.loads(text) if code == EXIT_OK else {}
    quotients = payload.get("quotients", [])
    ok = (
        code == EXIT_OK
        and payload["count"] == len(quotients) == 1120
        and all(q["K_order"] == "27" and q["principal"] for q in quotients)
        and elapsed < 60
    )
    report(1, ok, f"(g=3,m=3): {len(quotients)} subgroups; {elapsed:.1f}s < 60s")


def test_criterion_1_census_g4_m2():
    """The (4,2) census at the default budget: 2295 = 3*5*9*17 subgroups of order 16."""
    start = time.monotonic()
    code, text = run(["quotient", "--g", "4", "--m", "2"])
    elapsed = time.monotonic() - start
    payload = json.loads(text) if code == EXIT_OK else {}
    quotients = payload.get("quotients", [])
    ok = (
        code == EXIT_OK
        and payload["count"] == len(quotients) == 2295
        and all(q["K_order"] == "16" and q["principal"] for q in quotients)
        and elapsed < 30
    )
    report(1, ok, f"(g=4,m=2): {len(quotients)} subgroups; {elapsed:.1f}s < 30s")


def test_criterion_2_cover_suite(cover22, cover23, cover32, cover24):
    """Cyclic-cover invariants for (2,2), (2,3), (3,2), (2,4)."""
    start = time.monotonic()
    details = []
    ok = True
    for cov in (cover22, cover23, cover32, cover24):
        g, m = cov.g, cov.m
        n = cov.total.ambient_dim
        S, EN = cov.sigma.matrix, cov.total.form
        genus_ok = cov.cover_genus == m * g - m + 1
        symplectic_ok = S.T * EN * S == EN
        power = Mat.identity(n)
        for _ in range(m):
            power = power * S
        order_ok = power == Mat.identity(n)
        down, up = cov.pushforward.matrix, cov.transfer.matrix
        proj_ok = down * up == Mat.identity(cov.base.ambient_dim) * m
        total, power = Mat.zero(n, n), Mat.identity(n)
        for _ in range(m):
            total = total + power
            power = power * S
        sum_ok = up * down == total
        group, _ = norm_component_group(cov)
        pi0_ok = group.order == m
        eta = eta_class(cov)
        eta_ok = eta.order() == m
        Q, _ = ker_mu_of_pair(cov.pair(), m)
        kermu_ok = Q.invariants == (m, m)
        case_ok = all(
            [genus_ok, symplectic_ok, order_ok, proj_ok, sum_ok, pi0_ok, eta_ok, kermu_ok]
        )
        ok = ok and case_ok
        details.append(f"(g={g},m={m}): genus {cov.cover_genus}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120
    report(2, ok, f"{'; '.join(details)}; {elapsed:.1f}s < 120s")


def test_criterion_3_classification(cover22, cover23):
    """m+1 labeled subgroups, birationality pattern, kernel identification."""
    ok = True
    details = []
    for cov in (cover22, cover23):
        m, g = cov.m, cov.g
        Q, p = ker_mu_of_pair(cov.pair(), m)
        labeled = classify_mti_K(cov)
        count_ok = len(labeled) == m + 1
        exhaustive = enumerate_mti(Q, p)
        match_ok = sorted(K.upper.basis.rows for _, K in labeled) == sorted(
            S.upper.basis.rows for S in exhaustive
        )
        _, P1, _ = ker_mu_basis(cov)
        flags_ok = all(
            birational_predicate(K, P1) == (a % m != 0) for (a, b), K in labeled
        )
        p1_flag_ok = not birational_predicate(dict(labeled)[(0, 1)], P1)
        ident_ok = True
        for (a, b), K in labeled:
            if a % m != 0:
                passed, order = verify_kernel_identification(cov, K)
                ident_ok = ident_ok and passed and order == m ** (2 * g) * m
        case_ok = count_ok and match_ok and flags_ok and p1_flag_ok and ident_ok
        ok = ok and case_ok
        details.append(f"m={m}: {len(labeled)} subgroups")
    report(3, ok, "; ".join(details))


def test_criterion_4_welters_certification(cover22, cover23):
    """Every pipeline certifies the j/u identities and principality of X."""
    runs = []
    for kind in M2_PRESETS:
        runs.append((f"{kind}@(2,2)", preset_m2(kind, cover22)))
    for (a, b), K in classify_mti_K(cover23):
        runs.append((f"pullback@(2,3) K={a}:{b}", welters_construct(cover23.pair(), K, 3)))
    prym3, _ = prym_sublattice(cover23)
    pair3 = complement(cover23.total, prym3)
    Q3, p3 = ker_mu_of_pair(pair3, 3)
    for K in enumerate_mti(Q3, p3):
        runs.append(("prym@(2,3)", welters_construct(pair3, K, 3)))

    ok = True
    for name, out in runs:
        m = out.m
        n = out.pair.ambient.ambient_dim
        one = Mat.identity(n)
        j = out.j.matrix
        prym_tjurin = (j - one) * (j + one * (m - 1)) == Mat.zero(n, n)
        utu = out.u_t.matrix * out.u.matrix == one - j
        BX = out.X.lattice.basis
        uut = out.u.matrix * out.u_t.matrix * BX == BX * m
        inter = out.pair.intersection.order
        orders_ok = all(
            inter == (ker_lambda(out.pair.restricted(sub))[0].order if sub.rank else 1)
            for sub in (out.pair.sub_A, out.pair.sub_B)
        )
        principal = polarization_type(out.X).is_principal
        run_ok = prym_tjurin and utu and uut and orders_ok and principal
        ok = ok and run_ok
    report(4, ok, f"{len(runs)} pipelines certified")


def test_criterion_5_dimension_tables():
    """Closed-form tables against independently hand-coded formulas."""
    ok = True
    for g in range(2, 11):
        for m in range(1, 6):
            for r in (0, 2):
                rep = locus_dimensions(g, m, r)
                ok = ok and rep.dim_Ag == g * (g + 1) // 2
                ok = ok and rep.dim_Mg == 3 * g - 3
                ok = ok and rep.dim_R_gmr == 3 * g - 3 + r
                ok = ok and rep.prym_target_dim_index == m * (g - 1) + 1 + r // 2
                ok = ok and rep.dim_prym_quotient_bound == 2 * (g - 1 + m) - 3
                ok = ok and rep.genus_family_lower_bound == m * g - m + 1
            lower, upper, family = genus_bounds(g, m)
            ok = ok and lower == g and family == m * g - m + 1
            if m == 2:
                ok = ok and upper == 2 * g + 1
    ok = ok and locus_dimensions(5, 2, 0).dim_Ag == 15
    report(5, ok, "g <= 10, m <= 5, exact integer equality")


def test_criterion_6_cross_module(cover22, cover23, cover32, cover24):
    """Moduli genus formula vs Euler characteristic; complement vs ker pi_*."""
    ok = True
    for cov in (cover22, cover23, cover32, cover24):
        rep = locus_dimensions(cov.g, cov.m, 0)
        ok = ok and rep.cover_genus == cov.cover_genus
        sub_A, sub_B = prym_sublattice(cov)
        pair = complement(cov.total, sub_B)
        ok = ok and pair.sub_A == kernel_lattice(cov.pushforward.matrix, cov.total.lattice)
        ok = ok and pair.sub_A == sub_A
    report(6, ok, "4 fixtures")


def test_criterion_7_cli_determinism(tmp_path):
    """Byte-identical payloads for repeated invocations of every command."""
    fixture = tmp_path / "cover22.json"
    code, _ = run(["cover", "--g", "2", "--m", "2", "--out", str(fixture)])
    assert code == EXIT_OK
    commands = [
        ["quotient", "--g", "1", "--m", "2", "--mode", "all"],
        ["quotient", "--g", "2", "--m", "2", "--mode", "all"],
        ["cover", "--g", "2", "--m", "2"],
        ["cover", "--g", "2", "--m", "3"],
        ["welters", str(fixture), "--K", "1:0"],
        ["welters", str(fixture), "--K", "0:1"],
        ["dims", "--g", "5", "--m", "2", "--r", "0"],
        ["dims", "--g", "2", "--m", "3", "--r", "0"],
    ]
    ok = True
    for argv in commands:
        first = run(argv)
        second = run(argv)
        ok = ok and first == second and first[0] == EXIT_OK
    report(7, ok, f"{len(commands)} commands, two runs each")
