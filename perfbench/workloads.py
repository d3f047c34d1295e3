"""The three benchmark workloads: cases to time and the checks on their outputs.

A case is one call into the program: a ``symplat.cli.run(argv)`` or a short
chain of public library calls.  A case holds only plain inputs (argv, Gram
matrices, voltages, fixture paths); ``bind(lib)`` makes the call on a freshly
imported library, outside the timed region, so that no state kept by one
import of the program can carry over from one timed call to the next.  Its
check runs after the timed call and
returns the output text (hashed, and compared with the golden digest when the
input is fixed) and a list of problems; an empty list means the case passed.
Checks use the closed-form oracles in ``oracle`` and the certificates the
program emits, never the program's own algorithms.
"""

import json
from itertools import product

import oracle

CENSUS_CASES = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]
COVER_CASES = [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (2, 5), (4, 2)]
WELTERS_FIXTURES = [(2, 2), (2, 3), (3, 3), (2, 5)]
WELTERS_SEEDED = [(2, 2), (2, 3)]
SEEDED_CENSUS = (2, 3)  # (g, m) of the library census on a seeded form
# Voltage draws per (g, m) in the covers workload.  The cost of a cover
# depends on its voltages, so several draws keep seeds alike in total cost.
SEEDED_DRAWS = 3


class Case:
    __slots__ = ("name", "bind", "check", "golden")

    def __init__(self, name, bind, check, golden=False):
        self.name = name
        self.bind = bind  # lib -> the zero-argument call to time
        self.check = check
        self.golden = golden


def _all_true(mapping, what, problems):
    bad = [k for k, v in mapping.items() if v is not True]
    if bad:
        problems.append(f"{what} not all True: {bad}")


def _cli_case(name, argv, check_payload, golden=True):
    def check(result):
        code, text = result
        if code != 0:
            return text, [f"exit code {code}: {text.strip()[:200]}"]
        problems = []
        check_payload(json.loads(text), problems)
        return text, problems

    return Case(name, lambda lib: lambda: lib.cli.run(argv), check, golden)


# -- census -------------------------------------------------------------------

def _check_quotient(g, m, mode):
    def check(payload, problems):
        expected = oracle.mti_count(g, m) if mode == "all" else 1
        quotients = payload["quotients"]
        if payload["count"] != expected or len(quotients) != expected:
            problems.append(f"count {payload['count']}/{len(quotients)}, oracle {expected}")
        for q in quotients:
            if q["principal"] is not True or q["type"] != ["1"] * g:
                problems.append(f"quotient not principal: type {q['type']}")
            if q["K_order"] != str(m**g):
                problems.append(f"subgroup order {q['K_order']}, expected {m**g}")
    return check


def _seeded_census(lib, gram, m):
    P = lib.pollat.PolarizedLattice(
        lib.lattice.Lattice.standard(len(gram)), lib.matrix.Mat(gram)
    )
    Q, pairing = lib.pollat.torsion_subgroup(P, m)
    # list(): the whole enumeration runs inside the timed call even if it
    # ever returns an iterator.
    subgroups = list(lib.finquot.enumerate_mti(Q, pairing))
    types = [lib.pollat.polarization_type(lib.pollat.principal_quotient(P, K, m))
             for K in subgroups]
    return subgroups, types


def _check_seeded_census(g, m):
    def check(result):
        subgroups, types = result
        problems = []
        if len(subgroups) != oracle.mti_count(g, m):
            problems.append(f"{len(subgroups)} subgroups, oracle {oracle.mti_count(g, m)}")
        if any(not t.is_principal for t in types):
            problems.append("a quotient is not principal")
        text = "".join(f"{K.upper.basis.rows} {tuple(t)}\n" for K, t in zip(subgroups, types))
        return text, problems
    return check


def census(lib, seed, workdir):
    cases = []
    for g, m in CENSUS_CASES:
        argv = ["quotient", "--g", str(g), "--m", str(m), "--mode", "all"]
        cases.append(_cli_case(" ".join(argv), argv, _check_quotient(g, m, "all")))
    argv = ["quotient", "--g", "2", "--m", "3", "--mode", "one"]
    cases.append(_cli_case(" ".join(argv), argv, _check_quotient(2, 3, "one")))
    g, m = SEEDED_CENSUS
    A = oracle.unimodular(oracle.rng_for("census", seed, "form"), 2 * g)
    gram = oracle.symplectic_gram(A)
    cases.append(Case(
        f"seeded census g={g} m={m} A={A}",
        lambda lib: lambda: _seeded_census(lib, gram, m),
        _check_seeded_census(g, m),
    ))
    return cases


# -- covers -------------------------------------------------------------------

def _check_cover_certificate(g, m, cert, problems):
    if cert["cover_genus"] != m * g - m + 1:
        problems.append(f"cover genus {cert['cover_genus']}, expected {m * g - m + 1}")
    _all_true(cert["identities"], "cover identities", problems)
    _all_true(cert["ker_mu_basis_checks"], "ker mu basis checks", problems)
    for key in ("component_group_order", "ker_transfer_order"):
        if cert[key] != str(m):
            problems.append(f"{key} {cert[key]}, expected {m}")
    subgroups = cert["subgroups"]
    if len(subgroups) != oracle.cyclic_subgroup_count(m):
        problems.append(f"{len(subgroups)} labels, oracle {oracle.cyclic_subgroup_count(m)}")
    if any(s["kernel_identification"] is not True for s in subgroups):
        problems.append("a kernel identification failed")


def _check_cover(g, m):
    def check(payload, problems):
        _check_cover_certificate(g, m, payload["certificate"], problems)
        if payload["certificate"]["ker_mu_invariants"] != [str(m), str(m)]:
            problems.append(f"ker mu invariants {payload['certificate']['ker_mu_invariants']}")
    return check


def _seeded_cover(lib, g, m, volts):
    cv, jsonio = lib.covers, lib.jsonio
    cov = cv.cyclic_cover(cv.surface_ribbon(g), cv.VoltageAssignment(m, volts), m)
    group, _ = cv.norm_component_group(cov)
    eta = cv.eta_class(cov)
    _, P1, checks = cv.ker_mu_basis(cov)
    subgroups = []
    for (a, b), K in cv.classify_mti_K(cov):
        ok, order = cv.verify_kernel_identification(cov, K)
        subgroups.append({
            "label": f"{a}:{b}",
            "birational": cv.birational_predicate(K, P1),
            "kernel_identification": ok,
            "identified_order": str(order),
        })
    cert = {
        "cover_genus": cov.cover_genus,
        "identities": {},  # cyclic_cover raises CertificationError on a failed one
        "component_group_order": str(group.order),
        "ker_transfer_order": str(eta.order()),
        "ker_mu_basis_checks": checks,
        "subgroups": subgroups,
    }
    return cert, jsonio.dumps_canonical({"fixture": jsonio.cover_to_obj(cov), "certificate": cert})


def _check_seeded_cover(g, m):
    def check(result):
        cert, text = result
        problems = []
        _check_cover_certificate(g, m, cert, problems)
        return text, problems
    return check


def covers(lib, seed, workdir):
    cases = []
    for g, m in COVER_CASES:
        argv = ["cover", "--g", str(g), "--m", str(m)]
        cases.append(_cli_case(" ".join(argv), argv, _check_cover(g, m)))
    for (g, m), draw in product(COVER_CASES, range(SEEDED_DRAWS)):
        volts = oracle.voltages(oracle.rng_for("covers", seed, f"{g},{m},{draw}"), g, m)
        cases.append(Case(
            f"seeded cover g={g} m={m} voltages={volts}",
            lambda lib, g=g, m=m, volts=volts: lambda: _seeded_cover(lib, g, m, volts),
            _check_seeded_cover(g, m),
        ))
    return cases


# -- welters ------------------------------------------------------------------

def _check_welters(g, label):
    def check(payload, problems):
        _all_true(payload["certificate"]["identities"], "welters identities", problems)
        if payload["K_label"] != label:
            problems.append(f"ran label {payload['K_label']}, asked for {label}")
        if payload["X_dim"] != g or payload["X_type"] != ["1"] * g:
            problems.append(f"X has dim {payload['X_dim']} and type {payload['X_type']}")
    return check


def _check_preset(result):
    problems = []
    _all_true(result.certificate, "preset certificate", problems)
    text = f"{result.certificate}\n{result.X.lattice.basis.rows}\n{result.j.matrix.rows}\n"
    return text, problems


def _write_fixture(lib, path, cov):
    path.write_text(lib.jsonio.dumps_canonical(lib.jsonio.cover_to_obj(cov)))


def _bind_preset(kind):
    def bind(lib):
        cover = lib.covers.standard_cover(2, 2)
        return lambda: lib.comppair.preset_m2(kind, cover)
    return bind


def welters(lib, seed, workdir):
    cv = lib.covers
    fixtures = []
    for g, m in WELTERS_FIXTURES:
        cov = cv.standard_cover(g, m)
        path = workdir / f"cover-{g}-{m}.json"
        _write_fixture(lib, path, cov)
        fixtures.append((path, g, m, True))
    for g, m in WELTERS_SEEDED:
        volts = oracle.voltages(oracle.rng_for("welters", seed, f"{g},{m}"), g, m)
        cov = cv.cyclic_cover(cv.surface_ribbon(g), cv.VoltageAssignment(m, volts), m)
        path = workdir / f"seeded-{g}-{m}.json"
        _write_fixture(lib, path, cov)
        fixtures.append((path, g, m, False))
    cases = []
    for path, g, m, golden in fixtures:
        for label in oracle.prime_labels(m):
            argv = ["welters", str(path), "--K", label]
            cases.append(_cli_case(
                f"welters {path.stem} --K {label}", argv, _check_welters(g, label), golden,
            ))
    for kind in ("prym_quotient", "pullback_quotient"):
        cases.append(Case(f"preset_m2 {kind} cover-2-2", _bind_preset(kind), _check_preset))
    return cases


# name -> (setup, the case timed as first_result_s, the case timed as
# largest_case_s, the cases run again in probe rounds).  The largest case is
# fixed by name rather than taken as the slowest case of a run, so that seeded
# inputs do not pick it; the census one is too long to probe.
WORKLOADS = {
    "census": (census, "quotient --g 2 --m 3 --mode one", "quotient --g 3 --m 2 --mode all",
               ("quotient --g 2 --m 3 --mode one",)),
    "covers": (covers, "cover --g 2 --m 2", "cover --g 4 --m 2",
               ("cover --g 2 --m 2", "cover --g 4 --m 2")),
    "welters": (welters, "welters cover-2-2 --K 0:1", "welters cover-3-3 --K 1:0",
                ("welters cover-2-2 --K 0:1", "welters cover-3-3 --K 1:0")),
}
