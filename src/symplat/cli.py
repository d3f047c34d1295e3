"""Command-line front end: constructions, censuses, certifications.

Four subcommands::

    symplat quotient --g 2 --m 2 --mode all     # isogeny-quotient census
    symplat cover    --g 2 --m 3 --out fix.json # cover certification + fixture
    symplat welters  fix.json --K 1:0           # Welters run on a fixture
    symplat dims     --g 5 --m 2 --r 0          # dimension table

Reports are canonical JSON on stdout (byte-identical across runs); ``--out``
additionally writes the payload to a file.  Exit codes: 0 success, 1
certification failure, 2 enumeration budget exceeded, 3 input validation.
"""

import argparse
import json
import sys
from reprlib import repr as short_repr

from .comppair import ker_mu_of_pair, welters_construct
from .covers import (
    MAX_CENSUS_GENUS,
    birational_predicate,
    classify_mti_K,
    eta_class,
    ker_mu_basis,
    lift_mti_label,
    mti_labels,
    norm_component_group,
    standard_cover,
    verify_kernel_identification,
)
from .errors import BudgetError, CertificationError, DomainError, SymplatError
from .finquot import DEFAULT_BUDGET, _enumerate, enumerate_mti
from .jsonio import (
    SCHEMA,
    cover_from_obj,
    cover_to_obj,
    dumps_canonical,
    lattice_to_obj,
    welters_report,
)
from .moduli import locus_dimensions
from .pollat import (
    polarization_type,
    principal_quotient,
    standard_principal,
    torsion_subgroup,
)

EXIT_OK = 0
EXIT_CERTIFICATION = 1
EXIT_BUDGET = 2
EXIT_VALIDATION = 3


class _Parser(argparse.ArgumentParser):
    """argparse that signals validation problems instead of exiting with 2."""

    def error(self, message):
        raise DomainError(message)


def _quotient_arguments(q):
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--mode", choices=("one", "all"), default="all")
    q.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="exit 2 once the group order, or the number of column placements "
             "the subgroup search tries, exceeds this (default: %(default)s)",
    )


def _cover_arguments(c):
    c.add_argument("--g", type=int, required=True)
    c.add_argument("--m", type=int, required=True)


def _welters_arguments(w):
    w.add_argument("fixture", help="path to a cover fixture JSON file")
    w.add_argument("--K", default="1:0", help="label a:b of the isotropic subgroup")


def _dims_arguments(d):
    d.add_argument("--g", type=int, required=True)
    d.add_argument("--m", type=int, required=True)
    d.add_argument("--r", type=int, default=0)


# each subcommand's help line and the function that adds its own arguments
_SUBCOMMANDS = {
    "quotient": ("census of quotients by maximal isotropic torsion", _quotient_arguments),
    "cover": ("build and certify the standard cyclic cover", _cover_arguments),
    "welters": ("run the Welters construction on a cover fixture", _welters_arguments),
    "dims": ("dimension table for the moduli loci", _dims_arguments),
}


def build_parser(argv=()):
    """The symplat parser; only the subcommand that argv[0] names, if it names one.

    Any other argv[0] (none, an option such as -h, or a typo) gets all four
    subcommands, so the help and "invalid choice" texts list them all.
    """
    parser = _Parser(prog="symplat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    for name, (help_text, add_arguments) in _SUBCOMMANDS.items():
        if named in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            p.add_argument("--out", default=None, help="also write the payload to this file")
            p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def cmd_quotient(g, m, mode="all", budget=DEFAULT_BUDGET):
    if g < 1 or m < 1:
        raise DomainError("quotient census needs g >= 1 and m >= 1")
    if budget < 1:
        raise DomainError("budget must be >= 1")
    # refuse before the O(g^3) set-up; a bounded g keeps m**(2g) cheap
    if g > MAX_CENSUS_GENUS:
        raise BudgetError(f"a census of genus above {MAX_CENSUS_GENUS} is not supported")
    if m ** (2 * g) > budget:
        raise BudgetError(f"group of order {m}^{2 * g} exceeds budget {budget}")
    P = standard_principal(g)
    tors, pairing = torsion_subgroup(P, m)
    if mode == "one":
        # the whole search runs, budget checks included; one survivor is built
        subgroups = _enumerate(tors, budget, pairing, limit=1)
    else:
        subgroups = enumerate_mti(tors, pairing, budget=budget)
    entries = []
    for K in subgroups:
        X = principal_quotient(P, K, m)
        entries.append(
            {
                "K_basis": lattice_to_obj(K.upper)["basis"],
                "K_order": str(K.order),
                "type": [str(d) for d in polarization_type(X)],
                "principal": polarization_type(X).is_principal,
            }
        )
    return {
        "schema": SCHEMA,
        "command": "quotient",
        "g": g,
        "m": m,
        "mode": mode,
        "count": len(entries),
        "quotients": entries,
    }


# The report's labels for the identities ``cyclic_cover`` certifies, in report
# order; its "sigma-nontrivial" check is left out of the report.
_COVER_IDENTITIES = (
    ("genus = mg-m+1", "cover-genus"),
    ("sigma symplectic", "sigma-symplectic"),
    ("sigma^m = 1", "sigma-order-m"),
    ("pushforward∘transfer = m", "pushforward-transfer-m"),
    ("transfer∘pushforward = sum of deck powers", "transfer-pushforward-sum-sigma"),
    ("transfer multiplies the form by m", "transfer-multiplies-form"),
)


def cmd_cover(g, m):
    if g < 1 or m < 1:
        raise DomainError("cover needs g >= 1 and m >= 1")
    cov = standard_cover(g, m)
    cert = {
        "cover_genus": cov.cover_genus,
        "identities": {label: cov.certificate[name] for label, name in _COVER_IDENTITIES},
    }
    if m >= 2:
        group, _ = norm_component_group(cov)
        eta = eta_class(cov)
        xi_bar, P1, checks = ker_mu_basis(cov)
        labeled = classify_mti_K(cov)
        cert["component_group_order"] = str(group.order)
        cert["ker_transfer_order"] = str(eta.order())
        cert["ker_mu_invariants"] = [str(d) for d in ker_mu_of_pair(cov.pair(), m)[0].invariants]
        cert["ker_mu_basis_checks"] = checks
        cert["subgroups"] = []
        for (a, b), K in labeled:
            ok, order = verify_kernel_identification(cov, K)
            cert["subgroups"].append(
                {
                    "label": f"{a}:{b}",
                    "birational": birational_predicate(K, P1),
                    "kernel_identification": ok,
                    "identified_order": str(order),
                }
            )
    else:
        cert["degenerate"] = True
    return {
        "schema": SCHEMA,
        "command": "cover",
        "g": g,
        "m": m,
        "fixture": cover_to_obj(cov),
        "certificate": cert,
    }


def cmd_welters(fixture_path, K_label="1:0"):
    try:
        with open(fixture_path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise DomainError(f"cannot read fixture: {exc}")
    obj = payload.get("fixture", payload) if isinstance(payload, dict) else None
    if obj is None:
        raise DomainError("fixture file does not contain an object")
    cov = cover_from_obj(obj)
    label = _parse_label(K_label, cov.m)
    _, P1, _ = ker_mu_basis(cov)
    if label not in (labels := mti_labels(cov.m)):
        raise DomainError(f"no subgroup labeled {label}; available: {labels}")
    K = lift_mti_label(cov, *label)
    out = welters_construct(cov.pair(), K, cov.m)
    return {
        "schema": SCHEMA,
        "command": "welters",
        "g": cov.g,
        "m": cov.m,
        "K_label": f"{label[0]}:{label[1]}",
        "birational": birational_predicate(K, P1),
        "X_dim": out.X.dim,
        "X_type": [str(d) for d in polarization_type(out.X)],
        "certificate": welters_report(out),
    }


def _parse_label(text, m):
    raw = text.strip().lstrip("(").rstrip(")")
    parts = raw.split(":")
    if len(parts) != 2:
        raise DomainError(f"malformed K label {short_repr(text)}; expected a:b")
    try:
        a, b = (int(p) % m for p in parts)
    except ValueError:
        raise DomainError(f"malformed K label {short_repr(text)}; expected integers a:b")
    return (a, b)


def cmd_dims(g, m, r=0):
    report = locus_dimensions(g, m, r)
    payload = {"schema": SCHEMA, "command": "dims"}
    payload.update(report.to_json_obj())
    return payload


def _render_text(payload):
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(prefix + (str(k),), value[k])
        elif isinstance(value, list):
            lines.append(f"{'.'.join(prefix)} = [{len(value)} entries]")
        else:
            lines.append(f"{'.'.join(prefix)} = {value}")

    walk((), payload)
    return "\n".join(lines) + "\n"


def run(argv=None):
    """Parse arguments, run the command, return (exit_code, output_text)."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        if args.command == "quotient":
            payload = cmd_quotient(args.g, args.m, args.mode, args.budget)
        elif args.command == "cover":
            payload = cmd_cover(args.g, args.m)
        elif args.command == "welters":
            payload = cmd_welters(args.fixture, args.K)
        else:
            payload = cmd_dims(args.g, args.m, args.r)
        text = dumps_canonical(payload) if args.format == "json" else _render_text(payload)
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text if args.format == "json" else dumps_canonical(payload))
            except OSError as exc:
                raise DomainError(f"cannot write output: {exc}")
        return EXIT_OK, text
    except BudgetError as exc:
        return EXIT_BUDGET, f"budget error: {exc}\n"
    except CertificationError as exc:
        return EXIT_CERTIFICATION, f"certification failure: {exc}\n"
    except (DomainError, SymplatError) as exc:
        return EXIT_VALIDATION, f"invalid input: {exc}\n"


def main(argv=None):
    code, text = run(argv)
    stream = sys.stdout if code == EXIT_OK else sys.stderr
    stream.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
