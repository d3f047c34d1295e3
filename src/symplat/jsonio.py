"""Lossless JSON serialization of lattices, forms, covers and certificates.

Schema "ppav-lattice/1": every matrix entry, rational or integer, is written
as a decimal string ("17", "-3/4"), so round-trips are bit-exact across
languages.  The strings are read off a matrix's integer rows over its
denominator, so no ``Fraction`` is built.  Dumps are canonical (sorted keys,
two-space indent, fixed separators), which makes repeated runs
byte-identical; a small recursive writer gives the bytes of ``json.dumps``
with those settings and joins each flat list of strings at once.
"""

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from reprlib import repr as short_repr

from .covers import RibbonGraph, VoltageAssignment, cyclic_cover
from .errors import DomainError
from .lattice import Lattice
from .matrix import Mat
from .pollat import PolarizedLattice, polarization_type

SCHEMA = "ppav-lattice/1"

__all__ = [
    "SCHEMA",
    "frac_from_str",
    "mat_to_obj",
    "mat_from_obj",
    "lattice_to_obj",
    "lattice_from_obj",
    "polarized_to_obj",
    "polarized_from_obj",
    "cover_to_obj",
    "cover_from_obj",
    "welters_report",
    "dumps_canonical",
]


def frac_from_str(s):
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return int(s)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"malformed exact number {short_repr(s)}")


def _entry_rows(M):
    """The rows of ``M`` as entry strings, each ``str(Fraction(x, M.den))`` for x in ``M.num``."""
    d = M.den
    if d == 1:
        return [list(map(str, row)) for row in M.num]
    return [[str(x // d) if (g := gcd(x, d)) == d else f"{x // g}/{d // g}" for x in row]
            for row in M.num]


def mat_to_obj(M):
    return {"rows": _entry_rows(M), "ncols": M.ncols}


def mat_from_obj(obj):
    try:
        return Mat([[frac_from_str(x) for x in row] for row in obj["rows"]], ncols=obj["ncols"])
    except (KeyError, TypeError):
        raise DomainError("malformed matrix object")


def lattice_to_obj(L):
    return {
        "ambient_dim": L.ambient_dim,
        "basis": _entry_rows(L.basis.T),
    }


def _dim_and_basis(obj):
    """(ambient_dim, basis matrix) of a lattice object; ambient_dim an int >= 0."""
    dim = obj["ambient_dim"]
    if type(dim) is not int or dim < 0:
        raise DomainError("ambient_dim must be an int >= 0")
    cols = [[frac_from_str(x) for x in col] for col in obj["basis"]]
    return dim, Mat.from_columns(cols, nrows=dim)


def lattice_from_obj(obj):
    try:
        dim, basis = _dim_and_basis(obj)
    except (LookupError, TypeError):
        raise DomainError("malformed lattice object")
    return Lattice(dim, basis)


def polarized_to_obj(P):
    return {
        "ambient_dim": P.ambient_dim,
        "basis": _entry_rows(P.lattice.basis.T),
        "form": _entry_rows(P.form),
    }


def polarized_from_obj(obj):
    try:
        dim, basis = _dim_and_basis(obj)
        form = Mat([[frac_from_str(x) for x in row] for row in obj["form"]], ncols=dim)
    except (LookupError, TypeError):
        raise DomainError("malformed polarized lattice object")
    return PolarizedLattice(Lattice(dim, basis), form)


def cover_to_obj(cov):
    """The full cover fixture: combinatorial input plus all derived matrices."""
    return {
        "schema": SCHEMA,
        "kind": "cover-fixture",
        "g": cov.g,
        "m": cov.m,
        "base_rotations": [list(rot) for rot in cov.base_graph.rotations],
        "n_edges": cov.base_graph.n_edges,
        "voltages": list(cov.voltages.values),
        "base": polarized_to_obj(cov.base),
        "total": polarized_to_obj(cov.total),
        "sigma": mat_to_obj(cov.sigma.matrix),
        "pushforward": mat_to_obj(cov.pushforward.matrix),
        "transfer": mat_to_obj(cov.transfer.matrix),
    }


def cover_from_obj(obj):
    """Rebuild a cover from its fixture and cross-check the stored matrices."""
    if not isinstance(obj, dict) or obj.get("kind") != "cover-fixture":
        raise DomainError("not a cover fixture")
    if obj.get("schema") != SCHEMA:
        raise DomainError(f"fixture schema must be {SCHEMA!r}, not {short_repr(obj.get('schema'))}")
    try:
        R = RibbonGraph(obj["n_edges"], [tuple(r) for r in obj["base_rotations"]])
        m, g = obj["m"], obj["g"]
        volts = VoltageAssignment(m, obj["voltages"])
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed cover fixture: {exc}")
    if volts.values != tuple(obj["voltages"]):
        raise DomainError("fixture voltages must lie in 0..m-1")
    if type(g) is not int or g != R.genus():
        raise DomainError("fixture genus g disagrees with its ribbon graph")
    cov = cyclic_cover(R, volts, m)
    for key, matrix in [
        ("sigma", cov.sigma.matrix),
        ("pushforward", cov.pushforward.matrix),
        ("transfer", cov.transfer.matrix),
    ]:
        if mat_from_obj(obj.get(key)) != matrix:
            raise DomainError(f"fixture matrix {key!r} disagrees with the rebuilt cover")
    for key, polarized in [("total", cov.total), ("base", cov.base)]:
        part = obj.get(key)
        # refused before decoding, which builds one row per ambient dimension
        if isinstance(part, dict) and part.get("ambient_dim") != polarized.ambient_dim:
            raise DomainError(f"fixture {key!r} has ambient_dim "
                              f"{short_repr(part.get('ambient_dim'))}, "
                              f"not the rebuilt cover's {polarized.ambient_dim}")
        if polarized_from_obj(part) != polarized:
            raise DomainError(f"fixture {key} lattice disagrees with the rebuilt cover")
    return cov


def welters_report(out):
    """The full certification report of a WeltersOutput, JSON-ready.

    Serializes the inputs (ambient lattice, B, K), each asserted identity
    with its pass/fail flag, and the polarization types at every stage.
    """
    pair = out.pair
    return {
        "schema": SCHEMA,
        "kind": "welters-certificate",
        "m": out.m,
        "inputs": {
            "ambient": polarized_to_obj(pair.ambient),
            "sub_B": lattice_to_obj(pair.sub_B),
            "K": lattice_to_obj(out.K.upper),
        },
        "identities": {name: bool(ok) for name, ok in out.certificate.items()},
        "types": {
            "ambient": [str(d) for d in polarization_type(pair.ambient)],
            "restricted_to_B": [str(d) for d in polarization_type(pair.restricted(pair.sub_B))],
            "restricted_to_A": [str(d) for d in polarization_type(pair.restricted(pair.sub_A))],
            "X": [str(d) for d in polarization_type(out.X)],
        },
        "orders": {
            "A∩B": str(pair.intersection.order),
            "K": str(out.K.order),
        },
        "maps": {
            "u": mat_to_obj(out.u.matrix),
            "u_t": mat_to_obj(out.u_t.matrix),
            "j": mat_to_obj(out.j.matrix),
        },
    }


def dumps_canonical(obj):
    """Canonical JSON text: sorted keys, two-space indent, fixed separators, trailing newline.

    The text is ``json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "))``
    plus a newline.  A dict key that is not a ``str`` raises ``TypeError``, as
    does a leaf that json cannot serialize.
    """
    return _dump(obj, "\n") + "\n"


def _dump(obj, nl):
    """``obj`` as indented JSON whose nested lines start with ``nl``, a newline and an indent."""
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        return "{" + inner + ("," + inner).join(
            _quote(k) + ": " + _dump(obj[k], inner) for k in sorted(obj)) + nl + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        if all(type(x) is str for x in obj):
            items = map(_quote, obj)
        else:
            items = (_dump(x, inner) for x in obj)
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    return int.__repr__(obj) if type(obj) is int else json.dumps(obj)
