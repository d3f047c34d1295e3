"""CLI: determinism, payload shape, and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symplat import cli, comppair, covers, pollat
from symplat.cli import (
    EXIT_BUDGET,
    EXIT_CERTIFICATION,
    EXIT_OK,
    EXIT_VALIDATION,
    cmd_quotient,
    run,
)
from symplat.covers import (
    VoltageAssignment,
    classify_mti_K,
    cyclic_cover,
    ker_mu_basis,
    standard_cover,
)
from symplat.errors import DomainError
from symplat.finquot import FiniteQuotient
from symplat.jsonio import SCHEMA, cover_to_obj, dumps_canonical
from symplat.lattice import Lattice

from conftest import voltage_covers, welters_by_classifying


def payload(argv):
    code, text = run(argv)
    assert code == EXIT_OK, text
    return json.loads(text)


def test_quotient_census_g1_m2():
    p = payload(["quotient", "--g", "1", "--m", "2", "--mode", "all"])
    assert p["schema"] == SCHEMA
    assert p["count"] == 3
    assert all(q["principal"] for q in p["quotients"])


def test_quotient_census_g1_m1():
    p = payload(["quotient", "--g", "1", "--m", "1"])
    assert p["count"] == 1
    assert p["quotients"][0]["type"] == ["1"]


def test_quotient_census_g2_m2():
    p = payload(["quotient", "--g", "2", "--m", "2", "--mode", "all"])
    assert p["count"] == 15
    assert all(q["principal"] for q in p["quotients"])


def test_quotient_mode_one():
    p = payload(["quotient", "--g", "2", "--m", "3", "--mode", "one"])
    assert p["count"] == 1


def _record_calls(monkeypatch, owner, name, count=lambda args: 1):
    """Patch owner.name to record how many items each call makes; returns the counts."""
    counts = []
    real = getattr(owner, name)

    def recorded(*args):
        counts.append(count(args))
        return real(*args)

    monkeypatch.setattr(owner, name, recorded)
    return counts


def test_quotient_mode_one_builds_only_what_it_prints(monkeypatch):
    built = _record_calls(monkeypatch, FiniteQuotient, "_over_hermite", lambda args: len(args[2]))
    inits = _record_calls(monkeypatch, FiniteQuotient, "__init__")
    certified = _record_calls(monkeypatch, cli, "principal_quotients", lambda args: len(args[1]))
    p = payload(["quotient", "--g", "3", "--m", "2", "--mode", "one"])
    assert p["count"] == 1
    # one survivor is built and certified; the other two quotients are the
    # 2-torsion itself and the radical of its pairing
    assert (sum(built), sum(certified), sum(inits)) == (1, 1, 2)


def test_cover_searches_no_lagrangians(monkeypatch):
    # classify_mti_K certifies its list by the psi(m) count, so a cover run
    # never enumerates ker mu_B; every module that holds enumerate_mti counts
    holders = [
        module for name, module in sorted(sys.modules.items())
        if name.startswith("symplat.") and hasattr(module, "enumerate_mti")
    ]
    searches = [_record_calls(monkeypatch, module, "enumerate_mti") for module in holders]
    assert len(payload(["cover", "--g", "2", "--m", "6"])["certificate"]["subgroups"]) == 12
    assert len(classify_mti_K(standard_cover(2, 4))) == 6
    assert sum(map(len, searches)) == 0
    comppair.preset_m2("jacobian_quotient", pollat.standard_principal(1))
    assert sum(map(len, searches)) == 1  # the counters see a search that does run


def test_principal_census_takes_no_smith_form(monkeypatch):
    # a Gram of determinant 1 is principal; only the others take a Smith form
    snfs = _record_calls(monkeypatch, pollat, "smith_normal_form")
    p = payload(["quotient", "--g", "2", "--m", "3", "--mode", "all"])
    assert (p["count"], len(snfs)) == (40, 0)
    pollat.PolarizedLattice(Lattice.standard(2), pollat.symplectic_form(1) * 2)
    assert len(snfs) == 1


@pytest.mark.parametrize("g, m", [(1, 2), (2, 2), (2, 3), (1, 4), (1, 6), (2, 4)])
def test_quotient_mode_one_prints_the_first_entry_of_all(g, m):
    argv = ["quotient", "--g", str(g), "--m", str(m), "--mode"]
    one, every = payload(argv + ["one"]), payload(argv + ["all"])
    assert one["quotients"] == every["quotients"][:1]
    assert {**one, "mode": "all", "count": every["count"], "quotients": every["quotients"]} \
        == every


@pytest.mark.parametrize("budget, code", [(13527, EXIT_BUDGET), (13528, EXIT_OK)])
def test_quotient_mode_one_runs_the_whole_search(budget, code):
    # the (3,3) search tries 13,528 placements; --mode one prints one entry of it
    argv = ["quotient", "--g", "3", "--m", "3", "--budget", str(budget), "--mode"]
    one, every = run(argv + ["one"]), run(argv + ["all"])
    assert one[0] == every[0] == code
    if code == EXIT_BUDGET:
        assert one == every == (code, "budget error: more than 13527 candidate subgroups\n")


def test_quotient_budget_exit():
    code, text = run(["quotient", "--g", "2", "--m", "17"])
    assert code == EXIT_BUDGET


def test_quotient_budget_bounds_candidates():
    # order 256 is far under the budget, but (Z/2)^8 has 417,199 subgroups
    start = time.monotonic()
    code, text = run(["quotient", "--g", "4", "--m", "2", "--budget", "1000"])
    assert code == EXIT_BUDGET
    assert "more than 1000 candidate subgroups" in text
    assert time.monotonic() - start < 10


def test_cover_report_2_2():
    p = payload(["cover", "--g", "2", "--m", "2"])
    cert = p["certificate"]
    assert cert["cover_genus"] == 3
    assert cert["ker_mu_invariants"] == ["2", "2"]
    labels = [s["label"] for s in cert["subgroups"]]
    assert labels == ["0:1", "1:0", "1:1"]
    flags = {s["label"]: s["birational"] for s in cert["subgroups"]}
    assert flags == {"0:1": False, "1:0": True, "1:1": True}
    assert all(s["kernel_identification"] for s in cert["subgroups"])


def test_cover_report_2_3():
    p = payload(["cover", "--g", "2", "--m", "3"])
    cert = p["certificate"]
    assert cert["cover_genus"] == 4
    assert len(cert["subgroups"]) == 4


def test_cover_m1_degenerate():
    p = payload(["cover", "--g", "2", "--m", "1"])
    assert p["certificate"]["degenerate"] is True
    assert p["certificate"]["cover_genus"] == 2


def test_welters_via_fixture(tmp_path):
    fixture = tmp_path / "cover.json"
    code, text = run(["cover", "--g", "2", "--m", "2", "--out", str(fixture)])
    assert code == EXIT_OK
    p = payload(["welters", str(fixture), "--K", "1:0"])
    assert p["birational"] is True
    assert p["X_type"] == ["1", "1"]
    cert = p["certificate"]
    assert all(cert["identities"].values())
    assert cert["types"]["X"] == ["1", "1"]
    assert cert["inputs"]["ambient"]["ambient_dim"] == 6
    p2 = payload(["welters", str(fixture), "--K", "0:1"])
    assert p2["birational"] is False
    assert all(p2["certificate"]["identities"].values())


def test_welters_bad_fixture(tmp_path):
    missing = tmp_path / "nope.json"
    code, _ = run(["welters", str(missing)])
    assert code == EXIT_VALIDATION
    bad = tmp_path / "bad.json"
    bad.write_text('{"fixture": {"kind": "cover-fixture"}}')
    code, _ = run(["welters", str(bad)])
    assert code == EXIT_VALIDATION
    bad.write_text('{"fixture": [1, 2]}')
    code, _ = run(["welters", str(bad)])
    assert code == EXIT_VALIDATION
    bad.write_text("[1, 2]")
    assert run(["welters", str(bad)]) == (
        EXIT_VALIDATION, "invalid input: fixture file does not contain an object\n"
    )


@pytest.fixture(scope="module")
def fixture22():
    code, text = run(["cover", "--g", "2", "--m", "2"])
    assert code == EXIT_OK
    return json.loads(text)["fixture"]


def _edit_base_rotations(obj):
    obj["base_rotations"][0][0] = float(obj["base_rotations"][0][0])


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: obj.update(m=1.5),
        lambda obj: obj.update(m=True),
        lambda obj: obj.update(n_edges=10**30),
        lambda obj: obj.update(n_edges=4.0),
        lambda obj: obj["voltages"].__setitem__(0, 1.0),
        lambda obj: obj["voltages"].__setitem__(0, 3),
        lambda obj: obj["voltages"].__setitem__(0, -1),
        _edit_base_rotations,
        lambda obj: obj.update(g="x"),
        lambda obj: obj.update(g=None),
        lambda obj: obj.update(g=-1),
        lambda obj: obj.update(g=3),
        lambda obj: obj.update(g=True),
        lambda obj: obj.pop("g"),
        lambda obj: obj.pop("sigma"),
        lambda obj: obj.pop("total"),
        lambda obj: obj.update(total={"ambient_dim": "x", "basis": [], "form": []}),
        lambda obj: obj.update(base={"ambient_dim": "x", "basis": [], "form": []}),
        lambda obj: obj["total"].update(ambient_dim=True),
        lambda obj: obj["base"].update(ambient_dim=-1),
        lambda obj: obj["total"]["basis"][1].pop(),
        lambda obj: obj.pop("schema"),
        lambda obj: obj.update(schema="ppav-lattice/0"),
        lambda obj: obj.update(schema=1),
    ],
    ids=[
        "m-float", "m-bool", "n_edges-huge", "n_edges-float", "voltage-float",
        "voltage-too-big", "voltage-negative", "dart-float", "g-str", "g-null",
        "g-negative", "g-wrong", "g-bool", "g-missing", "sigma-missing", "total-missing",
        "total-dim-str", "base-dim-str", "total-dim-bool", "base-dim-negative",
        "total-basis-ragged", "schema-missing", "schema-old", "schema-int",
    ],
)
def test_welters_malformed_fixture_numbers(tmp_path, fixture22, edit):
    obj = json.loads(json.dumps(fixture22))
    edit(obj)
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"fixture": obj}))
    code, text = run(["welters", str(path), "--K", "1:0"])
    assert code == EXIT_VALIDATION, text
    assert text.startswith("invalid input:")


def test_welters_disconnected_fixture_exits_3(tmp_path, fixture22):
    obj = json.loads(json.dumps(fixture22))
    obj["voltages"] = [0] * len(obj["voltages"])
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"fixture": obj}))
    code, text = run(["welters", str(path), "--K", "1:0"])
    assert (code, text) == (
        EXIT_VALIDATION, "invalid input: voltages do not generate Z/m: the cover is disconnected\n"
    )


def test_welters_fixture_with_a_negated_total_form_exits_3(tmp_path, fixture22):
    obj = json.loads(json.dumps(fixture22))
    obj["total"]["form"] = [[str(-Fraction(x)) for x in row] for row in obj["total"]["form"]]
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"fixture": obj}))
    assert run(["welters", str(path), "--K", "1:0"]) == (
        EXIT_VALIDATION, "invalid input: fixture total lattice disagrees with the rebuilt cover\n"
    )


@pytest.mark.parametrize("key", ["total", "base"])
def test_welters_fixture_ambient_dim_is_refused_before_decoding(tmp_path, fixture22, key):
    # decoding would build one row per ambient dimension
    obj = json.loads(json.dumps(fixture22))
    obj[key] = {"ambient_dim": 10**9, "basis": [], "form": []}
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"fixture": obj}))
    start = time.monotonic()
    code, text = run(["welters", str(path), "--K", "1:0"])
    assert code == EXIT_VALIDATION, text
    assert f"fixture {key!r} has ambient_dim" in text
    assert time.monotonic() - start < 1


def _ambient_dim_list(obj):
    obj["base"]["ambient_dim"] = list(range(200000))


def _long_matrix_entry(obj):
    obj["sigma"]["rows"][0][0] = "x" * 100000


@pytest.mark.parametrize(
    "edit, label, prefix",
    [
        (_ambient_dim_list, "1:0", "invalid input: fixture 'base' has ambient_dim [0, 1, "),
        (_long_matrix_entry, "1:0", "invalid input: malformed exact number 'xxx"),
        (None, "1:" + "x" * 100000, "invalid input: malformed K label '1:xxx"),
    ],
    ids=["ambient_dim", "matrix-entry", "K-label"],
)
def test_echoed_input_is_bounded(tmp_path, fixture22, edit, label, prefix):
    obj = json.loads(json.dumps(fixture22))
    if edit:
        edit(obj)
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"fixture": obj}))
    code, text = run(["welters", str(path), "--K", label])
    assert code == EXIT_VALIDATION, text[:300]
    assert text.startswith(prefix) and len(text) < 200, text[:300]


def test_cover_identities_come_from_the_checks(monkeypatch):
    cov = standard_cover(2, 2)
    assert set(cov.certificate) == {name for _, name in cli._COVER_IDENTITIES} | {
        "sigma-nontrivial"
    }
    assert all(cov.certificate.values())
    assert "sigma-nontrivial" not in standard_cover(2, 1).certificate
    failing = dict(cov.certificate, **{"sigma-order-m": False})
    fake = SimpleNamespace(cover_genus=cov.cover_genus, certificate=failing)
    monkeypatch.setattr(cli, "standard_cover", lambda g, m: fake)
    monkeypatch.setattr(cli, "cover_to_obj", lambda c: {})
    identities = cli.cmd_cover(2, 1)["certificate"]["identities"]
    assert list(identities) == [label for label, _ in cli._COVER_IDENTITIES]
    assert identities["sigma^m = 1"] is False
    assert sum(identities.values()) == 5


def test_cover_under_python_O_matches_in_process():
    # the certification checks are explicit raises, so they also run under -O;
    # m = 4 also certifies the labels whose K + <P_1> lies strictly inside ker mu
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for m in ("3", "4"):
        argv = ["cover", "--g", "2", "--m", m]
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "symplat.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120, check=False,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == run(argv)[1]


def test_welters_under_python_O_matches_in_process(tmp_path):
    fixture = tmp_path / "cover.json"
    assert run(["cover", "--g", "2", "--m", "3", "--out", str(fixture)])[0] == EXIT_OK
    argv = ["welters", str(fixture), "--K", "1:0"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "symplat.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == run(argv)[1]


def test_forced_failure_under_python_O_exits_1():
    # certify raises explicitly, so a failed Smith certificate stops -O too
    script = (
        "import sys\n"
        "from symplat import cli, matrix\n"
        "def swap_cols_in_a_only(self, i, j):\n"
        "    for row in self.w[:self.m]:\n"
        "        row[i], row[j] = row[j], row[i]\n"
        "matrix._SnfState.swap_cols = swap_cols_in_a_only\n"
        "sys.exit(cli.main(['cover', '--g', '1', '--m', '2']))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == EXIT_CERTIFICATION, proc.stderr
    assert proc.stderr == "certification failure: Smith normal form transforms failed: ['U*M*V = D']\n"


def test_forced_cover_failure_exits_1(monkeypatch):
    real = covers.mti_labels
    monkeypatch.setattr(covers, "mti_labels", lambda m: real(m)[1:])  # one label too few
    code, text = run(["cover", "--g", "2", "--m", "2"])
    assert code == EXIT_CERTIFICATION
    assert text.startswith("certification failure:"), text
    assert "['classify-crosscheck']" in text


def test_forced_welters_failure_exits_1(monkeypatch, tmp_path):
    fixture = tmp_path / "cover.json"
    assert run(["cover", "--g", "2", "--m", "3", "--out", str(fixture)])[0] == EXIT_OK
    monkeypatch.setattr(covers, "is_maximal_isotropic", lambda K, p: False)
    code, text = run(["welters", str(fixture), "--K", "1:0"])
    assert code == EXIT_CERTIFICATION
    assert text == "certification failure: <1 xi + 0 P1> m.t.i. certification failed: ['classify-mti']\n"


def test_cover_degree_is_bounded():
    # a genus-1 cover stays genus 1, so only the degree grows the derived graph
    start = time.monotonic()
    code, text = run(["cover", "--g", "1", "--m", "10000"])
    assert code == EXIT_BUDGET, text
    assert time.monotonic() - start < 1


# sha256 of the stdout of large covers, unchanged since products became row combinations
LARGE_COVER_DIGESTS = {
    ("2", "32"): "276b7745770bb3a6c8386f4e2dea52a98cd994622412cd96a58ddbe0e551cf90",
    ("4", "16"): "82f044d9febf25d5ed07a9e7498dfc488b0d51f61f2087c2f01ca2ac854ee424",
    ("2", "64"): "263934956d4ee729c024ab21c76502db09fed5319f3e8b4702e82d7e96cd08cd",
    ("64", "2"): "c5f1010cab3fff6e53318356476c6e31a90f0621dc3395335d8291743b7275fb",
    ("3", "42"): "e57d971f51e2ad39bc5b6a6a6af1565076cf33b05cd65e53e127a3547928b056",
}


# (64, 2), the largest base genus, and (3, 42), the slowest of the 256-edge covers
@pytest.mark.parametrize("g, m", [("4", "16"), ("2", "64"), ("64", "2"), ("3", "42")])
def test_large_cover_stdout_is_pinned(g, m):
    code, text = run(["cover", "--g", g, "--m", m])
    assert code == EXIT_OK, text
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_COVER_DIGESTS[g, m]


def test_g3_m4_census_one_stdout_is_pinned():
    # the (3,4) search tries 291,646 placements, past the default budget
    argv = ["quotient", "--g", "3", "--m", "4", "--budget", "10000000", "--mode", "one"]
    code, text = run(argv)
    assert code == EXIT_OK, text
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "71c9fe89873e9ef8765594dc4cc1f4e0777168bda08ee074a134af64655744dd"
    )


# sha256 of the stdout of the composite-m censuses (2,4) and (2,6), of the
# (3,3) census, the largest at an odd prime m, and of the (4,2) census with its
# 2295 quotients; the golden set has none of them
CENSUS_DIGESTS = {
    ("2", "4"): "89c10f2bb38f83f1ff7c94c120e9df7ba16cb37dcfd3444d00a6068e1cdf2490",
    ("2", "6"): "3c6c70b6c784d46a500c00db71e2b3e14bd509ada224f8a07fcb945c128becbc",
    ("3", "3"): "655cdcc39c4feec7f2bfacfc15a891da9f3eb43237d04b3e73d6d0abde2457cd",
    ("4", "2"): "8069f6d8302b02070f5d40b33dd190b04310dfd1be8cff133074281c47165517",
}


@pytest.mark.parametrize("g, m", sorted(CENSUS_DIGESTS))
def test_census_outside_the_golden_set_is_pinned(g, m):
    code, text = run(["quotient", "--g", g, "--m", m, "--mode", "all"])
    assert code == EXIT_OK, text
    assert hashlib.sha256(text.encode()).hexdigest() == CENSUS_DIGESTS[g, m]


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def test_every_benchmark_golden_digest_matches(tmp_path):
    # a "welters cover-G-M --K a:b" key runs on the fixture of standard_cover(G, M);
    # its stdout does not name the fixture's path
    golden = json.loads(GOLDEN.read_text())
    kinds = {}
    for name, digest in golden.items():
        argv = name.split()
        if argv[0] == "welters":
            path = tmp_path / f"{argv[1]}.json"
            if not path.exists():
                _, g, m = argv[1].split("-")
                path.write_text(dumps_canonical(cover_to_obj(standard_cover(int(g), int(m)))))
            argv[1] = str(path)
        code, text = run(argv)
        assert code == EXIT_OK, (name, text)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name
        kinds[argv[0]] = kinds.get(argv[0], 0) + 1
    assert kinds == {"cover": 7, "quotient": 6, "welters": 17}


def test_cover_edge_guard_admits_its_bound():
    # (2, 64) has 4 * 64 = 256 edges, exactly MAX_COVER_EDGES
    code, text = run(["cover", "--g", "2", "--m", "64"])
    assert code == EXIT_OK, text
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_COVER_DIGESTS["2", "64"]


@pytest.mark.parametrize("g, m", [("2", "65"), ("1", "129")])
def test_cover_edge_guard_just_past_the_bound(g, m):
    # 4 * 65 = 260 and 2 * 129 = 258 edges, one step past MAX_COVER_EDGES = 256
    start = time.monotonic()
    code, text = run(["cover", "--g", g, "--m", m])
    assert code == EXIT_BUDGET, text
    assert text == f"budget error: a degree-{m} cover has more than 256 edges\n"
    assert time.monotonic() - start < 1


def test_welters_fixture_degree_is_bounded(tmp_path):
    # a ~1 KB genus-1 fixture whose m asks for a 10^4-sheeted cover
    code, text = run(["cover", "--g", "1", "--m", "2"])
    assert code == EXIT_OK
    obj = json.loads(text)["fixture"]
    obj["m"] = 10**4
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"fixture": obj}))
    assert path.stat().st_size < 2048
    start = time.monotonic()
    code, text = run(["welters", str(path), "--K", "1:0"])
    assert code == EXIT_BUDGET, text
    assert time.monotonic() - start < 1


@pytest.mark.parametrize("argv", [
    ["quotient", "--g", "1000", "--m", "2"],  # order 2^2000, far over the budget
    ["quotient", "--g", "1000", "--m", "1"],  # order 1: only the genus bound applies
    ["cover", "--g", "100000", "--m", "2"],
])
def test_guards_fire_before_the_set_up(argv):
    start = time.monotonic()
    code, text = run(argv)
    assert code == EXIT_BUDGET, text
    assert time.monotonic() - start < 1


def test_welters_large_one_vertex_fixture_is_bounded(tmp_path):
    # a genus-5000 one-vertex ribbon graph: 10,000 edges around one vertex
    g = 5000
    rotation = [d for i in range(g) for d in (4 * i, 4 * i + 2, 4 * i + 1, 4 * i + 3)]
    obj = {"schema": SCHEMA, "kind": "cover-fixture", "n_edges": 2 * g,
           "base_rotations": [rotation], "m": 2, "g": g, "voltages": [1] + [0] * (2 * g - 1)}
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"fixture": obj}))
    start = time.monotonic()
    code, text = run(["welters", str(path), "--K", "1:0"])
    assert code == EXIT_BUDGET, text
    assert time.monotonic() - start < 1


def test_welters_unknown_label(tmp_path):
    fixture = tmp_path / "cover.json"
    run(["cover", "--g", "2", "--m", "2", "--out", str(fixture)])
    code, _ = run(["welters", str(fixture), "--K", "0:0"])
    assert code == EXIT_VALIDATION
    code, _ = run(["welters", str(fixture), "--K", "1-0"])
    assert code == EXIT_VALIDATION
    # labels are read modulo m: 5:5 is 1:1
    code, _ = run(["welters", str(fixture), "--K", "5:5"])
    assert code == EXIT_OK


# -- welters lifts only the label it is given ---------------------------------

def _write_fixture(cov, path):
    path.write_text(dumps_canonical({"fixture": cover_to_obj(cov)}))
    return str(path)


def _assert_welters_as_by_classifying(cov, path):
    for label, expected in welters_by_classifying(cov).items():
        assert run(["welters", path, "--K", label]) == expected, label


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 9])
def test_welters_matches_the_classifying_lookup(tmp_path, m):
    cov = standard_cover(2, m)
    _assert_welters_as_by_classifying(cov, _write_fixture(cov, tmp_path / "cover.json"))


@settings(max_examples=4, deadline=None)
@given(voltage_covers(st.just(2), st.sampled_from((4, 6)), st.just(False)))
def test_welters_matches_the_classifying_lookup_on_drawn_voltages(cover):
    R, volts, m = cover
    cov = cyclic_cover(R, VoltageAssignment(m, volts), m)
    with tempfile.TemporaryDirectory() as d:
        _assert_welters_as_by_classifying(cov, _write_fixture(cov, Path(d) / "cover.json"))


def test_welters_lifts_one_subgroup_and_classifies_none(monkeypatch, tmp_path, cover23):
    # a cover whose (xi_bar, P_1) is known: the generation check of ker_mu_basis
    # forms a subgroup of its own, so only the lift is left to count
    ker_mu_basis(cover23)
    monkeypatch.setattr(cli, "cover_from_obj", lambda obj: cover23)
    calls = {"classify": 0, "subgroup": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (cli, covers):
        monkeypatch.setattr(module, "classify_mti_K", counting("classify", covers.classify_mti_K))
    monkeypatch.setattr(
        FiniteQuotient, "subgroup", counting("subgroup", FiniteQuotient.subgroup)
    )
    path = _write_fixture(cover23, tmp_path / "cover.json")
    code, text = run(["welters", path, "--K", "1:2"])
    assert code == EXIT_OK, text
    assert calls == {"classify": 0, "subgroup": 1}


def test_welters_on_a_degree_one_fixture(tmp_path):
    path = _write_fixture(standard_cover(2, 1), tmp_path / "cover.json")
    for label in ("0:0", "1:0"):
        assert run(["welters", path, "--K", label]) == (
            EXIT_VALIDATION, "invalid input: ker mu basis needs a cover of degree >= 2\n"
        )


def test_deeply_nested_fixture_is_unreadable(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, text = run(["welters", str(path), "--K", "1:0"])
    assert code == EXIT_VALIDATION
    assert text.startswith("invalid input: cannot read fixture: ")


_FIXTURE22 = cover_to_obj(standard_cover(2, 2))
_huge = st.one_of(st.integers(2**31, 2**200), st.integers(-(2**200), -(2**31)))
_junk = st.one_of(
    st.none(), st.booleans(), _huge, st.floats(allow_nan=False), st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=3), st.dictionaries(st.text(max_size=2), st.integers()),
)


@st.composite
def fixture_edits(draw):
    """One edit of the (2, 2) fixture: a dropped or retyped key, a dart or a
    voltage out of range, a huge int, or a base graph split in two."""
    obj = json.loads(json.dumps(_FIXTURE22))
    key = draw(st.sampled_from(sorted(obj)))
    part = draw(st.sampled_from(["base", "total"]))
    kind = draw(st.sampled_from(
        ["drop", "drop-nested", "retype", "retype-nested", "dart", "voltage", "huge",
         "disconnect"]
    ))
    if kind == "drop":
        del obj[key]
    elif kind == "drop-nested":
        del obj[part][draw(st.sampled_from(sorted(obj[part])))]
    elif kind == "retype":
        obj[key] = draw(_junk)
    elif kind == "retype-nested":
        obj[part][draw(st.sampled_from(sorted(obj[part])))] = draw(_junk)
    elif kind == "dart":
        rot = obj["base_rotations"][0]
        rot[draw(st.integers(0, len(rot) - 1))] = draw(st.integers(-3, 12) | _huge)
    elif kind == "voltage":
        volts = obj["voltages"]
        volts[draw(st.integers(0, len(volts) - 1))] = draw(st.integers(-3, 5) | _huge)
    elif kind == "huge":
        obj[draw(st.sampled_from(["g", "m", "n_edges"]))] = draw(_huge)
    else:
        # both darts of each drawn edge on one vertex, the others on a second
        darts = obj["base_rotations"][0]
        edges = draw(st.sets(st.integers(0, obj["n_edges"] - 1), min_size=1,
                             max_size=obj["n_edges"] - 1))
        obj["base_rotations"] = [[d for d in darts if d // 2 in edges],
                                 [d for d in darts if d // 2 not in edges]]
    return obj


@settings(max_examples=40, deadline=None)
@given(obj=fixture_edits(), wrapped=st.booleans())
def test_fuzzed_fixtures_exit_cleanly(tmp_path_factory, obj, wrapped):
    path = tmp_path_factory.mktemp("fuzz") / "cover.json"
    path.write_text(json.dumps({"fixture": obj} if wrapped else obj))
    start = time.monotonic()
    code, text = run(["welters", str(path)])
    assert code in (EXIT_OK, EXIT_CERTIFICATION, EXIT_BUDGET, EXIT_VALIDATION), text
    assert time.monotonic() - start < 1


@pytest.mark.parametrize("target", ["missing/report.json", ""], ids=["no-such-dir", "a-dir"])
def test_unwritable_out_exits_3(tmp_path, target):
    code, text = run(["dims", "--g", "2", "--m", "2", "--out", str(tmp_path / target)])
    assert code == EXIT_VALIDATION
    assert text.startswith("invalid input: cannot write output: ")


def test_dims_payload():
    p = payload(["dims", "--g", "5", "--m", "2", "--r", "0"])
    assert p["dim_Ag"] == 15
    assert p["cover_genus"] == 9


def test_dims_odd_r():
    code, _ = run(["dims", "--g", "2", "--m", "2", "--r", "3"])
    assert code == EXIT_VALIDATION


def test_argument_errors_are_validation():
    code, _ = run(["quotient", "--g", "x", "--m", "2"])
    assert code == EXIT_VALIDATION
    code, _ = run(["nonsense"])
    assert code == EXIT_VALIDATION


def _full_parser(monkeypatch):
    """Make ``run`` build all four subcommands whatever argv[0] names."""
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv: build(()))


@pytest.mark.parametrize("argv", [
    ["quotient", "--g", "1", "--m", "2", "--mode", "one"],
    ["cover", "--g", "1", "--m", "2"],
    ["welters", "FIXTURE", "--K", "1:1"],
    ["dims", "--g", "3", "--m", "2", "--format", "text"],
    ["quotient", "--m", "2"],  # a missing required flag
    ["cover", "--g", "x", "--m", "2"],  # a bad int
    ["quotient", "--g", "1", "--m", "2", "--mode", "some"],  # a bad choice
    ["dims", "--g", "3", "--m", "2", "--s", "1"],  # an unknown option
    [],
    ["quotinet", "--g", "1", "--m", "2"],  # an unknown command
])
def test_one_subcommand_parser_answers_as_the_full_parser(monkeypatch, tmp_path, fixture22, argv):
    path = tmp_path / "fixture.json"
    path.write_text(dumps_canonical(fixture22))
    argv = [str(path) if a == "FIXTURE" else a for a in argv]
    reduced = run(argv)
    _full_parser(monkeypatch)
    assert run(argv) == reduced


@pytest.mark.parametrize("argv", [["-h"], ["quotient", "-h"], ["welters", "--help"]])
def test_help_matches_the_full_parser(monkeypatch, capsys, argv):
    helps = []
    for full in (False, True):
        if full:
            _full_parser(monkeypatch)
        with pytest.raises(SystemExit) as stop:
            run(argv)
        helps.append((stop.value.code, capsys.readouterr()))
    assert helps[0] == helps[1]


def test_parser_builds_only_the_named_subcommand():
    parser = cli.build_parser(["quotient", "--g", "1"])
    with pytest.raises(DomainError, match=r"invalid choice: 'cover' \(choose from 'quotient'\)"):
        parser.parse_args(["cover", "--g", "1", "--m", "2"])


def test_run_without_argv_reads_the_command_line(monkeypatch):
    argv = ["dims", "--g", "3", "--m", "2"]
    monkeypatch.setattr(sys, "argv", ["symplat"] + argv)
    assert run() == run(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["quotient", "--g", "1", "--m", "3", "--mode", "all"],
        ["cover", "--g", "2", "--m", "2"],
        ["dims", "--g", "4", "--m", "3", "--r", "2"],
    ],
)
def test_byte_identical_runs(argv):
    out1 = run(argv)
    out2 = run(argv)
    assert out1 == out2


def test_out_file_matches_stdout(tmp_path):
    out = tmp_path / "report.json"
    code, text = run(["dims", "--g", "3", "--m", "2", "--out", str(out)])
    assert code == EXIT_OK
    assert out.read_text() == text


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_out_serializes_the_payload_once(tmp_path, monkeypatch, fmt):
    calls = []
    monkeypatch.setattr(cli, "dumps_canonical", lambda obj: calls.append(obj) or dumps_canonical(obj))
    out = tmp_path / "report.json"
    argv = ["quotient", "--g", "2", "--m", "2", "--mode", "all"]
    code, text = run(argv + ["--format", fmt, "--out", str(out)])
    assert code == EXIT_OK
    assert len(calls) == 1
    # the file holds the JSON report whichever format goes to stdout
    assert out.read_text() == run(argv)[1] == dumps_canonical(calls[0])
    assert (out.read_text() == text) == (fmt == "json")


def test_text_format():
    code, text = run(["dims", "--g", "3", "--m", "2", "--format", "text"])
    assert code == EXIT_OK
    assert "dim_Ag = 6" in text


@pytest.mark.parametrize("argv, message", [
    (["quotient", "--g", "0", "--m", "2"], "quotient census needs g >= 1 and m >= 1"),
    (["quotient", "--g", "1", "--m", "0"], "quotient census needs g >= 1 and m >= 1"),
    (["cover", "--g", "0", "--m", "2"], "cover needs g >= 1 and m >= 1"),
])
def test_nonpositive_genus_or_degree_is_validation(argv, message):
    assert run(argv) == (EXIT_VALIDATION, f"invalid input: {message}\n")


@pytest.mark.parametrize("budget", ["-1", "0"])
def test_quotient_budget_below_one_is_validation(budget):
    for mode in ("all", "one"):
        argv = ["quotient", "--g", "3", "--m", "3", "--budget", budget, "--mode", mode]
        assert run(argv) == (EXIT_VALIDATION, "invalid input: budget must be >= 1\n")


def test_quotient_text_format():
    code, text = run(["quotient", "--g", "1", "--m", "2", "--format", "text"])
    assert code == EXIT_OK
    assert "quotients = [3 entries]" in text.splitlines()


def test_cmd_quotient_direct():
    report = cmd_quotient(1, 3, "all")
    assert report["count"] == 4
