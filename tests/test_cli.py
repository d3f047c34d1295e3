"""CLI: determinism, payload shape, and exit codes."""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symplat import cli, covers
from symplat.cli import (
    EXIT_BUDGET,
    EXIT_CERTIFICATION,
    EXIT_OK,
    EXIT_VALIDATION,
    cmd_quotient,
    run,
)
from symplat.covers import VoltageAssignment, cyclic_cover, ker_mu_basis, standard_cover
from symplat.finquot import FiniteQuotient
from symplat.jsonio import SCHEMA, cover_to_obj, dumps_canonical

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
    ],
    ids=[
        "m-float", "m-bool", "n_edges-huge", "n_edges-float", "voltage-float",
        "voltage-too-big", "voltage-negative", "dart-float", "g-str", "g-null",
        "g-negative", "g-wrong", "g-bool", "g-missing", "sigma-missing", "total-missing",
        "total-dim-str", "base-dim-str", "total-dim-bool", "base-dim-negative",
        "total-basis-ragged",
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
        "sys.exit(cli.main(['quotient', '--g', '1', '--m', '2']))\n"
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
    monkeypatch.setattr(covers, "enumerate_mti", lambda Q, p: [])
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
    obj = {"kind": "cover-fixture", "n_edges": 2 * g, "base_rotations": [rotation],
           "m": 2, "g": g, "voltages": [1] + [0] * (2 * g - 1)}
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


def test_quotient_text_format():
    code, text = run(["quotient", "--g", "1", "--m", "2", "--format", "text"])
    assert code == EXIT_OK
    assert "quotients = [3 entries]" in text.splitlines()


def test_cmd_quotient_direct():
    report = cmd_quotient(1, 3, "all")
    assert report["count"] == 4
