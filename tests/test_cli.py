from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hosite
from hosite import (
    CheckReport,
    CheckResult,
    all_sieves,
    emit_report,
    fixture_doc,
    parse_site,
    serialize_site,
    site_digest,
)
from hosite.cli import main
import hosite.induced as induced_mod
from hosite.siteio import SiteLoadError


# child interpreters import the same hosite as this one, installed or not
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(hosite.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def run_cli(args, tmp_path=None):
    proc = subprocess.run(
        [sys.executable, "-m", "hosite.cli", *args],
        capture_output=True, text=True, env=CLI_ENV)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("sites")
    paths = {}
    for name in "ABCDE":
        path = root / f"{name.lower()}.json"
        path.write_text(serialize_site(fixture_doc(name)), encoding="utf-8")
        paths[name] = str(path)
    return paths


def test_fixture_round_trip():
    doc = fixture_doc("B")
    site = parse_site(serialize_site(doc))
    assert site.digest == site_digest(doc)


def test_parse_unknown_edge_endpoint():
    doc = json.loads(serialize_site(fixture_doc("B")))
    doc["edges"] = [["f1", "f3"]]
    with pytest.raises(SiteLoadError, match="unknown morphism"):
        parse_site(json.dumps(doc))


def test_parse_empty_site():
    site = parse_site(json.dumps({"objects": []}))
    assert site.category.objects == ()
    assert site.topology.covers == {}


def test_parse_rejects_unknown_key():
    with pytest.raises(SiteLoadError, match="unknown key"):
        parse_site(json.dumps({"objects": [], "bogus": 1}))


def test_parse_rejects_nonassociative_table():
    doc = {
        "objects": ["z"],
        "morphisms": [
            {"name": "p", "dom": "z", "cod": "z"},
            {"name": "q", "dom": "z", "cod": "z"},
            {"name": "r", "dom": "z", "cod": "z"},
        ],
        "composition": {
            "p∘p": "q", "p∘q": "p", "q∘p": "r",
            "q∘q": "q", "q∘r": "r", "r∘q": "q",
            "r∘p": "p", "p∘r": "r", "r∘r": "r",
        },
    }
    with pytest.raises(SiteLoadError, match="associativity"):
        parse_site(json.dumps(doc))


def test_parse_rejects_bad_generator_codomain():
    doc = json.loads(serialize_site(fixture_doc("B")))
    doc["covers"] = {"x": [["f1"]]}
    with pytest.raises(SiteLoadError, match="codomain"):
        parse_site(json.dumps(doc))


def test_parse_rejects_whisker_incompatible():
    doc = {
        "objects": ["x", "y", "z"],
        "morphisms": [
            {"name": "f1", "dom": "x", "cod": "y"},
            {"name": "f2", "dom": "x", "cod": "y"},
            {"name": "g", "dom": "y", "cod": "z"},
            {"name": "p", "dom": "x", "cod": "z"},
            {"name": "q", "dom": "x", "cod": "z"},
        ],
        "composition": {"g∘f1": "p", "g∘f2": "q"},
        "edges": [["f1", "f2"]],
    }
    with pytest.raises(SiteLoadError, match="whisker"):
        parse_site(json.dumps(doc))


@pytest.mark.parametrize("bound", ["5", "-1"])
def test_bound_outside_label_pool_is_load_error(fixture_files, capsys, bound):
    assert main(["check-lemmas", fixture_files["B"], "--bound", bound]) == 1
    err = capsys.readouterr().err
    assert err.startswith("load error:")
    assert "4 labels" in err


def test_chain_site_beyond_sixteen_arrows_loads(tmp_path, capsys):
    # the top object of an 18-object chain has 18 arrows into it
    objects = [f"c{i}" for i in range(1, 19)]
    doc = {
        "objects": objects,
        "morphisms": [{"name": f"a{i}_{j}", "dom": objects[i], "cod": objects[j]}
                      for i in range(18) for j in range(i + 1, 18)],
        "composition": {f"a{j}_{k}∘a{i}_{j}": f"a{i}_{k}"
                        for i in range(18) for j in range(i + 1, 18) for k in range(j + 1, 18)},
    }
    path = tmp_path / "chain.json"
    path.write_text(serialize_site(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert len(all_sieves(parse_site(serialize_site(doc)).category, "c18")) == 19


def test_all_fixtures_self_validate(fixture_files):
    for name, path in fixture_files.items():
        code, out, err = run_cli(["validate", path])
        assert code == 0, (name, out, err)


def test_induce_output_fixture_b(fixture_files):
    code, out, err = run_cli(["induce", fixture_files["B"], "--json"])
    assert code == 0
    payload = json.loads(out)
    covers = next(c for c in payload["checks"] if c["name"] == "induced-covers")
    assert covers["data"]["y"] == ["{[f1]}", "maximal"]
    assert covers["data"]["x"] == ["maximal"]


def test_thicken_output(fixture_files):
    code, out, err = run_cli(["thicken", fixture_files["B"], "--sieve", "f1@y"])
    assert code == 0
    assert "{f1, f2}" in out


def test_sheafify_and_classify_verbs(fixture_files):
    code, out, _ = run_cli(["sheafify", fixture_files["B"], "--presheaf", "K2", "--json"])
    assert code == 0
    data = json.loads(out)["checks"][0]["data"]
    assert data["y"]["count"] == 4
    assert data["x"]["count"] == 2
    code, out, _ = run_cli(["classify", fixture_files["B"], "--presheaf", "K2", "--json"])
    assert code == 0
    data = json.loads(out)["checks"][0]["data"]
    assert data["classification"] == "separated-not-sheaf"
    assert data["witness"] == {"object": "y", "sieve": "{f1, f2}"}


def test_check_lemmas_exit_zero(fixture_files):
    code, out, err = run_cli(["check-lemmas", fixture_files["B"], "--bound", "2", "--seed", "7"])
    assert code == 0, (out, err)
    for group in ("iso-comparison", "sheaf-implications", "converse-witness", "thickening"):
        assert f"[PASS] {group}" in out


def test_unknown_presheaf_is_input_error(fixture_files):
    code, out, err = run_cli(["classify", fixture_files["B"], "--presheaf", "nope"])
    assert code == 1
    assert "unknown presheaf" in err


def test_load_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, out, err = run_cli(["validate", str(bad)])
    assert code == 1
    assert "syntax error" in err


@pytest.mark.parametrize("doc", [
    {"objects": "xy"},
    {"objects": ["x"], "presheaves": {"P": {"values": {"x": "ab"}}}},
    {"objects": [1]},
    {"morphisms": [1]},
], ids=["objects-string", "presheaf-value-string", "objects-int", "morphisms-int"])
def test_malformed_document_is_load_error(tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["validate", str(bad)])
    assert code == 1
    assert err.startswith("load error: ")
    assert "Traceback" not in err


def test_fixture_verb_round_trips(tmp_path):
    out_path = tmp_path / "b.json"
    code, _, _ = run_cli(["fixture", "B", "--out", str(out_path)])
    assert code == 0
    site = parse_site(out_path.read_text(encoding="utf-8"))
    assert site.digest == site_digest(fixture_doc("B"))


def test_json_reports_byte_identical(fixture_files):
    first = run_cli(["check-lemmas", fixture_files["B"], "--seed", "11", "--json"])
    second = run_cli(["check-lemmas", fixture_files["B"], "--seed", "11", "--json"])
    assert first[0] == second[0] == 0
    assert first[1] == second[1]


def test_json_report_round_trips():
    report = CheckReport(
        command="check-lemmas", digest="d" * 64, seed=3, flags={"bound": 2},
        checks=[CheckResult("identification", "pass", "ok", data={"covers": 3})],
        wall_ms=12.5)
    text = emit_report(report, "json")
    assert json.loads(text) == report.to_dict()
    assert "wall" not in text  # wall time never enters the machine form


def test_violation_report_replayable(fixture_files, monkeypatch, capsys):
    # force a disagreement: the report must carry the counterexample, exit 2,
    # and emit byte-identical JSON across replays
    monkeypatch.setattr(induced_mod, "is_bracket_cover", lambda h, t, u: False)
    outputs = []
    for _ in range(2):
        code = main(["check-lemmas", fixture_files["B"], "--seed", "5", "--json"])
        captured = capsys.readouterr()
        assert code == 2
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    failing = [c for c in payload["checks"] if c["verdict"] == "fail"]
    assert failing and failing[0]["counterexample"]["site"]["objects"] == ["x", "y"]


def test_violation_report_prints_replay_line(fixture_files, monkeypatch, capsys):
    monkeypatch.setattr(induced_mod, "is_bracket_cover", lambda h, t, u: False)
    code = main(["check-lemmas", fixture_files["B"], "--seed", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "replay:" in captured.out
    assert "[FAIL] identification" in captured.out


def test_digest_ignores_formatting():
    doc = fixture_doc("B")
    shuffled = json.loads(json.dumps(doc))
    # same content, different key order and whitespace
    text = json.dumps(shuffled, indent=4, sort_keys=False)
    assert site_digest(json.loads(text)) == site_digest(doc)


def test_seed_env_override(fixture_files, monkeypatch):
    proc = subprocess.run(
        [sys.executable, "-m", "hosite.cli", "induce", fixture_files["B"], "--json"],
        capture_output=True, text=True, env={**CLI_ENV, "HOSITE_SEED": "42"})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["seed"] == 42


def test_population_workers_merge_deterministically():
    from hosite import run_population
    serial = run_population(count=6, base_seed=100, workers=1)
    try:
        parallel = run_population(count=6, base_seed=100, workers=2)
    except OSError:
        pytest.skip("process pool unavailable in this environment")
    assert [label for label, _ in serial] == [label for label, _ in parallel]
    for (_, left), (_, right) in zip(serial, parallel):
        assert [c.to_dict() for c in left] == [c.to_dict() for c in right]
