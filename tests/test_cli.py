from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import hosite
from hosite import (
    FIXTURE_NAMES,
    CheckReport,
    CheckResult,
    all_sieves,
    emit_report,
    fixture_doc,
    maximal_sieve,
    parse_site,
    serialize_site,
    site_digest,
)
import hosite.cli as cli
from hosite.cli import build_parser, main, run_command
import hosite.induced as induced_mod
import hosite.sieves as sieves
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


@pytest.mark.parametrize("flag, value", [("--random-sites", "-2"), ("--workers", "0")])
def test_count_below_range_is_load_error(fixture_files, capsys, flag, value):
    assert main(["check-lemmas", fixture_files["B"], flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"load error: {flag} {value}")


@pytest.mark.parametrize("sieve", ["f1@nope", "f1@x", "f1,,f2@y", "f1,@y", ",f1@y"])
def test_thicken_bad_sieve_is_load_error(fixture_files, capsys, sieve):
    # an unknown root, a generator whose codomain is not the root, and an
    # empty generator name, which is not read as no generator
    assert main(["thicken", fixture_files["B"], "--sieve", sieve]) == 1
    assert capsys.readouterr().err.startswith(f"load error: --sieve {sieve}: ")


@pytest.mark.parametrize("via", ["load", "thicken"])
def test_unknown_generator_is_named_as_unknown(fixture_files, tmp_path, via):
    # a generator that is no morphism at all is unknown, not one with another
    # codomain: in a site's covers and in --sieve alike
    if via == "load":
        doc = json.loads(serialize_site(fixture_doc("B")))
        doc["covers"] = {"y": [["zz"]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv, flag = ["validate", str(path)], ""
    else:
        argv, flag = ["thicken", fixture_files["B"], "--sieve", "zz@y"], "--sieve zz@y: "
    assert run_cli(argv) == (1, "", f"load error: {flag}unknown morphism: zz\n")


def test_chain_site_beyond_sixteen_arrows_loads(tmp_path, capsys, count_calls):
    # the top object of an 18-object chain has 18 arrows into it, enough to
    # pass the cap, so loading lists each object's lattice, once
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
    calls = count_calls(sieves, "all_sieves")
    assert main(["validate", str(path)]) == 0
    assert [x for _, x in calls] == objects
    capsys.readouterr()
    assert len(all_sieves(parse_site(serialize_site(doc)).category, "c18")) == 19


def _fan_site(tmp_path, n):
    # n independent arrows s -> t: the sieve lattice on t has 2^n + 1 sieves
    path = tmp_path / f"fan{n}.json"
    path.write_text(serialize_site({
        "objects": ["s", "t"],
        "morphisms": [{"name": f"a{i}", "dom": "s", "cod": "t"} for i in range(n)],
    }), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("n", [16, 24])
def test_oversized_sieve_lattice_is_load_error(tmp_path, capsys, n):
    assert main(["validate", _fan_site(tmp_path, n)]) == 1
    assert capsys.readouterr().err == "load error: the sieve lattice on t has more than 65536 sieves\n"


def test_sieve_lattice_below_the_limit_loads(tmp_path, capsys, count_calls):
    # 16 arrows into t allow at most 2^15 + 1 sieves, under the cap, so
    # loading lists no lattice
    calls = count_calls(sieves, "all_sieves")
    assert main(["validate", _fan_site(tmp_path, 15)]) == 0
    assert calls == []


def test_all_fixtures_self_validate(fixture_files):
    for name, path in fixture_files.items():
        code, out, err = run_cli(["validate", path])
        assert code == 0, (name, out, err)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_each_part_is_validated_once(fixture_files, count_calls, name):
    # loading validates each input part once and trusts saturation to build
    # a topology (tests/test_sieves.py checks it); the validate verb re-runs
    # nothing and lists the verdicts loading reached
    calls = {fn: count_calls(sys.modules[f"hosite.{module}"], fn)
             for module, fn in (("core", "validate_category"),
                                  ("homotopy", "validate_enrichment"),
                                  ("sieves", "validate_topology"),
                                  ("core", "validate_presheaf"))}
    site = parse_site(Path(fixture_files[name]).read_text(encoding="utf-8"))
    assert {n: len(c) for n, c in calls.items()} == {
        "validate_category": 1, "validate_enrichment": 1,
        "validate_topology": 0, "validate_presheaf": len(site.presheaves)}
    for c in calls.values():
        c.clear()
    args = build_parser().parse_args(["validate", fixture_files[name], "--seed", "0"])
    report = run_command("validate", site, args)
    assert not any(calls.values())
    names = ["category", "enrichment", "topology"]
    names += [f"presheaf:{p}" for p in sorted(site.presheaves)]
    assert [(c.name, c.verdict, c.detail) for c in report.checks] == [(n, "pass", "") for n in names]


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


def test_thicken_empty_generating_set(fixture_files, capsys):
    # '@y' names no generator: the empty sieve, which thickens to itself
    assert main(["thicken", fixture_files["B"], "--sieve", "@y", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)["checks"][0]["data"]
    assert (data["input"], data["thickened"]) == ([], [])


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


def test_non_utf8_file_is_load_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(["validate", str(bad)])
    assert code == 1 and out == ""
    assert err.startswith("load error: ") and "Traceback" not in err


@pytest.mark.parametrize("missing", [True, False], ids=["missing-file", "directory"])
def test_unreadable_site_is_load_error(tmp_path, missing):
    path = tmp_path / "nope.json" if missing else tmp_path
    reason = "No such file or directory" if missing else "Is a directory"
    code, out, err = run_cli(["validate", str(path)])
    assert (code, out, err) == (1, "", f"load error: {path}: {reason}\n")


def test_unwritable_fixture_output_is_one_line(tmp_path):
    path = tmp_path / "missing" / "b.json"
    code, out, err = run_cli(["fixture", "B", "--out", str(path)])
    assert (code, out) == (1, "")
    assert err == f"write error: {path}: No such file or directory\n"


def test_deeply_nested_document_is_load_error():
    # json.loads itself overflows the interpreter stack on this input
    with pytest.raises(SiteLoadError, match="nests too deeply"):
        parse_site("[" * 100000)


def test_presheaf_entry_unknown_key_is_load_error():
    # dropping the key would load the same digest as the entry without it
    doc = json.loads(serialize_site(fixture_doc("B")))
    doc["presheaves"]["K2"]["note"] = {}
    with pytest.raises(SiteLoadError, match="presheaf K2: unknown key: note"):
        parse_site(json.dumps(doc))


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


@pytest.mark.parametrize("text, key", [
    ('{"objects": ["x"], "objects": ["x", "y"]}', "objects"),
    ('{"objects": ["x"], "covers": {"x": [], "x": [["id_x"]]}}', "x"),
], ids=["top-level", "inside-covers"])
def test_repeated_key_is_load_error(tmp_path, text, key):
    # json.loads alone would keep the last value and load a different site
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run_cli(["validate", str(bad)])
    assert code == 1
    assert out == "" and err == f"load error: repeated key: {key}\n"


@pytest.mark.parametrize("doc, message", [
    ({"objects": ["x", ""]}, "empty object name: objects[1]"),
    ({"objects": ["x", "y"], "morphisms": [{"name": "", "dom": "x", "cod": "y"}]},
     "empty morphism name: {'name': '', 'dom': 'x', 'cod': 'y'}"),
], ids=["object", "morphism"])
def test_empty_name_is_load_error(tmp_path, doc, message):
    # an empty name cannot be written as a --sieve generator and prints as an
    # empty slot in a member list
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["validate", str(bad)])
    assert code == 1
    assert out == "" and err == f"load error: {message}\n"


@pytest.mark.parametrize("path, value, named", [
    (("objects",), ["x", "y", "y"], "y"),
    (("morphisms", 0, "dom"), "w", "f1"),
    (("composition",), {"nope∘f1": "f1"}, "nope"),
    (("composition",), {"id_y∘f1": "f2"}, "id_y"),
    (("edges",), [["f1", "nope"]], "nope"),
    (("covers",), {"nope": [["f1"]]}, "nope"),
    (("covers",), {"y": [["nope"]]}, "nope"),
    (("presheaves", "K2", "values", "nope"), ["0"], "nope"),
    (("presheaves", "K2", "restrictions", "nope"), {"0": "0"}, "nope"),
    (("presheaves", "K2", "values", "y"), ["0", "1", "1"], "1"),
    (("morphisms", 0, "name"), "g∘h", "morphism name contains '∘': g∘h"),
], ids=["duplicate-object", "unknown-dom", "composition-unknown-name",
        "composition-identity-key", "edge-unknown-endpoint", "covers-unknown-object",
        "cover-unknown-generator", "presheaf-unknown-object", "presheaf-unknown-morphism",
        "presheaf-repeated-section", "morphism-name-with-compose-sign"])
def test_malformed_site_names_the_offending_id(path, value, named):
    # each law is checked by its validator; the load error still names the culprit
    doc = json.loads(serialize_site(fixture_doc("B")))
    _get(doc, path[:-1])[path[-1]] = value
    with pytest.raises(SiteLoadError) as err:
        parse_site(json.dumps(doc))
    assert named in str(err.value)


def _paths(node, prefix=()):
    """The path of every node below ``node``, as tuples of keys and indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    out = []
    for k, v in items:
        out += [prefix + (k,), *_paths(v, prefix + (k,))]
    return out


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _unknown(name: str) -> str:
    # composition keys name two morphisms; keep the separator so both are looked up
    return "nope∘" + name.split("∘", 1)[1] if "∘" in name else "nope"


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.json"


@given(name=st.sampled_from(FIXTURE_NAMES),
       op=st.sampled_from(["drop-key", "retype", "unknown-value", "unknown-key"]),
       pick=st.integers(min_value=0, max_value=10**6),
       new=st.sampled_from([0, 1.5, None, True, "s", [], {}, [1], {"k": 1}, [["x"]]]))
def test_mutated_document_is_never_an_internal_error(fuzz_path, name, op, pick, new):
    doc = json.loads(serialize_site(fixture_doc(name)))
    if op == "unknown-value":
        paths = [p for p in _paths(doc) if isinstance(_get(doc, p), str)]
    elif op == "retype":
        paths = _paths(doc)
    else:
        paths = [p for p in _paths(doc) if isinstance(p[-1], str)]
    path = paths[pick % len(paths)]
    parent, key = _get(doc, path[:-1]), path[-1]
    if op == "drop-key":
        del parent[key]
    elif op == "retype":
        parent[key] = new
    elif op == "unknown-value":
        parent[key] = _unknown(parent[key])
    else:
        parent[_unknown(key)] = parent.pop(key)
    fuzz_path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", str(fuzz_path)])
    assert code in (0, 1), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("load error:")


# SHA-256 of the verdict lines of every single mutation of fixtures A-E
# (1,537 documents, 1,473 of them rejected), recorded when load_site still
# checked every name itself: a check moved into its validator must keep
# each verdict
MUTANT_VERDICTS = "4d1f3d73842bd7cf01a50b551ad3a30f3725fec96ba3f558d2666ef5def56f69"


def _mutant_verdicts() -> list[str]:
    """One line (fixture, op, path, value, accepted) per mutation that
    test_mutated_document_is_never_an_internal_error can draw: every
    applicable path of each op, and every retype value."""
    lines = []
    for name in FIXTURE_NAMES:
        text = serialize_site(fixture_doc(name))
        base = json.loads(text)
        strings = [p for p in _paths(base) if isinstance(_get(base, p), str)]
        keyed = [p for p in _paths(base) if isinstance(p[-1], str)]
        for op, paths, values in (
                ("drop-key", keyed, [None]),
                ("retype", _paths(base), [0, 1.5, None, True, "s", [], {}, [1], {"k": 1}, [["x"]]]),
                ("unknown-value", strings, [None]),
                ("unknown-key", keyed, [None])):
            for path in paths:
                for new in values:
                    doc = json.loads(text)
                    parent, key = _get(doc, path[:-1]), path[-1]
                    if op == "drop-key":
                        del parent[key]
                    elif op == "retype":
                        parent[key] = new
                    elif op == "unknown-value":
                        parent[key] = _unknown(parent[key])
                    else:
                        parent[_unknown(key)] = parent.pop(key)
                    try:
                        parse_site(json.dumps(doc))
                        accepted = True
                    except SiteLoadError:
                        accepted = False
                    lines.append(json.dumps([name, op, list(path), new, accepted]))
    return lines


def test_mutant_verdicts_are_frozen():
    lines = _mutant_verdicts()
    assert (len(lines), sum(line.endswith("false]") for line in lines)) == (1537, 1473)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == MUTANT_VERDICTS


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


def test_induce_reports_theorem_violation(fixture_files, monkeypatch, capsys):
    # a verb that raises TheoremViolation reports it as a failing check
    monkeypatch.setattr(induced_mod, "bracket_sieve", lambda h, j: maximal_sieve(h.ho, j.root))
    outputs = []
    for _ in range(2):
        assert main(["induce", fixture_files["B"], "--json"]) == 2
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    [check] = json.loads(outputs[0])["checks"]
    assert (check["name"], check["verdict"]) == ("theorem-violation", "fail")
    assert set(check["counterexample"]) == {"site", "disagreement"}


def test_crash_while_loading_is_internal_error(fixture_files, monkeypatch, capsys):
    def crash(text):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "parse_site", crash)
    assert main(["validate", fixture_files["B"]]) == 3
    assert capsys.readouterr().err == "internal error: boom\n"


def test_violation_report_prints_replay_line(fixture_files, monkeypatch, capsys):
    monkeypatch.setattr(induced_mod, "bracket_sieve", lambda h, j: maximal_sieve(h.ho, j.root))
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


def test_package_runs_as_a_module(fixture_files):
    # python -m hosite is the same harness as python -m hosite.cli: the
    # fixture it writes loads, and check-lemmas on it replays byte for byte
    proc = subprocess.run([sys.executable, "-m", "hosite", "fixture", "B"],
                          capture_output=True, text=True, env=CLI_ENV)
    assert (proc.returncode, proc.stdout) == (0, serialize_site(fixture_doc("B")))
    runs = [subprocess.run([sys.executable, "-m", "hosite", "check-lemmas", fixture_files["B"],
                            "--json"], capture_output=True, text=True, env=CLI_ENV)
            for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["command"] == "check-lemmas"


def test_seed_env_override(fixture_files, monkeypatch):
    proc = subprocess.run(
        [sys.executable, "-m", "hosite.cli", "induce", fixture_files["B"], "--json"],
        capture_output=True, text=True, env={**CLI_ENV, "HOSITE_SEED": "42"})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["seed"] == 42


def test_malformed_seed_env_is_load_error(fixture_files, monkeypatch, capsys):
    monkeypatch.setenv("HOSITE_SEED", "abc")
    assert main(["validate", fixture_files["B"], "--json"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("load error: HOSITE_SEED")
    # an explicit --seed does not read the variable
    assert main(["validate", fixture_files["B"], "--json", "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 3


def test_main_reuses_one_parser(fixture_files, monkeypatch, capsys):
    # one parser serves every call in a process; each report must match a
    # fresh interpreter's, whatever the call before it parsed
    from hosite.cli import build_parser
    monkeypatch.delenv("HOSITE_SEED", raising=False)
    build_parser.cache_clear()
    calls = [["check-lemmas", fixture_files["B"], "--bound", "1", "--seed", "5", "--json"],
             ["check-lemmas", fixture_files["D"], "--bound", "0", "--json"]]
    outs = []
    for args in calls:
        assert main(args) == 0
        outs.append(capsys.readouterr().out)
    assert build_parser.cache_info().misses == 1
    first, second = (json.loads(out) for out in outs)
    assert (first["flags"]["bound"], first["seed"]) == (1, 5)
    assert (second["flags"]["bound"], second["seed"]) == (0, 0)
    for args, out in zip(calls, outs):
        assert run_cli(args) == (0, out, "")


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
