import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import KeyTwice

import patchdesign
from patchdesign import cli, evaluate
from patchdesign.model import example_network_path, load_model

MODEL = str(example_network_path())


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_no_arguments_prints_usage_and_fails():
    code, out, err = run_cli()
    assert code == 1
    assert "usage" in err.lower()


def test_help_exits_zero():
    code, out, _ = run_cli("--help")
    assert code == 0
    assert "usage" in out.lower()


def test_version():
    code, out, _ = run_cli("--version")
    assert code == 0
    assert out.strip() == patchdesign.__version__
    assert out.strip().count(".") == 2


def test_parser_is_built_once_and_reused():
    first, second = io.StringIO(), io.StringIO()
    assert cli.run(["--help"], out=first) == 0
    assert cli.run(["--help"], out=second) == 0
    assert "usage" in first.getvalue().lower()
    assert second.getvalue() == first.getvalue()
    assert cli.build_parser() is cli.build_parser()
    # a usage error after a good run still goes to err and exits 1
    assert run_cli("security", "--model", MODEL, "--design", "base")[0] == 0
    code, out, err = run_cli("security", "--model", MODEL, "--no-such-flag")
    assert (code, out) == (1, "")
    assert "usage" in err.lower() and "--no-such-flag" in err


def test_security_base_patched():
    code, out, _ = run_cli("security", "--model", MODEL,
                           "--design", "base", "--patched")
    assert code == 0
    row = out.splitlines()[1].split()
    assert row[0] == "base"
    assert float(row[2]) == pytest.approx(42.2)
    assert [int(x) for x in row[4:]] == [11, 4, 2]


def test_security_unpatched_csv():
    code, out, _ = run_cli("security", "--model", MODEL, "--design", "base",
                           "--unpatched", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["aim"] == "52.2"
    assert fields["asp"] == "1"
    assert fields["noev"] == "26"


SECURITY_PATCHED_CSV = """\
design,patched,aim,asp,noev,noap,noep
1dns-1web-1app-1db,true,42.2,0.059319,7,1,1
1dns-1web-1app-2db,true,42.2,0.115119,10,2,1
1dns-1web-2app-1db,true,42.2,0.115119,9,2,1
1dns-2web-1app-1db,true,42.2,0.115119,9,2,2
2dns-1web-1app-1db,true,42.2,0.059319,7,1,1
base,true,42.2,0.216986,11,4,2
"""

SECURITY_UNPATCHED_CSV = """\
design,patched,aim,asp,noev,noap,noep
1dns-1web-1app-1db,false,52.2,1,16,2,2
1dns-1web-1app-2db,false,52.2,1,21,4,2
1dns-1web-2app-1db,false,52.2,1,21,4,2
1dns-2web-1app-1db,false,52.2,1,21,4,3
2dns-1web-1app-1db,false,52.2,1,17,3,3
base,false,52.2,1,26,8,3
"""


@pytest.mark.parametrize("flags,expected", [
    ((), SECURITY_PATCHED_CSV),
    (("--patched",), SECURITY_PATCHED_CSV),
    (("--unpatched",), SECURITY_UNPATCHED_CSV),
])
def test_security_all_designs_csv_is_pinned(flags, expected):
    code, out, _ = run_cli("security", "--model", MODEL, "--design", "all",
                           "--format", "csv", *flags)
    assert code == 0
    assert out == expected


def test_security_json_format():
    code, out, _ = run_cli("security", "--model", MODEL, "--design", "base",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["noap"] == 4


def test_security_json_is_one_document_of_raw_values():
    # patched, aim and asp used to be written as strings ("true", "42.2")
    code, out, err = run_cli("security", "--model", MODEL, "--format", "json")
    assert (code, err) == (0, "")
    model = load_model(MODEL)
    evaluations = evaluate.Evaluator(model).evaluate_all(
        sorted(model.designs.values(), key=lambda d: d.label), coa=False)
    assert json.loads(out) == [
        {"design": e.label, "patched": True, **e.metrics._asdict()} for e in evaluations]


def test_availability_json_is_one_document_of_raw_values():
    # the COA lines used to follow the JSON array, so json.loads failed
    code, out, err = run_cli("availability", "--model", MODEL, "--format", "json")
    assert (code, err) == (0, "")
    model = load_model(MODEL)
    evaluator = evaluate.Evaluator(model)
    evaluations = evaluator.evaluate_all(
        sorted(model.designs.values(), key=lambda d: d.label), security=False)
    assert json.loads(out) == {
        "rates": [{"service": tier, "mttp_hours": agg.mttp, "patch_rate": agg.lambda_eq,
                   "mttr_hours": agg.mttr, "recovery_rate": agg.mu_eq}
                  for tier, agg in evaluator.rates.items()],
        "coa": {e.label: e.coa for e in evaluations}}


def test_availability_reports_coa():
    code, out, _ = run_cli("availability", "--model", MODEL, "--design", "base")
    assert code == 0
    coa_line = next(l for l in out.splitlines() if l.startswith("COA[base]"))
    assert float(coa_line.split("=")[1]) == pytest.approx(0.99707, abs=1e-4)
    assert "720" in out  # aggregate table present


# rows are padded to their column widths, trailing spaces included
AVAILABILITY_TABLE = """\
service  mttp_hours  patch_rate  mttr_hours  recovery_rate
dns      720         0.00138889  0.666706    1.49991      
web      720         0.00138889  0.583366    1.71419      
app      720         0.00138889  1.00006     0.99994      
db       720         0.00138889  0.916724    1.09084      
COA[1dns-1web-1app-1db] = 0.995614
COA[1dns-1web-1app-2db] = 0.996373
COA[1dns-1web-2app-1db] = 0.996442
COA[1dns-2web-1app-1db] = 0.996097
COA[2dns-1web-1app-1db] = 0.996166
COA[base] = 0.997072
"""


def test_availability_all_designs_table_is_pinned():
    code, out, err = run_cli("availability", "--model", MODEL, "--design", "all")
    assert (code, err) == (0, "")
    assert out == AVAILABILITY_TABLE


COMPARE_BOUNDS = ("phi=0.2,psi=0.9962", "phi=0.1,psi=0.9961,xi=7")

COMPARE_STDOUT = """\
wrote scatter.csv, radar.csv, regions.json to {out}
accepted: 1dns-1web-1app-2db, 1dns-1web-2app-1db
accepted: 2dns-1web-1app-1db
"""

COMPARE_FILES = {
    "scatter.csv": """\
design,patched,asp,coa
1dns-1web-1app-1db,true,0.059319,0.995614
1dns-1web-1app-2db,true,0.115119,0.996373
1dns-1web-2app-1db,true,0.115119,0.996442
1dns-2web-1app-1db,true,0.115119,0.996097
2dns-1web-1app-1db,true,0.059319,0.996166
base,true,0.216986,0.997072
""",
    "radar.csv": """\
design,patched,aim,asp,noev,noap,noep,coa
1dns-1web-1app-1db,true,42.2,0.059319,7,1,1,0.995614
1dns-1web-1app-2db,true,42.2,0.115119,10,2,1,0.996373
1dns-1web-2app-1db,true,42.2,0.115119,9,2,1,0.996442
1dns-2web-1app-1db,true,42.2,0.115119,9,2,2,0.996097
2dns-1web-1app-1db,true,42.2,0.059319,7,1,1,0.996166
base,true,42.2,0.216986,11,4,2,0.997072
""",
    "regions.json": """\
[
  {
    "accepted": [
      "1dns-1web-1app-2db",
      "1dns-1web-2app-1db"
    ],
    "bounds": {
      "phi": 0.2,
      "psi": 0.9962
    }
  },
  {
    "accepted": [
      "2dns-1web-1app-1db"
    ],
    "bounds": {
      "phi": 0.1,
      "psi": 0.9961,
      "xi": 7
    }
  }
]
""",
}


def test_compare_output_and_files_are_pinned(tmp_path):
    code, out, err = run_cli("compare", "--model", MODEL, "--out", str(tmp_path),
                             *(arg for b in COMPARE_BOUNDS for arg in ("--bounds", b)))
    assert (code, err) == (0, "")
    assert out == COMPARE_STDOUT.format(out=tmp_path)
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == COMPARE_FILES


def test_compare_writes_region_files(tmp_path):
    code, out, _ = run_cli(
        "compare", "--model", MODEL, "--design", "all",
        "--bounds", "phi=0.2,psi=0.9962", "--out", str(tmp_path))
    assert code == 0
    regions = json.loads((tmp_path / "regions.json").read_text())
    assert set(regions[0]["accepted"]) == \
        {"1dns-1web-2app-1db", "1dns-1web-1app-2db"}
    scatter = (tmp_path / "scatter.csv").read_text().splitlines()
    assert scatter[0] == "design,patched,asp,coa"
    assert len(scatter) == 7  # six designs
    assert (tmp_path / "radar.csv").exists()


@pytest.mark.parametrize("xi", [7, 9])
def test_compare_applies_a_lone_count_bound(tmp_path, xi):
    # phi=1, psi=0 accept every design, so only xi can drop one
    code, _, _ = run_cli("compare", "--model", MODEL, "--design", "all",
                         "--bounds", f"phi=1,psi=0,xi={xi}", "--out", str(tmp_path))
    assert code == 0
    accepted = set(json.loads((tmp_path / "regions.json").read_text())[0]["accepted"])
    radar = (tmp_path / "radar.csv").read_text().strip().splitlines()
    rows = [dict(zip(radar[0].split(","), line.split(","))) for line in radar[1:]]
    expected = {r["design"] for r in rows if int(r["noev"]) <= xi}
    assert accepted == expected
    assert 0 < len(expected) < len(rows)


def _model_with_bounds(tmp_path, bounds):
    doc = json.loads(example_network_path().read_text())
    doc["bounds"] = bounds
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_compare_uses_model_file_bounds(tmp_path):
    model = _model_with_bounds(tmp_path, {"phi": 0.2, "psi": 0.9962})
    code, out, _ = run_cli("compare", "--model", model, "--out", str(tmp_path / "file"))
    assert code == 0
    code, flag_out, _ = run_cli("compare", "--model", MODEL, "--bounds", "phi=0.2,psi=0.9962",
                                "--out", str(tmp_path / "flag"))
    assert code == 0
    from_file = (tmp_path / "file" / "regions.json").read_text()
    assert from_file == (tmp_path / "flag" / "regions.json").read_text()
    assert json.loads(from_file)[0]["accepted"] == ["1dns-1web-1app-2db", "1dns-1web-2app-1db"]
    assert out.splitlines()[1:] == flag_out.splitlines()[1:]
    # --bounds replaces the file's bounds
    run_cli("compare", "--model", model, "--bounds", "phi=1,psi=0", "--out", str(tmp_path))
    regions = json.loads((tmp_path / "regions.json").read_text())
    assert [r["bounds"] for r in regions] == [{"phi": 1.0, "psi": 0.0}]


def test_non_numeric_model_file_bound_is_validation_error(tmp_path):
    model = _model_with_bounds(tmp_path, {"phi": "0.2"})
    code, _, err = run_cli("compare", "--model", model, "--out", str(tmp_path))
    assert code == 1
    assert err.startswith("error: $.bounds.phi")


@pytest.mark.parametrize("flag", ["--patched", "--unpatched"])
def test_availability_rejects_patch_flags(flag):
    # availability does not depend on the patch state, so the flag is an error
    code, _, err = run_cli("availability", "--model", MODEL, flag)
    assert code == 1
    assert f"unrecognized arguments: {flag}" in err


def test_compare_is_deterministic(tmp_path):
    args = ("compare", "--model", MODEL, "--bounds", "phi=0.1,psi=0.9961",
            "--out", str(tmp_path))
    run_cli(*args)
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    run_cli(*args)
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second


def test_unknown_design_is_validation_error():
    code, _, err = run_cli("security", "--model", MODEL, "--design", "nope")
    assert code == 1
    assert "nope" in err


def test_missing_model_file():
    code, _, err = run_cli("security", "--model", "/does/not/exist.json")
    assert code == 1
    assert err


def test_model_path_starting_with_a_brace_is_read_as_a_path(tmp_path, monkeypatch):
    # a path is never taken for JSON text, whatever its first character
    (tmp_path / "{m}.json").write_bytes(Path(MODEL).read_bytes())
    monkeypatch.chdir(tmp_path)
    expected = run_cli("security", "--model", MODEL, "--design", "base")
    assert expected[0] == 0
    assert run_cli("security", "--model", "{m}.json", "--design", "base") == expected


@pytest.mark.parametrize("section, key, value", [("designs", "base", [1]),
                                                ("servers", "dns", 5)])
def test_model_entry_that_is_not_an_object_is_one_error_line(tmp_path, section, key, value):
    # these used to end in an AttributeError or TypeError traceback
    doc = json.loads(Path(MODEL).read_text())
    doc[section][key] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("security", "--model", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: $.{section}.{key}: expected dict\n"


def _set(*keys_and_value):
    """A mutation of a model document: the value at the path of keys."""
    *keys, value = keys_and_value

    def mutate(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (_set("servers", "dns", "hw_mttf_hours", None),
     "$.servers.dns.hw_mttf_hours: expected number"),
    (_set("servers", "dns", "hw_mttf_hours", 10 ** 400),
     "$.servers.dns.hw_mttf_hours: number out of float range"),
    (lambda doc: doc["reachability"]["edges"].append(5),
     "$.reachability.edges[3]: expected [from tier, to tier]"),
    (_set("reachability", "edges", [["dns", 5]]),
     "$.reachability.edges[0]: expected [from tier, to tier]"),
    (_set("tiers", 0, ["x"]), "$.tiers[0]: expected str"),
    (_set("vulnerabilities", 0, "id", ["CVE-2016-3227"]),
     "$.vulnerabilities[0].id: expected str"),
    (_set("reachability", "target_tier", ["db"]),
     "$.reachability.target_tier: expected str"),
    (_set("reachability", "entry_tiers", ["dns", 1]),
     "$.reachability.entry_tiers[1]: expected str"),
    (_set("vulnerabilities", 0, "impact", "abc"),
     "$.vulnerabilities[0].impact: expected number"),
    (_set("reachability", "edges", [["dns"]]),
     "$.reachability.edges[0]: expected [from tier, to tier]"),
    (_set("patch_policy", {"interval_hours": "x"}),
     "$.patch_policy.interval_hours: expected number"),
    (_set("vulnerabilities", 0, "critical", "no"),
     "$.vulnerabilities[0].critical: expected bool"),
    (_set("vulnerabilities", 0, "impact", True),
     "$.vulnerabilities[0].impact: expected number"),
    (_set("vulnerabilities", 0, "component", ["os"]),
     "$.vulnerabilities[0].component: expected str"),
    (_set("servers", "dns", "attack_tree", {"or": [{"vuln": ["CVE-2016-3227"]}]}),
     "$.servers.dns.attack_tree.or[0].vuln: expected str"),
    (_set("designs", "base", "dns", True),
     "$.designs.base.dns: replica count must be an integer >= 1"),
], ids=["null-mttf", "huge-int-mttf", "edge-not-list", "edge-tier-not-str", "tier-not-str", "id-list", "target-list",
        "entry-not-str", "impact-str", "edge-one-tier", "interval-str", "critical-str",
        "impact-bool", "component-list", "tree-vuln-list", "count-bool"])
def test_model_field_of_the_wrong_type_is_one_error_line(tmp_path, mutate, message):
    # each used to end in a traceback, an error naming no path, or a
    # silent misreading ("no" as True, true as impact 1.0 or 1 replica)
    doc = json.loads(Path(MODEL).read_text())
    mutate(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("security", "--model", str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def _mutated_model(tmp_path, mutate):
    doc = json.loads(Path(MODEL).read_text())
    mutate(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_duplicate_tier_is_one_error_line(tmp_path):
    # a tier listed twice used to count its replicas twice: COA[base]
    # came out 0.996254 instead of 0.997072
    path = _mutated_model(tmp_path, lambda doc: doc["tiers"].append("dns"))
    code, out, err = run_cli("availability", "--model", path, "--design", "base")
    assert (code, out, err) == (1, "", "error: $.tiers[4]: duplicate tier 'dns'\n")


def test_design_labelled_all_is_one_error_line(tmp_path):
    # --design all selects every design, so a design labelled "all" could
    # never be evaluated on its own: security --design all printed both rows
    def mutate(doc):
        doc["designs"] = {"all": {"dns": 1, "web": 1, "app": 1, "db": 1},
                          "x2": {"dns": 2, "web": 2, "app": 2, "db": 2}}
    path = _mutated_model(tmp_path, mutate)
    for command in ("security", "availability"):
        code, out, err = run_cli(command, "--model", path, "--design", "all")
        assert (code, out) == (1, "")
        assert err == ("error: $.designs.all: the label 'all' is reserved: "
                       "--design all selects every design\n")


def test_misspelt_attack_tree_is_one_error_line(tmp_path):
    # "attack_trees" used to load as no tree: security printed ASP 0 and NoAP 0
    def mutate(doc):
        doc["servers"]["db"]["attack_trees"] = doc["servers"]["db"].pop("attack_tree")

    code, out, err = run_cli("security", "--model", _mutated_model(tmp_path, mutate),
                             "--design", "base")
    assert (code, out) == (1, "")
    assert err.startswith("error: $.servers.db.attack_trees: unknown key 'attack_trees' ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("mutate, message", [
    (lambda doc: doc.pop("tiers"), "$.tiers"),
    (lambda doc: doc["vulnerabilities"][0].pop("critical"), "$.vulnerabilities[0].critical"),
    (lambda doc: doc["servers"]["db"].pop("hw_mttr_hours"), "$.servers.db.hw_mttr_hours"),
    (lambda doc: doc["reachability"].pop("target_tier"), "$.reachability.target_tier"),
], ids=["tiers", "critical", "hw-mttr", "target-tier"])
def test_missing_required_key_is_one_error_line(tmp_path, mutate, message):
    code, out, err = run_cli("security", "--model", _mutated_model(tmp_path, mutate))
    assert (code, out, err) == (1, "", f"error: {message}: missing required field\n")


def test_misspelt_required_key_is_named_as_written(tmp_path):
    # it used to be reported as the key it replaced, missing:
    # $.reachability.target_tier: missing required field
    def mutate(doc):
        doc["reachability"]["target_tiers"] = doc["reachability"].pop("target_tier")

    code, out, err = run_cli("security", "--model", _mutated_model(tmp_path, mutate))
    assert (code, out, err) == (1, "", "error: $.reachability.target_tiers: unknown key "
                                "'target_tiers' (expected one of ['edges', 'entry_tiers', "
                                "'target_tier'])\n")


@pytest.mark.parametrize("mutate, message", [
    (_set("reachability", "target_tier", "cache"),
     "$.reachability.target_tier: unknown tier 'cache'"),
    (_set("reachability", "entry_tiers", ["dns", "cache"]),
     "$.reachability.entry_tiers: unknown tier 'cache'"),
    (_set("reachability", "edges", [["dns", "cache"]]),
     "$.reachability.edges: unknown tier in edge (dns, cache)"),
    (_set("reachability", "edges", [["dns", "web"]]),
     "$.reachability: no tier-path from any entry tier to the target tier"),
], ids=["target-tier", "entry-tier", "edge", "no-path"])
def test_reachability_error_names_the_file_key(tmp_path, mutate, message):
    # these used to print without the "$." of every other model-file path
    code, out, err = run_cli("security", "--model", _mutated_model(tmp_path, mutate))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def _renamed_tier(doc, old, new):
    """``doc`` with tier ``old`` renamed to ``new`` everywhere."""
    return json.loads(json.dumps(doc).replace(json.dumps(old), json.dumps(new)))


@pytest.mark.parametrize("label,shown", [("a,b", "a,b"), ('a"b', 'a"b'),
                                         ("a\nb", "a\\nb"), ("a\rb", "a\\rb")],
                         ids=["comma", "quote", "lf", "cr"])
def test_design_label_that_breaks_csv_is_one_error_line(tmp_path, label, shown):
    # every CSV row starts with the label, unquoted: a design "a,b" read
    # back from scatter.csv as design "a" with patched "b"
    def mutate(doc):
        doc["designs"][label] = doc["designs"]["base"]
    path = _mutated_model(tmp_path, mutate)
    code, out, err = run_cli("security", "--model", path, "--format", "csv")
    assert (code, out) == (1, "")
    assert err == (f"error: $.designs.{shown}: a name may not contain a comma, "
                   "a double quote or a line break\n")


@pytest.mark.parametrize("tier", ["web,edge", 'web"edge', "web\nedge", "web\redge"],
                         ids=["comma", "quote", "lf", "cr"])
def test_tier_name_that_breaks_csv_is_one_error_line(tmp_path, tier):
    # availability --format csv starts each rate row with the tier name
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_renamed_tier(json.loads(Path(MODEL).read_text()), "web", tier)))
    code, out, err = run_cli("availability", "--model", str(path), "--format", "csv")
    assert (code, out) == (1, "")
    assert err == ("error: $.tiers[1]: a name may not contain a comma, "
                   f"a double quote or a line break: {tier!r}\n")


@pytest.mark.parametrize("tree", [[], 0, "", {}, False],
                         ids=["list", "zero", "str", "dict", "false"])
def test_falsy_attack_tree_is_one_error_line(tmp_path, tree):
    # only an absent key or null means no attack tree; each of these used
    # to read as none and exit 0
    path = _mutated_model(tmp_path, _set("servers", "dns", "attack_tree", tree))
    code, out, err = run_cli("security", "--model", path, "--unpatched")
    assert (code, out, err) == (1, "", "error: $.servers.dns.attack_tree: "
                                       "attack tree node must be a single-key object\n")


@pytest.mark.parametrize("mutate", [
    _set("servers", "dns", "attack_tree", None),
    lambda doc: doc["servers"]["dns"].pop("attack_tree"),
], ids=["null", "absent"])
def test_null_or_absent_attack_tree_is_no_tree(tmp_path, mutate):
    path = _mutated_model(tmp_path, mutate)
    code, out, err = run_cli("security", "--model", path, "--unpatched", "--design", "base",
                             "--format", "csv")
    assert (code, err) == (0, "")
    assert load_model(path).templates["dns"].attack_tree is None


def test_invalid_bounds_key():
    code, _, err = run_cli("compare", "--model", MODEL,
                           "--bounds", "zeta=1", "--out", "/tmp")
    assert code == 1
    assert "zeta" in err
    # a repeated key must not silently keep its last value
    code, out, err = run_cli("compare", "--model", MODEL,
                             "--bounds", "phi=0.2,phi=0.9", "--out", "/tmp")
    assert (code, out) == (1, "")
    assert err == "error: bounds: bound 'phi' given twice\n"


@pytest.mark.parametrize("bounds", [",", ""])
def test_bounds_without_a_pair_are_rejected(tmp_path, bounds):
    # an empty bound set would accept every design
    code, out, err = run_cli("compare", "--model", MODEL, "--bounds", bounds,
                             "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == f"error: bounds: no key=value pair in {bounds!r}\n"
    assert not list(tmp_path.iterdir())


def test_rate_override_changes_aggregates():
    code, out, _ = run_cli("availability", "--model", MODEL,
                           "--design", "base", "--format", "csv",
                           "--rate-override", "dns.svc_patch_mean=50")
    assert code == 0
    dns_row = next(l for l in out.splitlines() if l.startswith("dns,"))
    # longer patch stage -> longer MTTR than the stock 0.6667 h
    assert float(dns_row.split(",")[3]) > 1.0


def test_rate_override_rejects_unknown_param():
    # only a rate field may be overridden, and only with a number; the one
    # error line names the override, never a traceback
    for override in ("dns.bogus=1", "dns.rate_per_hour=1", "dns.exploitable=1",
                     "dns.__class__=1", "dns.tier=1", "dns.attack_tree=1",
                     "dns.hw_mttf=abc"):
        code, out, err = run_cli("availability", "--model", MODEL,
                                 "--rate-override", override)
        assert (code, out) == (1, ""), override
        assert err.startswith(f"error: rate-override: {override!r}: "), err
        assert err.count("\n") == 1


@pytest.mark.parametrize("override,field", [
    ("dns.hw_mttr=inf", "servers.dns.hw_mttr"),
    ("web.svc_patch_mean=inf", "servers.web.svc_patch_mean"),
    ("app.svc_patch_mean=1e-320", "servers.app.svc_patch_mean"),
])
def test_rate_override_names_the_field_it_breaks(override, field):
    # an infinite mean other than a failure MTTF, or one whose rate
    # overflows, used to reach the server net and name its transition
    code, out, err = run_cli("availability", "--model", MODEL, "--rate-override", override)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {field}: ")
    assert err.count("\n") == 1


def _override_on_renamed_app(tmp_path, name):
    """``--rate-override <name>.hw_mttr=10`` on the bundled model with tier
    app renamed to ``name`` prints what app.hw_mttr=10 prints on the stock
    model, with the name changed."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_renamed_tier(json.loads(Path(MODEL).read_text()),
                                             "app", name)))
    code, out, err = run_cli("availability", "--model", str(path), "--design", "base",
                             "--format", "csv", "--rate-override", f"{name}.hw_mttr=10")
    assert (code, err) == (0, "")
    stock = run_cli("availability", "--model", MODEL, "--design", "base", "--format", "csv",
                    "--rate-override", "app.hw_mttr=10")[1]
    assert out == stock.replace("app,", f"{name},")


def test_rate_override_on_a_tier_whose_name_has_a_dot(tmp_path):
    # the override splits at the last dot: no rate parameter has one
    _override_on_renamed_app(tmp_path, "app.v2")


def test_rate_override_on_a_tier_whose_name_has_an_equals_sign(tmp_path):
    # the override splits at the last '=': no number has one
    _override_on_renamed_app(tmp_path, "app=v2")


def test_security_takes_no_rate_override():
    # security reads no rate; an override used to be parsed and then ignored
    code, out, err = run_cli("security", "--model", MODEL, "--rate-override", "dns.hw_mttf=1")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --rate-override dns.hw_mttf=1" in err


def test_repeated_rate_override_rejected():
    # the last value must not silently win
    code, out, err = run_cli("availability", "--model", MODEL,
                             "--rate-override", "dns.hw_mttf=1000",
                             "--rate-override", "dns.hw_mttf=2000")
    assert (code, out, err) == (1, "", "error: rate-override: 'dns.hw_mttf' given twice\n")


def test_range_errors_name_the_key_given(tmp_path):
    # the key as written on the command line or in the model file, not
    # the field that stores it
    code, out, err = run_cli("compare", "--model", MODEL, "--bounds", "phi=1.5",
                             "--out", str(tmp_path))
    assert (code, out, err) == (1, "", "error: bounds.phi: 1.5 outside [0, 1]\n")
    model = _model_with_bounds(tmp_path, {"psi": 2})
    code, out, err = run_cli("compare", "--model", model, "--out", str(tmp_path))
    assert (code, out, err) == (1, "", "error: $.bounds.psi: 2 outside [0, 1]\n")
    model = _mutated_model(tmp_path, lambda doc: doc["servers"]["dns"].update(hw_mttf_hours=-1))
    code, out, err = run_cli("security", "--model", model)
    assert (code, out) == (1, "")
    assert err == ("error: $.servers.dns.hw_mttf_hours: "
                   "duration must be strictly positive, got -1.0\n")
    for key, value, message in (
            ("impact", 10.5, "attack impact 10.5 of 'CVE-2016-3227' outside [0, 10]"),
            ("probability", 1.2,
             "attack success probability 1.2 of 'CVE-2016-3227' outside [0, 1]"),
            ("component", "kernel", "unknown component 'kernel' of 'CVE-2016-3227'")):
        model = _mutated_model(tmp_path, _set("vulnerabilities", 0, key, value))
        assert run_cli("security", "--model", model) == (
            1, "", f"error: $.vulnerabilities[0].{key}: {message}\n")
    model = _mutated_model(tmp_path, _set("patch_policy", {"interval_hours": -1}))
    assert run_cli("security", "--model", model) == (
        1, "", "error: $.patch_policy.interval_hours: patch interval must be positive\n")


@pytest.mark.parametrize("argv", [("security",), ("compare", "--out", "{dir}")],
                         ids=["security", "compare"])
def test_security_state_cap_is_one_solver_error_line(tmp_path, monkeypatch, argv):
    # the bundled designs walk 7 states unpatched: a cap of 7 lets them
    # through, a cap of 6 stops them
    from patchdesign import harm

    argv = [*(a.format(dir=tmp_path) for a in argv), "--model", MODEL, "--unpatched"]
    monkeypatch.setattr(harm, "STATE_CAP", 7)
    assert run_cli(*argv)[0] == 0
    monkeypatch.setattr(harm, "STATE_CAP", 6)
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err == ("solver error: security: the attack-path table passed its cap "
                   "of 6 states at 7 states\n")


@pytest.mark.parametrize("argv", [
    ("compare", "--model", MODEL, "--out", "{file}"),  # FileExistsError
    ("security", "--model", "{dir}"),  # IsADirectoryError
    ("solve-srn", "{dir}"),
], ids=["compare-out-is-a-file", "model-is-a-directory", "netfile-is-a-directory"])
def test_os_error_is_one_error_line(tmp_path, argv):
    (tmp_path / "file").write_text("")
    code, out, err = run_cli(*(a.format(dir=tmp_path, file=tmp_path / "file") for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno ") and err.count("\n") == 1
    assert str(tmp_path) in err


def test_solve_srn_subcommand(tmp_path):
    netpath = tmp_path / "net.txt"
    netpath.write_text(
        "place up 1\nplace down 0\n"
        "timed fail rate=0.25 in=up out=down\n"
        "timed repair rate=1.0 in=down out=up\n"
        'reward avail "#up == 1" = 1.0\n')
    code, out, _ = run_cli("solve-srn", str(netpath))
    assert code == 0
    assert "tangible states: 2" in out
    assert "reward avail = 0.8" in out


def test_solve_srn_timeless_trap_is_solver_error(tmp_path):
    netpath = tmp_path / "trap.txt"
    netpath.write_text(
        "place a 1\nplace b 0\n"
        "immediate ab in=a out=b\nimmediate ba in=b out=a\n")
    code, _, err = run_cli("solve-srn", str(netpath))
    assert code == 2
    assert "timeless" in err.lower()


def test_solve_srn_reducible_chain_message(tmp_path):
    # the one transition empties a: each marking is its own component
    netpath = tmp_path / "reducible.net"
    netpath.write_text("place a 1\nplace b 0\ntimed t rate=1 in=a out=b\n")
    code, out, err = run_cli("solve-srn", str(netpath))
    assert (code, out) == (2, "")
    assert err == ("solver error: chain is reducible into 2 strongly connected "
                   "components: [[1], [0]]\n")


def test_solve_srn_syntax_error(tmp_path):
    netpath = tmp_path / "bad.txt"
    netpath.write_text("plaze a 1\n")
    code, _, err = run_cli("solve-srn", str(netpath))
    assert code == 1
    assert "line 1" in err


UP_DOWN_NET = ("place up 1\nplace down 0\ntimed fail rate=1 in=up out=down\n"
               "timed repair rate=2 in=down out=up\n")


@pytest.mark.parametrize("statement, message", [
    # a misspelt reward place used to end in a KeyError traceback
    ('reward u "#upp == 1" = 1', "line 5: guard references unknown place(s): ['upp']"),
    # a copy-pasted transition used to fire beside the first: pi{up:1}
    # came out 0.25 where the net has one failure path
    ("timed fail rate=5 in=up out=down", "line 5: duplicate transition 'fail'"),
], ids=["misspelt-reward-place", "duplicate-transition"])
def test_solve_srn_net_fault_is_one_error_line(tmp_path, statement, message):
    netpath = tmp_path / "net.txt"
    netpath.write_text(f"{UP_DOWN_NET}{statement}\n")
    assert run_cli("solve-srn", str(netpath)) == (1, "", f"error: {message}\n")


def test_duplicate_design_label_is_one_error_line(tmp_path):
    # json.loads kept the second "base" only, and security reported it
    def mutate(doc):
        doc["designs"] = KeyTwice(doc["designs"], "base", {"dns": 3, "web": 3, "app": 3, "db": 3})

    path = _mutated_model(tmp_path, mutate)
    for argv in (["security"], ["availability"], ["compare", "--out", str(tmp_path)]):
        assert run_cli(*argv, "--model", path) == (1, "", "error: $: duplicate key 'base'\n")


@pytest.mark.parametrize("statement", ["immediate i weight=nan in=a out=b",
                                       "immediate i weight=inf in=a out=b",
                                       "timed t rate=1e999 in=a out=b"])
def test_solve_srn_non_finite_constant_is_validation_error(tmp_path, statement):
    # weight=nan used to exit 2 with a leaked MatrixRankWarning, and
    # weight=inf exit 2 as a reducible chain
    netpath = tmp_path / "bad.txt"
    netpath.write_text(f"place a 1\nplace b 0\n{statement}\ntimed back rate=1 in=b out=a\n")
    code, out, err = run_cli("solve-srn", str(netpath))
    assert (code, out) == (1, "")
    assert err.startswith("error: line 3: ") and "positive and finite" in err


def test_solve_srn_guard_bounded_generator(tmp_path):
    # src -> src,buf while #buf < 3, served at rate 2: a 4-state birth-death
    # chain with pi proportional to 1, 1/2, 1/4, 1/8, so L = 11/15
    netpath = tmp_path / "generator.net"
    netpath.write_text(
        "place src 1\nplace buf 0\n"
        'timed gen rate=1.0 guard="#buf < 3" in=src out=src,buf\n'
        "timed serve rate=2.0 in=buf\n"
        'reward L "#buf == 1" = 1\nreward L "#buf == 2" = 2\nreward L "#buf == 3" = 3\n')
    code, out, _ = run_cli("solve-srn", str(netpath))
    assert code == 0
    assert "tangible states: 4" in out
    assert "reward L = 0.733333" in out


def test_solve_srn_unbounded_net_stops_at_state_cap(tmp_path):
    netpath = tmp_path / "grow.net"
    netpath.write_text("place a 0\ntimed grow rate=1.0 out=a\n")
    code, _, err = run_cli("solve-srn", str(netpath), "--state-cap", "100")
    assert code == 2
    assert "more than 100 markings" in err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_solve_srn_rejects_state_cap_below_one(tmp_path, cap):
    netpath = tmp_path / "flip.net"
    netpath.write_text("place a 1\nplace b 0\ntimed t rate=1 in=a out=b\n"
                       "timed u rate=1 in=b out=a\n")
    code, out, err = run_cli("solve-srn", str(netpath), "--state-cap", cap)
    assert (code, out) == (1, "")
    assert err == f"error: state cap must be at least 1, got {cap}\n"


def _python(*args):
    """Run a fresh interpreter that imports this copy of patchdesign."""
    env = dict(os.environ)
    src = str(Path(patchdesign.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_solve_srn_singular_system_prints_only_the_solver_error(tmp_path):
    # the initial marking has probability near 1e-600, so the pinned system
    # is singular in double precision; scipy's MatrixRankWarning used to be
    # printed to stderr before the solver error
    netpath = tmp_path / "singular.net"
    netpath.write_text("place down 3\nplace up 0\n"
                       "timed repair rate=1e100*#down in=down out=up\n"
                       "timed fail rate=1e-100*#up in=up out=down\n")
    proc = _python("-m", "patchdesign", "solve-srn", str(netpath))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("solver error: steady-state solve failed at 4 tangible states: "
                           "the pinned system is singular\n")


@pytest.mark.parametrize("module", ["patchdesign", "patchdesign.cli"])
def test_module_entry_points_run_the_cli(module):
    expected = io.StringIO()
    cli.run(["security", "--model", MODEL, "--design", "base"], out=expected)
    proc = _python("-m", module, "security", "--model", MODEL, "--design", "base")
    assert (proc.returncode, proc.stdout) == (0, expected.getvalue())
    assert _python("-m", module, "availability", "--model", MODEL,
                   "--patched").returncode == 1


def test_security_loads_neither_numpy_nor_scipy():
    script = (
        "import io, sys\n"
        "from patchdesign import cli\n"
        f"code = cli.run(['security', '--model', {MODEL!r}], out=io.StringIO())\n"
        "print(code, sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    proc = _python("-c", script)
    assert proc.stdout.split("\n")[0] == "0 []", proc.stderr


def test_security_loads_no_srn_module():
    # the package resolves its names on first use and the CLI imports the
    # modules a command runs, so security compiles none of the SRN engine
    script = (
        "import io, sys\n"
        "from patchdesign import cli\n"
        f"code = cli.run(['security', '--model', {MODEL!r}], out=io.StringIO())\n"
        "print(code, sorted(m for m in ('patchdesign.srn', 'patchdesign.availability',\n"
        "                               'patchdesign.guards', 'patchdesign.netfile')\n"
        "                   if m in sys.modules))\n"
    )
    proc = _python("-c", script)
    assert proc.stdout.split("\n")[0] == "0 []", proc.stderr


def test_netfile_simulation_loads_no_numpy(tmp_path):
    path = tmp_path / "flip.net"
    path.write_text("place up 1\nplace down 0\n"
                    "timed fail rate=1 in=up out=down\n"
                    "timed repair rate=2 in=down out=up\n"
                    'reward u "#up == 1" = 1\n')
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from patchdesign.netfile import parse_net\n"
        "from patchdesign.simulate import simulate_reward\n"
        f"doc = parse_net(Path({str(path)!r}).read_text())\n"
        "est = simulate_reward(doc.net, doc.rewards['u'], hours=100.0, seed=1)\n"
        "print(0 < est.value < 1, sorted(m for m in sys.modules\n"
        "                               if m.partition('.')[0] == 'numpy'))\n"
    )
    proc = _python("-c", script)
    assert proc.stdout.split("\n")[0] == "True []", proc.stderr


@pytest.mark.parametrize("command", ["availability", "compare"])
def test_bundled_model_loads_no_scipy(tmp_path, command):
    # the four server nets take 104 updates each, within srn.GTH_UPDATES:
    # connectivity and the solve need neither numpy nor scipy
    argv = [command, "--model", MODEL] + (["--out", str(tmp_path)] if command == "compare" else [])
    script = (
        "import io, sys\n"
        "from patchdesign import cli\n"
        f"code = cli.run({argv!r}, out=io.StringIO())\n"
        "print(code, 'numpy' in sys.modules,\n"
        "      sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    proc = _python("-c", script)
    assert proc.stdout.split("\n")[0] == "0 False []", proc.stderr


def test_security_path_count_beyond_float_range(tmp_path):
    # a web self-loop with 171 replicas: 171! paths pass through every web
    # replica, more than a float can hold
    doc = json.loads(Path(MODEL).read_text())
    doc["reachability"]["edges"].append(["web", "web"])
    doc["designs"] = {"loop": {"dns": 1, "web": 171, "app": 1, "db": 1}}
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("security", "--model", str(path), "--patched", "--format", "csv")
    assert (code, err) == (0, "")
    fields = dict(zip(*(line.split(",") for line in out.strip().splitlines())))
    assert fields["asp"] == "1"
    assert int(fields["noap"]) == sum(math.perm(171, k) for k in range(1, 172))
