import dataclasses
import json
import math

import pytest
from conftest import KeyTwice

from patchdesign.harm import tier_trees
from patchdesign.model import (ModelError, PatchPolicy, ReachabilityTemplate,
                               example_network_path, load_model, prune_attack_tree)


def test_example_network_loads(model):
    assert list(model.reachability.tiers) == ["dns", "web", "app", "db"]
    assert len(model.templates) == 4
    # 16 vulnerability rows across the four templates (one CVE appears on
    # both the app and db servers)
    rows = sum(len(list(tpl.attack_tree.leaves())) for tpl in model.templates.values())
    assert rows == 16
    assert model.policy.interval_mean == 720.0
    assert "base" in model.designs
    assert dict(model.designs["base"].counts) == {"dns": 1, "web": 2, "app": 2, "db": 1}


def test_empty_tier_list_rejected():
    doc = json.loads(example_network_path().read_text())
    doc["tiers"] = []
    with pytest.raises(ModelError, match="no tiers"):
        load_model(doc)


def test_probability_out_of_range_names_vulnerability():
    doc = json.loads(example_network_path().read_text())
    doc["vulnerabilities"][0]["probability"] = 1.2
    vuln_id = doc["vulnerabilities"][0]["id"]
    with pytest.raises(ModelError, match=vuln_id):
        load_model(doc)


def test_impact_out_of_range_rejected():
    doc = json.loads(example_network_path().read_text())
    doc["vulnerabilities"][0]["impact"] = 10.5
    with pytest.raises(ModelError):
        load_model(doc)


def test_range_error_names_the_row_whatever_the_id():
    # the loader renames a constructor's error to the row it read; a dot
    # in the id does not move the key
    doc = json.loads(example_network_path().read_text())
    doc["vulnerabilities"][0].update(id="CVE.2016.1", impact=10.5)
    with pytest.raises(ModelError) as info:
        load_model(doc)
    assert str(info.value) == ("$.vulnerabilities[0].impact: "
                               "attack impact 10.5 of 'CVE.2016.1' outside [0, 10]")


def test_unknown_tier_in_design_rejected():
    doc = json.loads(example_network_path().read_text())
    doc["designs"]["base"]["cache"] = 2
    with pytest.raises(ModelError, match="cache"):
        load_model(doc)


def test_nonpositive_duration_rejected():
    doc = json.loads(example_network_path().read_text())
    doc["servers"]["dns"]["hw_mttr_hours"] = 0
    with pytest.raises(ModelError, match="hw_mttr"):
        load_model(doc)


def test_unknown_vulnerability_reference_rejected():
    doc = json.loads(example_network_path().read_text())
    doc["servers"]["dns"]["attack_tree"] = {"or": [{"vuln": "CVE-0000-0000"}]}
    with pytest.raises(ModelError, match="CVE-0000-0000"):
        load_model(doc)


def test_conflicting_duplicate_vulnerability_rejected():
    doc = json.loads(example_network_path().read_text())
    dup = dict(doc["vulnerabilities"][0])
    dup["impact"] = 5.0
    doc["vulnerabilities"].append(dup)
    with pytest.raises(ModelError, match="redefined"):
        load_model(doc)


def test_missing_tier_path_to_target_rejected():
    doc = json.loads(example_network_path().read_text())
    doc["reachability"]["edges"] = [["dns", "web"]]
    with pytest.raises(ModelError, match="target"):
        load_model(doc)


@pytest.mark.parametrize("fields, message", [
    ({"target_tier": "cache"}, "reachability.target_tier: unknown tier 'cache'"),
    ({"entry_tiers": frozenset({"cache"})}, "reachability.entry_tiers: unknown tier 'cache'"),
    ({"edges": frozenset({("dns", "cache")})},
     "reachability.edges: unknown tier in edge (dns, cache)"),
    ({"edges": frozenset()}, "reachability: no tier-path from any entry tier to the target tier"),
], ids=["target-tier", "entry-tier", "edge", "no-path"])
def test_reachability_template_errors_keep_the_library_path(fields, message):
    # a template built in the library names its own fields; only the
    # loader puts the model file's "$." in front
    reach = {"tiers": ("dns", "web"), "edges": frozenset({("dns", "web")}),
             "entry_tiers": frozenset({"dns"}), "target_tier": "web", **fields}
    with pytest.raises(ModelError) as info:
        ReachabilityTemplate(**reach)
    assert str(info.value) == message


@pytest.mark.parametrize("key, value, path", [
    ("bound", {"phi": 0.2}, "$.bound"),
    ("patch_policy", {"interval_hour": 100}, "$.patch_policy.interval_hour"),
    ("patch_policy", [720], "$.patch_policy"),
    # a dotted key names a key of a nested object
    ("servers.db.attack_trees", {"vuln": "CVE-2016-3227"}, "$.servers.db.attack_trees"),
    ("vulnerabilities.0.cvss", 9.8, "$.vulnerabilities[0].cvss"),
    ("reachability.note", "dmz first", "$.reachability.note"),
])
def test_unknown_key_rejected(key, value, path):
    # a misspelt key must not load silently as its default
    doc = json.loads(example_network_path().read_text())
    *parents, last = key.split(".")
    entry = doc
    for part in parents:
        entry = entry[int(part) if isinstance(entry, list) else part]
    entry[last] = value
    with pytest.raises(ModelError) as info:
        load_model(doc)
    assert info.value.path == path


@pytest.mark.parametrize("section, key, path", [("designs", "base", "$.designs.base"),
                                               ("servers", "dns", "$.servers.dns"),
                                               ("vulnerabilities", 0, "$.vulnerabilities[0]")])
@pytest.mark.parametrize("value", [[1], 5, "dns"])
def test_entry_that_is_not_an_object_rejected(section, key, path, value):
    doc = json.loads(example_network_path().read_text())
    doc[section][key] = value
    with pytest.raises(ModelError) as info:
        load_model(doc)
    assert info.value.path == path


@pytest.mark.parametrize("bounds, path", [({"phi": "0.2"}, "$.bounds.phi"),
                                          ({"omega": 2.5}, "$.bounds.omega"),
                                          ({"psi": True}, "$.bounds.psi"),
                                          ({"sigma": 1}, "$.bounds"),
                                          ([0.2, 0.99], "$.bounds")])
def test_malformed_bounds_rejected(bounds, path):
    doc = json.loads(example_network_path().read_text())
    doc["bounds"] = bounds
    with pytest.raises(ModelError) as info:
        load_model(doc)
    assert info.value.path == path


@pytest.mark.parametrize("path, key, second", [
    ((), "tiers", lambda doc: doc["tiers"][::-1]),
    (("designs",), "base", lambda doc: {"dns": 3, "web": 3, "app": 3, "db": 3}),
    (("servers",), "db", lambda doc: doc["servers"]["dns"]),
    (("vulnerabilities", 0), "probability", lambda doc: 0.5),
], ids=["top-level", "designs", "servers", "vulnerability-row"])
def test_duplicate_key_rejected(tmp_path, path, key, second):
    # json.loads keeps the last value of a key given twice, and this
    # document loads that way: a second "base" silently replaced the first
    doc = json.loads(example_network_path().read_text())
    root = {"": doc}
    holder, last = root, ""
    for part in path:
        holder, last = holder[last], part
    holder[last] = KeyTwice(holder[last], key, second(doc))
    text = json.dumps(root[""])
    load_model(json.loads(text))
    file = tmp_path / "model.json"
    file.write_text(text)
    with pytest.raises(ModelError) as info:
        load_model(file)
    assert str(info.value) == f"$: duplicate key {key!r}"

def test_rates_are_reciprocals(model):
    dns = model.templates["dns"]
    assert dns.rate_per_hour("hw_mttf") == pytest.approx(1 / 87600)
    assert dns.rate_per_hour("svc_patch_mean") == pytest.approx(12.0)  # 5 min
    assert dns.rate_per_hour("os_patch_mean") == pytest.approx(3.0)  # 20 min


def test_infinite_mttf_allowed():
    import dataclasses
    doc = load_model(example_network_path())
    tpl = dataclasses.replace(doc.templates["dns"], hw_mttf=math.inf)
    assert tpl.rate_per_hour("hw_mttf") == 0.0


def test_infinite_mttf_loads_from_json(tmp_path):
    # a JSON number is an int or a float, Infinity included
    text = example_network_path().read_text().replace(
        '"hw_mttf_hours": 87600', '"hw_mttf_hours": Infinity', 1)
    path = tmp_path / "model.json"
    path.write_text(text)
    assert load_model(path).templates["dns"].rate_per_hour("hw_mttf") == 0.0


_FAILURE_FIELDS = ("hw_mttf", "os_mttf", "svc_mttf")
_OTHER_FIELDS = ("hw_mttr", "os_mttr", "os_patch_mean", "os_reboot_after_patch",
                 "os_reboot_after_failure", "svc_mttr", "svc_patch_mean",
                 "svc_reboot_after_patch", "svc_reboot_after_failure")


@pytest.mark.parametrize("name", _OTHER_FIELDS)
def test_infinite_mean_other_than_mttf_rejected(model, name):
    # its rate would be 0, which the server net cannot take
    with pytest.raises(ModelError, match=f"^servers.dns.{name}: duration must be finite"):
        dataclasses.replace(model.templates["dns"], **{name: math.inf})


@pytest.mark.parametrize("name", _FAILURE_FIELDS + _OTHER_FIELDS)
def test_mean_whose_rate_overflows_rejected(model, name):
    with pytest.raises(ModelError, match=f"^servers.dns.{name}: .*its rate overflows"):
        dataclasses.replace(model.templates["dns"], **{name: 1e-320})


@pytest.mark.parametrize("interval,message", [
    (math.inf, "must be finite"), (math.nan, "must be positive"), (0.0, "must be positive"),
    (1e-320, "its rate overflows")])
def test_patch_interval_must_give_a_positive_finite_rate(interval, message):
    with pytest.raises(ModelError, match=f"^patch_policy.interval_hours: .*{message}"):
        PatchPolicy(interval_mean=interval)


# -- patching ------------------------------------------------------------


def _patched(model):
    return tier_trees(model.templates, model.reachability, True, model.policy)


def test_patch_removes_critical_or_branches(model):
    # OR(v1,v2,v3,AND(v4,v5)) with v1..v3 critical -> OR(AND(v4,v5))
    tree = _patched(model)["web"]
    assert tree.kind == "or" and len(tree.children) == 1
    assert tree.children[0].kind == "and"
    ids = {v.id for v in tree.leaves()}
    assert ids == {"CVE-2016-4979", "CVE-2016-4805"}


def test_patch_empties_dns_tree(model):
    assert _patched(model)["dns"] is None


def test_patch_removes_and_with_any_removed_child(model):
    # a patched conjunct disables the whole AND branch
    web = prune_attack_tree(model.templates["web"].attack_tree,
                            lambda v: v.id == "CVE-2016-4979")
    assert all(c.kind == "leaf" for c in web.children)
    assert len(web.children) == 3


def test_patch_with_empty_selector_is_identity(model):
    for tpl in model.templates.values():
        assert prune_attack_tree(tpl.attack_tree, lambda v: False) == tpl.attack_tree


def test_patch_is_idempotent(model):
    for once in _patched(model).values():
        assert prune_attack_tree(once, model.policy.matches) == once


def test_patched_vulnerabilities_subset_of_original(model):
    for tier, tree in _patched(model).items():
        before = {v.id for v in model.templates[tier].attack_tree.leaves()}
        after = set() if tree is None else {v.id for v in tree.leaves()}
        assert after <= before


def test_prune_empty_tree_stays_empty(model):
    assert prune_attack_tree(None, model.policy.matches) is None
