import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (BASELINE, COMPARISON_LABELS, exploitable_instances,
                      instance_path_metrics, per_design_metrics)
from patchdesign.evaluate import Evaluator
from patchdesign.harm import (Harm, build_harm,
                              enumerate_attack_paths, network_metrics,
                              path_metrics, tree_impact, tree_probability)
from patchdesign.model import (DesignSpec, Model, ModelError, PatchPolicy,
                               ReachabilityTemplate, ServerTemplate, Vulnerability,
                               and_node, leaf, or_node, prune_attack_tree)


def _harm(model, label, patched):
    return build_harm(model.designs[label], model.templates,
                      model.reachability, patched, model.policy)


def test_base_unpatched_instances_and_entries(model):
    h = _harm(model, "base", patched=False)
    assert sum(h.counts.values()) == 6
    assert {t: h.counts[t] for t in h.reachability.entry_tiers} == {"dns": 1, "web": 2}
    assert network_metrics(h).noep == 3


def test_base_patched_dns_not_an_entry(model):
    h = _harm(model, "base", patched=True)
    assert h.trees["dns"] is None
    assert network_metrics(h).noep == 2


def test_baseline_expansion(model):
    h = _harm(model, BASELINE, patched=False)
    assert sum(h.counts.values()) == 4
    assert network_metrics(h).noep == 2


def test_path_counts_before_and_after_patch(model):
    before = enumerate_attack_paths(_harm(model, "base", patched=False))
    after = enumerate_attack_paths(_harm(model, "base", patched=True))
    assert len(before) == 8
    assert len(after) == 4
    via_dns = [p for p in before if p[0].id == "dns1"]
    assert len(via_dns) == 4
    # post patch every path is web -> app -> db
    assert all([i.tier for i in p] == ["web", "app", "db"] for p in after)


def test_baseline_patched_single_path(model):
    paths = enumerate_attack_paths(_harm(model, BASELINE, patched=True))
    assert len(paths) == 1


def test_paths_in_lexicographic_order(model):
    paths = enumerate_attack_paths(_harm(model, "base", patched=False))
    keys = [[i.id for i in p] for p in paths]
    assert keys == sorted(keys)


def _vuln(impact, prob, vid="CVE-0000-0001"):
    return Vulnerability(vid, impact, prob, False, "os")


def test_tree_impact_web_example(model):
    assert tree_impact(model.templates["web"].attack_tree) == pytest.approx(12.9)


def test_tree_impact_single_leaf():
    assert tree_impact(leaf(_vuln(10.0, 1.0))) == 10.0


def test_tree_impact_db_example(model):
    assert tree_impact(model.templates["db"].attack_tree) == pytest.approx(12.9)


def test_tree_impact_app_example(model):
    assert tree_impact(model.templates["app"].attack_tree) == pytest.approx(16.4)


def test_tree_impact_empty_is_unexploitable():
    assert tree_impact(None) is None


def test_tree_probability_web_unpatched(model):
    assert tree_probability(model.templates["web"].attack_tree) == pytest.approx(1.0)


def test_tree_probability_and_product():
    node = and_node(leaf(_vuln(1.0, 1.0)), leaf(_vuln(1.0, 0.39, "CVE-0000-0002")))
    assert tree_probability(node) == pytest.approx(0.39)


def test_tree_probability_patched_db(model):
    db = prune_attack_tree(model.templates["db"].attack_tree, model.policy.matches)
    # OR(AND(0.86, 0.39), 0.39) -> 0.39
    assert tree_probability(db) == pytest.approx(0.39)


def test_path_metrics_worked_example(model):
    h = _harm(model, "base", patched=False)
    paths = enumerate_attack_paths(h)
    ap1 = next(p for p in paths
               if [i.id for i in p] == ["dns1", "web1", "app1", "db1"])
    impact, prob = path_metrics(h, ap1)
    assert impact == pytest.approx(52.2)
    assert prob == pytest.approx(1.0)


def _template(tier, tree):
    """A server template that only the attack tree matters for."""
    return ServerTemplate(
        tier=tier, attack_tree=tree,
        hw_mttf=1, hw_mttr=1, os_mttf=1, os_mttr=1, os_patch_mean=1,
        os_reboot_after_patch=1, os_reboot_after_failure=1, svc_mttf=1,
        svc_mttr=1, svc_patch_mean=1, svc_reboot_after_patch=1,
        svc_reboot_after_failure=1)


def test_path_metrics_single_node():
    # degenerate reachability: entry tier is the target tier
    reach = ReachabilityTemplate(("db",), frozenset(), frozenset({"db"}), "db")
    design = DesignSpec("solo", (("db", 1),))
    h = build_harm(design, {"db": _template("db", or_node(leaf(_vuln(7.0, 0.5))))},
                   reach, patched=False)
    paths = enumerate_attack_paths(h)
    assert len(paths) == 1 and len(paths[0]) == 1
    impact, prob = path_metrics(h, paths[0])
    assert (impact, prob) == (7.0, 0.5)


def test_asp_counts_paths_below_float_resolution():
    # 4 paths of probability 1e-18: 1.0 - 1e-18 rounds to 1.0, so a
    # product of misses loses all of them
    reach = ReachabilityTemplate(("a", "b"), frozenset({("a", "b")}),
                                 frozenset({"a"}), "b")
    design = DesignSpec("tiny", (("a", 2), ("b", 2)))
    templates = {t: _template(t, or_node(leaf(_vuln(1.0, 1e-9)))) for t in "ab"}
    h = build_harm(design, templates, reach, patched=False)
    m = network_metrics(h)
    assert m.noap == 4
    assert m.asp == pytest.approx(4e-18, rel=1e-12, abs=0)
    assert instance_path_metrics(h).asp == pytest.approx(4e-18, rel=1e-12, abs=0)


def test_path_metrics_patched_path_probability(model):
    h = _harm(model, "base", patched=True)
    paths = enumerate_attack_paths(h)
    _, prob = path_metrics(h, paths[0])
    assert prob == pytest.approx(0.39 ** 3)


def test_network_metrics_before_patch(model):
    m = network_metrics(_harm(model, "base", patched=False))
    assert m.aim == pytest.approx(52.2)
    assert m.asp == pytest.approx(1.0)
    assert (m.noap, m.noep) == (8, 3)
    # 26 vulnerability instances under the per-replica counting rule
    assert m.noev == 26


def test_network_metrics_after_patch(model):
    m = network_metrics(_harm(model, "base", patched=True))
    assert m.aim == pytest.approx(42.2)
    assert (m.noev, m.noap, m.noep) == (11, 4, 2)
    assert m.asp == pytest.approx(1 - (1 - 0.39 ** 3) ** 4)


def test_metrics_of_unexploitable_network(model):
    # every tier's tree pruned to nothing
    trees = {tier: prune_attack_tree(tpl.attack_tree, lambda v: True)
             for tier, tpl in model.templates.items()}
    h = Harm(dict(model.designs["base"].counts), trees, model.reachability)
    m = network_metrics(h)
    assert (m.aim, m.asp, m.noev, m.noap, m.noep) == (0.0, 0.0, 0, 0, 0)


# -- invariants ------------------------------------------------------------


def _all_metrics(model, label, patched):
    return network_metrics(_harm(model, label, patched))


def test_patching_never_increases_any_metric(model):
    for label in model.designs:
        before = _all_metrics(model, label, False)
        after = _all_metrics(model, label, True)
        assert after.aim <= before.aim
        assert after.asp <= before.asp
        assert after.noev <= before.noev
        assert after.noap <= before.noap
        assert after.noep <= before.noep


def test_replica_monotonicity(model):
    base = _all_metrics(model, BASELINE, True)
    for label in COMPARISON_LABELS:
        if label == BASELINE:
            continue
        redundant = _all_metrics(model, label, True)
        assert redundant.asp >= base.asp
        assert redundant.noev >= base.noev
        assert redundant.noap >= base.noap
        assert redundant.aim == pytest.approx(base.aim)


def test_dns_redundancy_does_not_change_post_patch_security(model):
    base = _all_metrics(model, BASELINE, True)
    dns2 = _all_metrics(model, "2dns-1web-1app-1db", True)
    assert (dns2.asp, dns2.noap, dns2.noev, dns2.aim) == \
        (base.asp, base.noap, base.noev, base.aim)


def test_non_dns_redundancy_strictly_raises_asp(model):
    base = _all_metrics(model, BASELINE, True)
    for label in ("1dns-2web-1app-1db", "1dns-1web-2app-1db", "1dns-1web-1app-2db"):
        assert _all_metrics(model, label, True).asp > base.asp


def test_tree_probability_in_unit_interval(model):
    for tpl in model.templates.values():
        for patched_tree in (tpl.attack_tree,):
            p = tree_probability(patched_tree)
            assert p is None or 0.0 <= p <= 1.0


def _brute_force_paths(harm_obj):
    """Exhaustive check over every vertex sequence (graphs <= 8 instances)."""
    reach = harm_obj.reachability
    nodes = exploitable_instances(harm_obj)
    found = []
    for length in range(1, len(nodes) + 1):
        for seq in permutations(nodes, length):
            if seq[0].tier not in reach.entry_tiers or seq[-1].tier != reach.target_tier:
                continue
            if any(i.tier == reach.target_tier for i in seq[:-1]):
                continue  # would have stopped at the target already
            if all((a.tier, b.tier) in reach.edges for a, b in zip(seq, seq[1:])):
                found.append(seq)
    return sorted(found, key=lambda p: [i.id for i in p])


@pytest.mark.parametrize("label,patched", [
    ("base", False), ("base", True),
    ("1dns-1web-1app-1db", False), ("1dns-2web-1app-1db", True),
])
def test_path_enumeration_matches_brute_force(model, label, patched):
    h = _harm(model, label, patched)
    assert list(enumerate_attack_paths(h)) == _brute_force_paths(h)


# -- visit-vector counting against the instance paths ------------------------

# a leaf is (impact, probability, vulnerability id); a tree is a tuple of
# OR branches, each an AND of its leaves; None is an unexploitable tier
_LEAF = st.tuples(st.floats(0.0, 10.0),
                  st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
                  st.sampled_from(["CVE-A", "CVE-B", "CVE-C", "CVE-D"]))
_TREE = st.one_of(st.none(), st.lists(st.lists(_LEAF, min_size=1, max_size=2)
                                      .map(tuple), min_size=1, max_size=3).map(tuple))
_MAX_INSTANCES = 8  # keeps the instance enumeration of dense cyclic graphs small
_MAX_BRUTE_FORCE = 6  # exploitable instances up to which every sequence is tried


@st.composite
def _replica_counts(draw, k):
    """1-3 replicas for each of k tiers, at most _MAX_INSTANCES in all."""
    counts = []
    for i in range(k):
        spare = _MAX_INSTANCES - sum(counts) - (k - i - 1)
        counts.append(draw(st.integers(1, min(3, spare))))
    return tuple(counts)


@st.composite
def tier_graphs(draw):
    """(replica counts, tier edges, trees, entry tiers, target tier) over
    tiers 0..k-1: cycles, self-loops and entry == target included."""
    k = draw(st.integers(1, 5))
    counts = draw(_replica_counts(k))
    pair = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
    edges = draw(st.frozensets(pair, max_size=2 * k))
    trees = draw(st.lists(_TREE, min_size=k, max_size=k))
    entries = draw(st.frozensets(st.integers(0, k - 1), min_size=1))
    target = draw(st.integers(0, k - 1))
    return tuple(counts), edges, tuple(trees), entries, target


def _tier_graph_model(case):
    """The model of a ``tier_graphs`` case, with its counts as the one
    design "random"; None if no tier path leads from an entry to the
    target."""
    counts, edges, trees, entries, target = case
    tiers = tuple(f"t{i}" for i in range(len(counts)))
    try:
        reach = ReachabilityTemplate(
            tiers, frozenset((tiers[a], tiers[b]) for a, b in edges),
            frozenset(tiers[i] for i in entries), tiers[target])
    except ModelError:
        return None
    templates = {}
    for tier, spec in zip(tiers, trees):
        tree = None if spec is None else or_node(*(
            leaf(_vuln(*branch[0])) if len(branch) == 1
            else and_node(*(leaf(_vuln(*v)) for v in branch))
            for branch in spec))
        templates[tier] = _template(tier, tree)
    design = DesignSpec("random", tuple(zip(tiers, counts)))
    return Model(templates, reach, {"random": design}, PatchPolicy())


def _tier_graph_harm(case):
    model = _tier_graph_model(case)
    if model is None:
        return None
    return build_harm(model.designs["random"], model.templates, model.reachability,
                      patched=False)


_ONE = (((5.0, 0.5, "CVE-A"),),)
_SURE = (((2.5, 1.0, "CVE-B"), (1.0, 1.0, "CVE-C")),)


@settings(max_examples=200, deadline=None)
@given(case=tier_graphs())
# a cycle 0 -> 1 -> 2 -> 1 with p = 1 leaves along it
@example(case=((2, 2, 2, 1), frozenset({(0, 1), (1, 2), (2, 1), (2, 3)}),
               (_SURE, _ONE, _SURE, _ONE), frozenset({0}), 3))
# self-loops on the entry and a middle tier
@example(case=((3, 3, 2), frozenset({(0, 0), (0, 1), (1, 1), (1, 2)}),
               (_ONE, _SURE, _ONE), frozenset({0}), 2))
# the only middle tier is unexploitable, so the target cannot be reached
@example(case=((2, 2, 2), frozenset({(0, 1), (1, 2)}),
               (_ONE, None, _ONE), frozenset({0}), 2))
# an entry tier that is also the target, beside a longer route
@example(case=((2, 3, 2), frozenset({(0, 1), (1, 2), (2, 2)}),
               (_ONE, _SURE, _ONE), frozenset({0, 2}), 2))
# the target tier itself is unexploitable
@example(case=((1, 2), frozenset({(0, 1)}), (_ONE, None), frozenset({0}), 1))
def test_network_metrics_match_instance_paths(case):
    h = _tier_graph_harm(case)
    assume(h is not None)
    got, ref = network_metrics(h), instance_path_metrics(h)
    assert (got.noev, got.noap, got.noep) == (ref.noev, ref.noap, ref.noep)
    assert got.aim == pytest.approx(ref.aim, abs=1e-12)
    assert got.asp == pytest.approx(ref.asp, abs=1e-12)
    if len(exploitable_instances(h)) <= _MAX_BRUTE_FORCE:
        assert enumerate_attack_paths(h) == _brute_force_paths(h)


@st.composite
def tier_graph_sets(draw):
    """A ``tier_graphs`` case and 1-4 designs over its tiers: the case's
    own counts and up to three more."""
    case = draw(tier_graphs())
    more = draw(st.lists(_replica_counts(len(case[0])), max_size=3))
    return case, [case[0], *more]


def _bits(m):
    return m.aim.hex(), m.asp.hex(), m.noev, m.noap, m.noep


@settings(max_examples=150, deadline=None)
@given(sets=tier_graph_sets())
# a box (3, 3, 1) wider than either design, with self-loops on both
# replicated tiers: the box's longest rows belong to no design
@example(sets=(((3, 1, 1), frozenset({(0, 0), (0, 1), (1, 1), (1, 2)}),
                (_ONE, _SURE, _ONE), frozenset({0}), 2), [(3, 1, 1), (1, 3, 1)]))
# a cycle through p = 1 tiers, walked further by the wider design
@example(sets=(((2, 2, 2, 1), frozenset({(0, 1), (1, 2), (2, 1), (2, 3)}),
                (_SURE, _SURE, _SURE, _ONE), frozenset({0}), 3),
               [(2, 2, 2, 1), (1, 1, 1, 1), (1, 3, 2, 1)]))
# two walks reach the target with the same visits, in orders whose sums
# and products round apart: the first walk's values must be the ones kept
@example(sets=(((1, 1, 1, 1), frozenset({(0, 1), (0, 2), (1, 2), (2, 1), (1, 3), (2, 3)}),
                ((((0.1, 0.01, "CVE-A"),),), (((0.1, 0.01, "CVE-B"),),),
                 (((0.4, 0.03, "CVE-C"),),), (((0.0, 0.5, "CVE-D"),),)),
                frozenset({0}), 3), [(1, 1, 1, 1), (1, 2, 1, 1)]))
def test_design_set_metrics_match_each_design_alone(sets):
    # one walk over the set's bounding box gives each design the exact
    # counts and bit-identical ASP and AIM of a walk over that design
    # alone, and of a walk that counts that design's instance paths
    case, designs = sets
    model = _tier_graph_model(case)
    assume(model is not None)
    tiers = model.reachability.tiers
    specs = [DesignSpec(f"d{i}", tuple(zip(tiers, c))) for i, c in enumerate(designs)]
    evaluator = Evaluator(model, patched=False)
    together = evaluator.evaluate_all(specs, coa=False)
    for spec, e in zip(specs, together):
        assert e.label == spec.label and e.coa is None
        assert _bits(e.metrics) == _bits(evaluator.evaluate_all([spec], coa=False)[0].metrics)
        h = Harm(dict(spec.counts), evaluator.trees, model.reachability)
        assert _bits(e.metrics) == _bits(per_design_metrics(h))
        ref = instance_path_metrics(h)
        assert (e.metrics.noev, e.metrics.noap, e.metrics.noep) == (ref.noev, ref.noap, ref.noep)
        assert e.metrics.aim == pytest.approx(ref.aim, abs=1e-12)
        assert e.metrics.asp == pytest.approx(ref.asp, abs=1e-12)


def test_ten_replicas_per_tier(model):
    design = DesignSpec("n10", tuple((t, 10) for t in model.reachability.tiers))
    for patched, noap in ((True, 1000), (False, 11000)):
        h = build_harm(design, model.templates, model.reachability, patched,
                       model.policy)
        got = network_metrics(h)
        assert got.noap == noap
        ref = instance_path_metrics(h)
        assert (got.noev, got.noap, got.noep) == (ref.noev, ref.noap, ref.noep)
        assert got.aim == pytest.approx(ref.aim, abs=1e-12)
        assert got.asp == pytest.approx(ref.asp, abs=1e-12)


# -- long cycles and path counts beyond float range ---------------------------


@pytest.mark.parametrize("patched,entry_tiers", [(False, 2), (True, 1)])
def test_tier_self_loop_with_1200_replicas(model, patched, entry_tiers):
    # paths from dns (unpatched only) and from web pass through any k of the
    # 1 200 web replicas in any order before app and db
    reach = model.reachability
    loop = ReachabilityTemplate(reach.tiers, reach.edges | {("web", "web")},
                                reach.entry_tiers, reach.target_tier)
    design = DesignSpec("web1200", (("dns", 1), ("web", 1200), ("app", 1), ("db", 1)))
    m = network_metrics(build_harm(design, model.templates, loop, patched, model.policy))
    assert m.noap == entry_tiers * sum(math.perm(1200, k) for k in range(1, 1201))
    assert m.asp == 1.0


# the bench's cyclic six-tier graph: entries t0 and t1, target t5
_CYCLIC = frozenset({("t0", "t1"), ("t0", "t2"), ("t1", "t2"), ("t1", "t3"), ("t2", "t1"),
                     ("t2", "t3"), ("t3", "t1"), ("t3", "t4"), ("t4", "t2"), ("t4", "t5")})


# Reference ASP: the visit vectors reaching t5 with their exact integer
# path counts, and -expm1 of the count-weighted sum of log1p(-p) over them,
# in 60-digit mpmath arithmetic from the float leaf probabilities.
@pytest.mark.parametrize("n,noap,asp", [
    (6, 154_907_219_022_375_456, 0.05069551516806768786734431),
    (8, 52_280_297_444_236_694_465_191_936, 0.2331294930427828493574356),
])
def test_cyclic_six_tiers(n, noap, asp):
    tiers = tuple(f"t{i}" for i in range(6))
    reach = ReachabilityTemplate(tiers, _CYCLIC, frozenset({"t0", "t1"}), "t5")
    probs = (0.05, 0.06, 0.04, 0.07, 0.05, 0.08)
    templates = {t: _template(t, or_node(leaf(_vuln(1.0, p)))) for t, p in zip(tiers, probs)}
    design = DesignSpec(f"n{n}", tuple((t, n) for t in tiers))
    m = network_metrics(build_harm(design, templates, reach, patched=False))
    assert m.noap == noap
    assert m.asp == pytest.approx(asp, rel=1e-12, abs=0)


@pytest.mark.parametrize("replicas", [2, 171])
@pytest.mark.parametrize("prob", [0.0, 1e-310, 0.5])
def test_path_counts_beyond_float_range(replicas, prob):
    # a -> a* -> b, every path of probability ``prob``; with 171 replicas of
    # a, the two longest levels each hold 171! > 1.8e308 paths
    reach = ReachabilityTemplate(("a", "b"), frozenset({("a", "a"), ("a", "b")}),
                                 frozenset({"a"}), "b")
    templates = {"a": _template("a", or_node(leaf(_vuln(1.0, 1.0)))),
                 "b": _template("b", or_node(leaf(_vuln(1.0, prob))))}
    design = DesignSpec("loop", (("a", replicas), ("b", 1)))
    m = network_metrics(build_harm(design, templates, reach, patched=False))
    noap = sum(math.perm(replicas, k) for k in range(1, replicas + 1))
    assert m.noap == noap
    # noisy-OR of equal paths: 1 - exp(noap * log1p(-p)), the product
    # taken exactly; exp(-1000) is 0.0
    expected = -math.expm1(-float(min(noap * Fraction(-math.log1p(-prob)), 1000)))
    assert m.asp == pytest.approx(expected, rel=1e-12, abs=0)
    assert math.copysign(1.0, m.asp) == 1.0  # never -0.0
