import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (BASELINE, COMPARISON_LABELS, reference_accepts, reference_radar_csv,
                      reference_scatter_csv)
from patchdesign import availability, evaluate, harm
from patchdesign.evaluate import DesignEvaluation
from patchdesign.harm import SecurityMetrics
from patchdesign.model import AttackTreeNode, Bounds, leaf

REGION1 = Bounds(asp_upper=0.2, coa_lower=0.9962)
REGION2 = Bounds(asp_upper=0.1, coa_lower=0.9961)
REGION1_FIVE = Bounds(asp_upper=0.2, coa_lower=0.9962,
                      noev_upper=9, noap_upper=2, noep_upper=1)
REGION2_FIVE = Bounds(asp_upper=0.1, coa_lower=0.9961,
                      noev_upper=7, noap_upper=1, noep_upper=1)


@pytest.fixture(scope="module")
def patched_evals(model):
    return {label: evaluate.evaluate_design(model, model.designs[label], True)
            for label in COMPARISON_LABELS}


def test_evaluate_design_base_unpatched(model):
    e = evaluate.evaluate_design(model, model.designs["base"], False)
    assert e.metrics.asp == pytest.approx(1.0)
    assert e.coa == pytest.approx(0.99707, abs=1e-4)


def test_evaluate_design_baseline_patched(model):
    e = evaluate.evaluate_design(model, model.designs[BASELINE], True)
    assert e.metrics.noap == 1
    assert e.metrics.noep == 1


def test_evaluate_design_app_redundant_noev(model):
    e = evaluate.evaluate_design(model, model.designs["1dns-1web-2app-1db"], True)
    # web 2 + app 2x2 + db 3 vulnerability instances
    assert e.metrics.noev == 9


def test_filter_two_region_one(patched_evals):
    accepted = {label for label, e in patched_evals.items()
                if evaluate.accepts(e, REGION1)}
    assert accepted == {"1dns-1web-2app-1db", "1dns-1web-1app-2db"}


def test_filter_two_region_two(patched_evals):
    accepted = {label for label, e in patched_evals.items()
                if evaluate.accepts(e, REGION2)}
    assert accepted == {"2dns-1web-1app-1db"}


def test_filter_two_vacuous_bounds_accept_everything(patched_evals):
    bounds = Bounds(asp_upper=1.0, coa_lower=0.0)
    assert all(evaluate.accepts(e, bounds)
               for e in patched_evals.values())


def test_filter_five_case_one(patched_evals):
    accepted = {label for label, e in patched_evals.items()
                if evaluate.accepts(e, REGION1_FIVE)}
    assert accepted == {"1dns-1web-2app-1db"}


def test_filter_five_case_two(patched_evals):
    accepted = {label for label, e in patched_evals.items()
                if evaluate.accepts(e, REGION2_FIVE)}
    assert accepted == {"2dns-1web-1app-1db"}


def test_filter_five_zero_count_bounds(patched_evals):
    bounds = Bounds(asp_upper=1.0, coa_lower=0.0,
                    noev_upper=0, noap_upper=0, noep_upper=0)
    assert not any(evaluate.accepts(e, bounds)
                   for e in patched_evals.values())


def test_filters_are_monotone_in_bounds(patched_evals):
    tight = REGION1_FIVE
    loose = Bounds(asp_upper=0.3, coa_lower=0.996,
                   noev_upper=10, noap_upper=3, noep_upper=2)
    for e in patched_evals.values():
        assert evaluate.accepts(e, tight) <= evaluate.accepts(e, loose)
        tight_two = Bounds(asp_upper=0.1, coa_lower=0.9962)
        loose_two = Bounds(asp_upper=0.2, coa_lower=0.9961)
        assert evaluate.accepts(e, tight_two) <= evaluate.accepts(e, loose_two)


def test_filter_five_implies_filter_two(patched_evals):
    for e in patched_evals.values():
        if evaluate.accepts(e, REGION1_FIVE):
            assert evaluate.accepts(e, REGION1)


def test_sweep_is_order_independent(model):
    designs = [model.designs[label] for label in COMPARISON_LABELS]
    forward = evaluate.sweep(model, [REGION1], designs=designs)
    backward = evaluate.sweep(model, [REGION1], designs=designs[::-1])
    assert [e.label for e in forward.evaluations] == \
        [e.label for e in backward.evaluations]
    assert forward.regions[0][1] == backward.regions[0][1]


def test_sweep_radar_constant_aim_column(model):
    designs = [model.designs[label] for label in COMPARISON_LABELS]
    result = evaluate.sweep(model, patched=True, designs=designs)
    aims = [e.metrics.aim for e in result.evaluations]
    assert all(a == pytest.approx(42.2) for a in aims)
    csv = evaluate.radar_csv(result.evaluations)
    assert len(csv.strip().splitlines()) == 6  # header + 5 designs


def test_sweep_empty_design_list(model):
    result = evaluate.sweep(model, designs=[])
    assert result.evaluations == []
    assert evaluate.scatter_csv(result.evaluations) == "design,patched,asp,coa\n"


def test_evaluate_all_slices(model):
    # a part not asked for is None; each design evaluated alone matches its row
    evaluator = evaluate.Evaluator(model, patched=True)
    designs = [model.designs[label] for label in COMPARISON_LABELS]
    both = evaluator.evaluate_all(designs)
    assert [e.label for e in both] == COMPARISON_LABELS
    security = evaluator.evaluate_all(designs, coa=False)
    coa = evaluator.evaluate_all(designs, security=False)
    for design, e, s, c in zip(designs, both, security, coa):
        assert (s.metrics, s.coa, c.metrics, c.coa) == (e.metrics, None, None, e.coa)
        assert evaluator.evaluate_all([design])[0] == e
    assert evaluator.evaluate_all([]) == []


def test_sweep_coa_ordering(model):
    designs = [model.designs[label] for label in COMPARISON_LABELS]
    result = evaluate.sweep(model, patched=True, designs=designs)
    coa = {e.label: e.coa for e in result.evaluations}
    assert (coa["1dns-1web-2app-1db"] > coa["1dns-1web-1app-2db"]
            > coa["2dns-1web-1app-1db"] > coa["1dns-2web-1app-1db"]
            > coa[BASELINE])


def test_evaluator_aggregates_rates_once_and_only_for_coa(model, monkeypatch):
    calls = []
    original = availability.aggregate_all

    def counting(templates, policy):
        calls.append(policy)
        return original(templates, policy)

    monkeypatch.setattr(availability, "aggregate_all", counting)
    evaluator = evaluate.Evaluator(model, patched=True)
    security = [e.metrics for e in evaluator.evaluate_all(model.designs.values(), coa=False)]
    assert calls == []
    evaluations = [evaluator.evaluate_all([d])[0] for d in model.designs.values()]
    assert len(calls) == 1
    assert [e.metrics for e in evaluations] == security
    assert all(e.patched for e in evaluations)


def test_sweep_prunes_each_tree_once(model, monkeypatch):
    # the pruned trees depend on the templates and the policy only, so a
    # sweep prunes each tier's tree once, not once per design
    pruned = []
    original = harm.prune_attack_tree

    def counting(tree, selector):
        pruned.append(tree)
        return original(tree, selector)

    monkeypatch.setattr(harm, "prune_attack_tree", counting)
    result = evaluate.sweep(model, patched=True)
    tiers = {id(tpl.attack_tree): tier for tier, tpl in model.templates.items()}
    assert sorted(tiers[id(tree)] for tree in pruned) == sorted(model.templates)
    for e in result.evaluations:
        assert e == evaluate.evaluate_design(model, model.designs[e.label], True)


@pytest.mark.parametrize("patched", [True, False])
def test_sweep_evaluates_each_tree_once(model, monkeypatch, patched):
    # tree values depend on the pruned trees only, so a sweep evaluates
    # each exploitable tier's tree once, not once per design
    trees = harm.tier_trees(model.templates, model.reachability, patched, model.policy)
    exploitable = sum(tree is not None for tree in trees.values())
    calls, depth = [], [0]

    def outermost(fn):
        def counted(tree):
            if not depth[0]:
                calls.append(fn.__name__)
            depth[0] += 1
            try:
                return fn(tree)
            finally:
                depth[0] -= 1
        return counted

    for name in ("tree_impact", "tree_probability"):
        monkeypatch.setattr(harm, name, outermost(getattr(harm, name)))
    result = evaluate.sweep(model, patched=patched)
    assert len(result.evaluations) == 6
    assert sorted(calls) == sorted(["tree_impact", "tree_probability"] * exploitable)


def test_scatter_csv_layout(model):
    e = evaluate.evaluate_design(model, model.designs[BASELINE], True)
    csv = evaluate.scatter_csv([e])
    header, row = csv.strip().splitlines()
    assert header == "design,patched,asp,coa"
    fields = row.split(",")
    assert fields[0] == BASELINE
    assert fields[1] == "true"
    assert float(fields[2]) == pytest.approx(e.metrics.asp, rel=1e-5)


def test_regions_json_layout():
    text = evaluate.regions_json([(REGION1_FIVE, ["a", "b"])])
    data = json.loads(text)
    assert data[0]["accepted"] == ["a", "b"]
    assert data[0]["bounds"]["phi"] == 0.2
    assert data[0]["bounds"]["xi"] == 9


# -- the bound check and the CSV rows against their references ------------

_metrics = st.builds(SecurityMetrics,
                     aim=st.floats(0, 1e4) | st.integers(0, 10 ** 8),
                     asp=st.floats(0, 1), noev=st.integers(0, 10 ** 6),
                     noap=st.integers(0, 2 ** 200), noep=st.integers(0, 10 ** 4))
_evaluations = st.builds(DesignEvaluation,
                         label=st.text("abcdxyz0123456789-", min_size=1, max_size=12),
                         patched=st.booleans(), metrics=_metrics, coa=st.floats(0, 1))


@st.composite
def _evaluation_and_bounds(draw):
    """An evaluation and a bound set whose bounds are each unset, equal
    to the value they bound, one past it, or drawn on their own."""
    e = draw(_evaluations)
    m = e.metrics

    def bound(value, others):
        return draw(st.none() | st.just(value) | others)

    def count_bound(value):
        return bound(value, st.sampled_from([max(value - 1, 0), value + 1])
                     | st.integers(0, 2 ** 200))

    return e, Bounds(asp_upper=bound(m.asp, st.floats(0, 1)),
                     coa_lower=bound(e.coa, st.floats(0, 1)),
                     noev_upper=count_bound(m.noev), noap_upper=count_bound(m.noap),
                     noep_upper=count_bound(m.noep))


@settings(max_examples=300, deadline=None)
@given(case=_evaluation_and_bounds())
def test_accepts_matches_the_reference(case):
    evaluation, bounds = case
    assert evaluate.accepts(evaluation, bounds) is reference_accepts(evaluation, bounds)


def _int_impacts(node):
    """``node`` with every leaf's impact rounded to an int."""
    if node is None:
        return None
    if node.kind == "leaf":
        v = node.vulnerability
        return leaf(dataclasses.replace(v, attack_impact=round(v.attack_impact)))
    return AttackTreeNode(node.kind, children=tuple(map(_int_impacts, node.children)))


@pytest.fixture(scope="module")
def int_aim_evaluations(model):
    """The bundled designs, pre- and post-patch, on library-built trees of
    int impacts: their AIM is an int."""
    templates = {t: dataclasses.replace(tpl, attack_tree=_int_impacts(tpl.attack_tree))
                 for t, tpl in model.templates.items()}
    m = dataclasses.replace(model, templates=templates)
    evaluations = [e for patched in (True, False)
                   for e in evaluate.Evaluator(m, patched).evaluate_all(m.designs.values())]
    assert all(type(e.metrics.aim) is int for e in evaluations)
    return evaluations


@settings(max_examples=200, deadline=None)
@given(drawn=st.lists(_evaluations, max_size=6), picks=st.lists(st.integers(0, 11), max_size=4))
def test_csv_rows_match_the_reference(int_aim_evaluations, drawn, picks):
    evaluations = drawn + [int_aim_evaluations[i] for i in picks]
    assert evaluate.scatter_csv(evaluations) == reference_scatter_csv(evaluations)
    assert evaluate.radar_csv(evaluations) == reference_radar_csv(evaluations)
