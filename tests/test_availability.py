import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BASELINE, COMPARISON_LABELS, flat_srn_coa
from patchdesign import availability as av
from patchdesign import netfile, srn
from patchdesign.model import DesignSpec, PatchPolicy

SUBMODEL_TOKENS = {
    ("P_hwup", "P_hwd"): 1,
    ("P_osup", "P_osd", "P_osfd", "P_osrtp", "P_osp"): 1,
    ("P_svcup", "P_svcd", "P_svcfd", "P_svcrtp", "P_svcp", "P_svcrrb"): 1,
    ("P_clock", "P_trigger", "P_wait"): 1,
}


def no_failures(template):
    return dataclasses.replace(template, hw_mttf=math.inf, os_mttf=math.inf,
                               svc_mttf=math.inf)


def test_server_net_has_finite_conservative_state_space(model):
    net = av.build_server_srn(model.templates["dns"], model.policy)
    graph = srn.reachability(net)
    assert 0 < len(graph.tangible) < 200
    for marking in graph.tangible + graph.vanishing:
        for places, expected in SUBMODEL_TOKENS.items():
            assert sum(marking[p] for p in places) == expected


def test_hardware_submodel_contributes_two_local_states(model):
    net = av.build_server_srn(model.templates["dns"], model.policy)
    graph = srn.reachability(net)
    assert {m["P_hwup"] for m in graph.tangible} == {0, 1}


def test_four_distinct_server_nets(model):
    rates = {t: av.aggregate_rates(tpl, model.policy)
             for t, tpl in model.templates.items()}
    assert len({round(r.mu_eq, 5) for r in rates.values()}) == 4


def test_failure_free_net_is_pure_patch_cycle(model):
    net = av.build_server_srn(no_failures(model.templates["dns"]), model.policy)
    graph = srn.reachability(net)
    # clock wait + 4 timed patch stages (service patch, OS patch,
    # OS reboot, service reboot)
    assert len(graph.tangible) == 5


def test_aggregate_rates_dns_worked_example(model, rates):
    dns = rates["dns"]
    assert dns.lambda_eq == pytest.approx(1 / 720)
    assert dns.mu_eq == pytest.approx(1.49992, rel=1e-4)

    net = av.build_server_srn(model.templates["dns"], model.policy)
    sol = srn.solve(net)
    p_pd = sol.probability(
        lambda m: any(m[p] == 1 for p in ("P_svcrtp", "P_svcp", "P_svcrrb")))
    p_prrb = sol.probability(
        lambda m: m["P_svcrrb"] == 1 and m["P_hwup"] == 1 and m["P_osup"] == 1)
    assert p_prrb == pytest.approx(0.00011563, rel=1e-3)
    assert p_pd == pytest.approx(0.00092506, rel=1e-3)
    assert p_prrb / p_pd == pytest.approx(0.125, abs=0.002)


@pytest.mark.parametrize("tier,mttr,mu", [
    ("dns", 0.6667, 1.49992),
    ("web", 0.5834, 1.71420),
    ("app", 1.0001, 0.99995),
    ("db", 0.9167, 1.09085),
])
def test_aggregated_rates_table(rates, tier, mttr, mu):
    assert rates[tier].mttp == pytest.approx(720.0)
    assert rates[tier].mttr == pytest.approx(mttr, rel=0.01)
    assert rates[tier].mu_eq == pytest.approx(mu, rel=0.01)


def test_series_stage_identity_without_failures(model):
    for tpl in model.templates.values():
        agg = av.aggregate_rates(no_failures(tpl), model.policy)
        stage_sum_hours = (tpl.svc_patch_mean + tpl.os_patch_mean +
                           tpl.os_reboot_after_patch +
                           tpl.svc_reboot_after_patch) / 60.0
        assert agg.mttr == pytest.approx(stage_sum_hours, rel=1e-12)
        assert agg.lambda_eq == pytest.approx(1 / 720)


FAILURE_FIELDS = ("hw_mttf", "os_mttf", "svc_mttf")


def override_grid(model, infinite=((), FAILURE_FIELDS)):
    """(template, policy) pairs over every tier with patch-stage means,
    failure means and the patch interval varied; each entry of
    ``infinite`` lists the failure means set to infinity."""
    grid = []
    for tpl, scale, interval, fields in itertools.product(
            model.templates.values(), (0.5, 1.0, 3.0), (168.0, 720.0), infinite):
        varied = dataclasses.replace(
            tpl, svc_patch_mean=tpl.svc_patch_mean * scale,
            os_reboot_after_patch=tpl.os_reboot_after_patch / scale,
            hw_mttf=tpl.hw_mttf * scale, svc_mttf=tpl.svc_mttf / scale)
        varied = dataclasses.replace(varied, **{field: math.inf for field in fields})
        grid.append((varied, PatchPolicy(interval_mean=interval)))
    return grid


def fresh_rates(template, policy):
    """``aggregate_rates`` through one ``srn.solve`` of the server net."""
    sol = srn.solve(av.build_server_srn(template, policy))
    p_pd = sol.probability(
        lambda m: any(m[p] == 1 for p in ("P_svcrtp", "P_svcp", "P_svcrrb")))
    p_prrb = sol.probability(
        lambda m: m["P_svcrrb"] == 1 and m["P_hwup"] == 1 and m["P_osup"] == 1)
    return av.AggregatedRates(
        lambda_eq=1.0 / policy.interval_mean,
        mu_eq=template.rate_per_hour("svc_reboot_after_patch") * p_prrb / p_pd)


def test_rate_override_grid_explores_each_variant_once(model, monkeypatch):
    # the grid's nets differ only in their rates, apart from the failure
    # arcs: one exploration with them and one without
    monkeypatch.setattr(av, "_EXPLORED", {})
    explored = []
    reachability = srn.reachability
    monkeypatch.setattr(srn, "reachability",
                        lambda net, **kw: explored.append(net) or reachability(net, **kw))
    grid = override_grid(model)
    for template, policy in grid:
        av.aggregate_rates(template, policy)
    assert len(grid) == 48
    assert sorted(len(net.transitions) for net in explored) == [21, 24]
    assert len(av._EXPLORED) == 2


def test_store_plans_each_variant_once(model, monkeypatch):
    # the symbolic phase of the state reduction runs once per explored
    # graph, and every later call solves the stored graph, plan and all,
    # with its own rates: the stock server net reduces in 69 updates, the
    # failure-free one in 4
    monkeypatch.setattr(av, "_EXPLORED", {})
    planned = []
    plan = srn._plan
    monkeypatch.setattr(srn, "_plan", lambda pairs, n: planned.append(n) or plan(pairs, n))
    for template, policy in override_grid(model):
        av.aggregate_rates(template, policy)
    assert len(planned) == len(av._EXPLORED) == 2
    assert {variant: graph.chain.plan.updates
            for variant, (graph, *_) in av._EXPLORED.items()} == {(): 69, FAILURE_FIELDS: 4}


def test_rerated_rates_equal_a_fresh_solve(model, monkeypatch):
    # every one of the 8 variants, each solved from the store for most of
    # its entries: the same floats, to the last bit, as solving each net from scratch
    monkeypatch.setattr(av, "_EXPLORED", {})
    infinite = [fields for k in range(4) for fields in itertools.combinations(FAILURE_FIELDS, k)]
    for template, policy in override_grid(model, infinite):
        stored, fresh = av.aggregate_rates(template, policy), fresh_rates(template, policy)
        assert (stored.lambda_eq.hex(), stored.mu_eq.hex()) == \
            (fresh.lambda_eq.hex(), fresh.mu_eq.hex())
    assert len(av._EXPLORED) == 8


def test_store_hit_builds_no_net(model, monkeypatch):
    # a call whose variant is stored binds its rates to the stored
    # parameters: over the grid, the server net is parsed and built once
    # per variant
    monkeypatch.setattr(av, "_EXPLORED", {})
    built, parsed = [], []
    init, parse = srn.Net.__init__, netfile.parse_net
    monkeypatch.setattr(srn.Net, "__init__", lambda net: built.append(net) or init(net))
    monkeypatch.setattr(netfile, "parse_net",
                        lambda text, params=None: parsed.append(text) or parse(text, params))
    for template, policy in override_grid(model):
        av.aggregate_rates(template, policy)
    assert len(parsed) == len(built) == len(av._EXPLORED) == 2


# mu_eq of each bundled tier, stock and with every MTTF infinite, to the
# last bit: a change to the server net file or its binding shows here
@pytest.mark.parametrize("tier, stock, failure_free", [
    ("dns", "0x1.7ffa2b4fd7ec6p+0", "0x1.8000000000000p+0"),
    ("web", "0x1.b6d536ffbc4adp+0", "0x1.b6db6db6db6dbp+0"),
    ("app", "0x1.fff82a044f9f7p-1", "0x1.fffffffffffffp-1"),
    ("db", "0x1.17416086a390fp+0", "0x1.1745d1745d174p+0"),
])
def test_bundled_mu_eq_is_pinned(model, tier, stock, failure_free):
    template = model.templates[tier]
    assert [av.aggregate_rates(tpl, model.policy).mu_eq.hex()
            for tpl in (template, no_failures(template))] == [stock, failure_free]


def test_server_net_takes_its_rates_as_parameters(model):
    # every timed rate of the file is a bound parameter, so a store hit can
    # bind every one afresh; a failure rate bound to 0 leaves its arc out
    doc = av.server_document(model.templates["dns"], model.policy)
    timed = [t.name for t in doc.net.transitions if t.timed]
    assert sorted(doc.parameters) == sorted(timed) and len(timed) == 13
    assert set(doc.parameters.values()) == set(av._rates(model.templates["dns"], model.policy))
    failure_free = av.server_document(no_failures(model.templates["dns"]), model.policy)
    assert {t.name for t in doc.net.transitions} - \
        {t.name for t in failure_free.net.transitions} == {"T_hwd", "T_osfd", "T_svcfd"}


def test_failure_perturbation_below_one_percent(model, rates):
    for tier, tpl in model.templates.items():
        series = av.aggregate_rates(no_failures(tpl), model.policy)
        assert abs(rates[tier].mu_eq - series.mu_eq) / series.mu_eq < 0.01


def test_network_srn_marking_dependent_rates(model, rates):
    net = av.build_network_srn(model.designs["base"], rates)
    m0 = net.initial_marking()
    by_name = {t.name: t for t in net.transitions}
    assert by_name["T_dnsd"].rate.value(m0) == pytest.approx(rates["dns"].lambda_eq)
    assert by_name["T_webd"].rate.value(m0) == pytest.approx(2 * rates["web"].lambda_eq)
    assert by_name["T_appd"].rate.value(m0) == pytest.approx(2 * rates["app"].lambda_eq)
    assert by_name["T_dbd"].rate.value(m0) == pytest.approx(rates["db"].lambda_eq)


def test_network_srn_state_counts(model, rates):
    graph = srn.reachability(av.build_network_srn(model.designs[BASELINE], rates))
    assert len(graph.tangible) == 16
    graph = srn.reachability(
        av.build_network_srn(model.designs["2dns-1web-1app-1db"], rates))
    assert len(graph.tangible) == 24
    graph = srn.reachability(av.build_network_srn(model.designs["base"], rates))
    assert len(graph.tangible) == 36


def test_network_token_conservation(model, rates):
    design = model.designs["base"]
    graph = srn.reachability(av.build_network_srn(design, rates))
    for marking in graph.tangible:
        for tier, count in design.counts:
            assert marking[f"P_{tier}up"] + marking[f"P_{tier}down"] == count


def test_coa_reward_clauses(model, rates):
    design = model.designs["base"]
    net = av.build_network_srn(design, rates)
    reward = av.coa_reward(design)

    counts = dict(design.counts)

    def marking(dns, web, app, db):
        return net.marking([dns, counts["dns"] - dns,
                            web, counts["web"] - web,
                            app, counts["app"] - app,
                            db, counts["db"] - db])

    assert reward(marking(1, 2, 2, 1)) == pytest.approx(1.0)
    assert reward(marking(1, 1, 2, 1)) == pytest.approx(5 / 6)
    assert reward(marking(1, 2, 1, 1)) == pytest.approx(5 / 6)
    assert reward(marking(1, 1, 1, 1)) == pytest.approx(4 / 6)
    assert reward(marking(0, 2, 2, 1)) == 0.0


def test_compute_coa_base_design(model, rates):
    assert av.compute_coa(model.designs["base"], rates) == \
        pytest.approx(0.99707, abs=1e-4)


def _product_form(design, rates):
    """The product-form COA, one tier after another, with every factor
    computed where it is used."""
    covered, weighted = 1.0, 0.0
    for tier, count in design.counts:
        agg = rates[tier]
        p_any_up = 1.0 - (agg.lambda_eq / (agg.lambda_eq + agg.mu_eq)) ** count
        weighted = weighted * p_any_up + count * agg.availability * covered
        covered *= p_any_up
    return weighted / design.total


def test_design_set_coa_matches_each_design_bit_for_bit(model, rates):
    # the per-tier tables of a design set give each design the same bits
    # as the design alone, and as the product form evaluated in place
    tiers = tuple(rates)
    designs = [DesignSpec(f"g{i}", tuple(zip(tiers, counts))) for i, counts in
               enumerate(itertools.product((1, 2, 3, 7), repeat=len(tiers)))]
    designs += list(model.designs.values())
    together = av.compute_coas(designs, rates)
    assert [c.hex() for c in together] == [av.compute_coa(d, rates).hex() for d in designs]
    assert [c.hex() for c in together] == [_product_form(d, rates).hex() for d in designs]
    assert av.compute_coas([], rates) == []


def test_compute_coa_baseline_is_product_of_availabilities(model, rates):
    expected = 1.0
    for tier in ("dns", "web", "app", "db"):
        expected *= rates[tier].availability
    assert av.compute_coa(model.designs[BASELINE], rates) == \
        pytest.approx(expected, rel=1e-9)


def test_coa_approaches_one_without_patching(model, rates):
    slow = {t: av.AggregatedRates(lambda_eq=1e-12, mu_eq=r.mu_eq)
            for t, r in rates.items()}
    assert av.compute_coa(model.designs["base"], slow) == pytest.approx(1.0, abs=1e-8)


TIERS = ("dns", "web", "app", "db")


def test_closed_form_matches_srn_for_all_designs(model, rates):
    per_tier = [DesignSpec(f"{n}-per-tier", tuple((t, n) for t in TIERS))
                for n in range(1, 7)]
    cases = [(d, rates) for d in [*model.designs.values(), *per_tier]]
    # one tier (the product over the other tiers is empty) ...
    cases += [(DesignSpec(f"{n}app", (("app", n),)), rates) for n in range(1, 7)]
    # ... and six tiers, 3^6 = 729 network states
    six = {**rates, "lb": av.AggregatedRates(lambda_eq=1 / 360, mu_eq=2.0),
           "cache": av.AggregatedRates(lambda_eq=1 / 1000, mu_eq=0.8)}
    cases.append((DesignSpec("six-tiers", tuple((t, 2) for t in six)), six))
    for design, tier_rates in cases:
        analytic = av.compute_coa(design, tier_rates)
        oracle = flat_srn_coa(design, tier_rates)
        assert abs(analytic - oracle) <= 1e-12, design.label


def test_closed_form_app_redundant_value(model, rates):
    coa = av.compute_coa(model.designs["1dns-1web-2app-1db"], rates)
    assert coa == pytest.approx(0.99644, abs=1e-4)


def test_coa_monotone_in_redundancy(model, rates):
    base = av.compute_coa(model.designs[BASELINE], rates)
    for label in COMPARISON_LABELS:
        if label == BASELINE:
            continue
        assert av.compute_coa(model.designs[label], rates) > base


def test_duplicating_slowest_recovery_tier_wins(model, rates):
    slowest = min(rates, key=lambda t: rates[t].mu_eq)
    assert slowest == "app"
    coas = {label: av.compute_coa(model.designs[label], rates)
            for label in COMPARISON_LABELS if label != BASELINE}
    assert max(coas, key=coas.get) == "1dns-1web-2app-1db"


@settings(max_examples=40, deadline=None)
@given(counts=st.tuples(*[st.integers(1, 4)] * len(TIERS)),
       lambdas=st.tuples(*[st.floats(1e-4, 1.0)] * len(TIERS)),
       mus=st.tuples(*[st.floats(0.05, 10.0)] * len(TIERS)))
def test_compute_coa_matches_closed_form_on_random_designs(counts, lambdas, mus):
    design = DesignSpec("random", tuple(zip(TIERS, counts)))
    rates = {t: av.AggregatedRates(lambda_eq=lam, mu_eq=mu)
             for t, lam, mu in zip(TIERS, lambdas, mus)}
    assert abs(av.compute_coa(design, rates)
               - flat_srn_coa(design, rates)) <= 1e-12


@pytest.mark.parametrize("field", ["lambda_eq", "mu_eq"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_compute_coa_rejects_bad_rates(model, rates, field, bad):
    broken = dict(rates)
    broken["web"] = dataclasses.replace(rates["web"], **{field: bad})
    with pytest.raises(ValueError, match=f"'web': {field} must"):
        av.compute_coa(model.designs["base"], broken)
