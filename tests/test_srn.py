import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.csgraph import connected_components
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import build_small_net, small_nets
from patchdesign import availability, srn
from patchdesign.guards import parse_guard


def two_state_net(lam=0.00139, mu=1.49992):
    net = srn.Net()
    net.add_place("up", 1)
    net.add_place("down", 0)
    net.add_timed("fail", lam, ["up"], ["down"])
    net.add_timed("repair", mu, ["down"], ["up"])
    return net


def test_two_place_cycle_reachability():
    graph = srn.reachability(two_state_net())
    assert len(graph.tangible) == 2
    assert len(graph.vanishing) == 0


def test_no_transitions_fixed_point():
    net = srn.Net()
    net.add_place("p", 1)
    graph = srn.reachability(net)
    assert len(graph.tangible) == 1
    assert graph.tangible[0]["p"] == 1


def test_token_pool_product_space():
    # independent per-tier pools: state count is the product of (N_t + 1)
    net = srn.Net()
    for tier, n in [("a", 1), ("b", 2), ("c", 2), ("d", 1)]:
        net.add_place(f"{tier}_up", n)
        net.add_place(f"{tier}_dn", 0)
        net.add_timed(f"{tier}_d", srn.RateExpr(0.01, f"{tier}_up"),
                      [f"{tier}_up"], [f"{tier}_dn"])
        net.add_timed(f"{tier}_u", srn.RateExpr(1.0, f"{tier}_dn"),
                      [f"{tier}_dn"], [f"{tier}_up"])
    graph = srn.reachability(net)
    assert len(graph.tangible) == 2 * 3 * 3 * 2


def test_state_cap():
    net = srn.Net()
    net.add_place("a", 3)
    net.add_place("b", 0)
    net.add_timed("t", 1.0, ["a"], ["b"])
    with pytest.raises(srn.StateCapExceeded):
        srn.reachability(net, state_cap=2)


@pytest.mark.parametrize("cap", [0, -5])
def test_state_cap_below_one_is_rejected(cap):
    net = srn.Net()
    net.add_place("a", 1)
    with pytest.raises(ValueError, match="state cap"):
        srn.reachability(net, state_cap=cap)


def test_unbounded_net_without_token_cap_hits_state_cap():
    # the state cap is what stops an unbounded net
    net = srn.Net()
    net.add_place("a", 0)
    net.add_timed("grow", 1.0, [], ["a"])
    with pytest.raises(srn.StateCapExceeded):
        srn.reachability(net, state_cap=50)


def test_immediate_weight_split():
    # two conflicting immediates, weights 1 and 3 -> 0.25 / 0.75
    net = srn.Net()
    net.add_place("src", 0)
    net.add_place("left", 0)
    net.add_place("right", 0)
    net.add_place("tick", 1)
    net.add_timed("go", 1.0, ["tick"], ["src"])
    net.add_immediate("i1", ["src"], ["left"], weight=1.0)
    net.add_immediate("i2", ["src"], ["right"], weight=3.0)
    net.add_timed("back_l", 5.0, ["left"], ["tick"])
    net.add_timed("back_r", 5.0, ["right"], ["tick"])
    graph = srn.reachability(net)
    assert len(graph.vanishing) == 1
    assert graph.immediate.source == [0, 0]
    assert sorted(graph.immediate.value) == [0.25, 0.75]
    # occupancy of left vs right reflects the split
    sol = srn.steady_state(srn.eliminate_vanishing(graph), graph.tangible)
    p_left = sol.probability(lambda m: m["left"] == 1)
    p_right = sol.probability(lambda m: m["right"] == 1)
    assert p_right == pytest.approx(3 * p_left, rel=1e-9)


def test_priority_precedes_weight():
    net = srn.Net()
    net.add_place("src", 0)
    net.add_place("left", 0)
    net.add_place("right", 0)
    net.add_place("tick", 1)
    net.add_timed("go", 1.0, ["tick"], ["src"])
    net.add_immediate("low", ["src"], ["left"], weight=100.0, priority=0)
    net.add_immediate("high", ["src"], ["right"], weight=1.0, priority=1)
    net.add_timed("back", 1.0, ["right"], ["tick"])
    graph = srn.reachability(net)
    assert len(graph.tangible) == 2  # "left" never marked
    assert all(m["left"] == 0 for m in graph.tangible)


def test_timeless_trap():
    net = srn.Net()
    net.add_place("a", 1)
    net.add_place("b", 0)
    net.add_immediate("ab", ["a"], ["b"])
    net.add_immediate("ba", ["b"], ["a"])
    graph = srn.reachability(net)
    with pytest.raises(srn.TimelessTrap):
        srn.eliminate_vanishing(graph)


def test_timeless_trap_names_only_trapped_markings():
    # from tick, "a" enters a two-marking trap and "c" escapes through d
    net = srn.Net()
    for place, tokens in [("tick", 1), ("a", 0), ("b", 0), ("c", 0), ("d", 0)]:
        net.add_place(place, tokens)
    net.add_timed("go_a", 1.0, ["tick"], ["a"])
    net.add_timed("go_c", 1.0, ["tick"], ["c"])
    net.add_immediate("ab", ["a"], ["b"])
    net.add_immediate("ba", ["b"], ["a"])
    net.add_immediate("cd", ["c"], ["d"])
    net.add_timed("back", 1.0, ["d"], ["tick"])
    graph = srn.reachability(net)
    assert len(graph.vanishing) == 3
    with pytest.raises(srn.TimelessTrap) as trap:
        srn.eliminate_vanishing(graph)
    assert sorted(map(str, trap.value.markings)) == ["{a:1}", "{b:1}"]


def test_repeated_input_place_sums_multiplicities():
    # ['a', 'a'] needs two tokens in a, like {'a': 2}; with one token the
    # transition is disabled instead of driving a to -1
    for inputs in (["a", "a"], {"a": 2}, [("a", 1), ("a", 1)], [("a", 2)]):
        net = srn.Net()
        net.add_place("a", 1)
        net.add_place("b", 0)
        net.add_timed("t", 1.0, inputs, ["b"])
        assert net.transitions[0].inputs == (("a", 2),)
        graph = srn.reachability(net)
        assert [str(m) for m in graph.tangible] == ["{a:1}"]


def test_repeated_output_place_sums_multiplicities():
    net = srn.Net()
    net.add_place("a", 2)
    net.add_place("b", 0)
    net.add_timed("t", 1.0, ["a", "a"], ["b", ("b", 2)])
    net.add_timed("back", 1.0, {"b": 3}, [("a", 2)])
    graph = srn.reachability(net)
    assert sorted(str(m) for m in graph.tangible) == ["{a:2}", "{b:3}"]
    assert all(min(m.counts) >= 0 for m in graph.tangible)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_rate_constant_must_be_positive_and_finite(bad):
    # a NaN rate used to be accepted and silently disable the transition
    net = srn.Net()
    net.add_place("a", 1)
    for rate in (bad, srn.RateExpr(bad), srn.RateExpr(bad, "a")):
        with pytest.raises(ValueError, match="'t': rate constant must be positive and finite"):
            net.add_timed("t", rate, ["a"], [])
    assert net.transitions == []


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_weight_must_be_positive_and_finite(bad):
    # a NaN weight used to give NaN branching probabilities
    net = srn.Net()
    net.add_place("a", 1)
    with pytest.raises(ValueError, match="'i': weight must be positive and finite"):
        net.add_immediate("i", ["a"], [], weight=bad)
    assert net.transitions == []


def test_nonpositive_repeated_arc_rejected():
    net = srn.Net()
    net.add_place("a", 1)
    with pytest.raises(ValueError, match="nonpositive arc multiplicity"):
        net.add_timed("t", 1.0, [("a", 2), ("a", 0)], [])


def test_vanishing_marking_absent_from_tangible_set():
    # immediate trigger marking is eliminated entirely
    net = srn.Net()
    net.add_place("wait", 1)
    net.add_place("trig", 0)
    net.add_place("work", 0)
    net.add_timed("tick", 0.01, ["wait"], ["trig"])
    net.add_immediate("start", ["trig"], ["work"])
    net.add_timed("done", 2.0, ["work"], ["wait"])
    graph = srn.reachability(net)
    assert len(graph.vanishing) == 1
    assert all(m["trig"] == 0 for m in graph.tangible)
    q = srn.eliminate_vanishing(graph)
    assert q.shape == (2, 2)


def test_two_state_steady_state_closed_form():
    lam, mu = 0.00139, 1.49992
    sol = srn.solve(two_state_net(lam, mu))
    p_up = sol.probability(lambda m: m["up"] == 1)
    assert p_up == pytest.approx(mu / (lam + mu), rel=1e-12)
    assert p_up == pytest.approx(0.999074, abs=5e-7)


def test_single_state_chain():
    net = srn.Net()
    net.add_place("p", 1)
    sol = srn.solve(net)
    assert sol.pi == [1.0]


def test_symmetric_two_state_chain():
    sol = srn.solve(two_state_net(0.3, 0.3))
    assert np.allclose(sol.pi, [0.5, 0.5])


def test_steady_state_residual_and_normalization():
    sol = srn.solve(two_state_net())
    assert sol.residual <= 1e-10
    assert abs(sum(sol.pi) - 1.0) <= 1e-12


def test_reducible_chain_rejected():
    import scipy.sparse as sp
    q = sp.csr_matrix(np.array([[-1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(srn.ReducibleChain):
        srn.steady_state(q)


def test_expected_reward_normalization():
    sol = srn.solve(two_state_net())
    assert srn.expected_reward(sol, lambda m: 1.0) == pytest.approx(1.0)


def test_expected_reward_indicator():
    lam, mu = 0.00139, 1.49992
    sol = srn.solve(two_state_net(lam, mu))
    up = srn.expected_reward(sol, lambda m: float(m["up"] == 1))
    assert up == pytest.approx(mu / (lam + mu), rel=1e-12)


def test_guarded_transition_blocks_firing():
    net = srn.Net()
    net.add_place("a", 1)
    net.add_place("b", 0)
    net.add_place("flag", 0)
    net.add_timed("t", 1.0, ["a"], ["b"], guard=parse_guard("#flag == 1"))
    graph = srn.reachability(net)
    assert len(graph.tangible) == 1


def test_enabled_timed_pairs_each_rate_evaluated_once(monkeypatch):
    net = srn.Net()
    net.add_place("a", 1)
    net.add_place("b", 0)
    net.add_timed("by_b", srn.RateExpr(3.0, "b"), ["a"], ["b"])
    net.add_timed("fixed", 0.5, ["a"], ["b"])
    net.add_timed("blocked", 1.0, ["b"], ["a"])
    calls = []
    value = srn.RateExpr.value
    monkeypatch.setattr(srn.RateExpr, "value",
                        lambda self, m: calls.append(self) or value(self, m))
    # by_b has its tokens but rate 3 * #b = 0, so it is not enabled
    m = net.initial_marking()
    vanishing, step = net.branches(m)
    assert not vanishing
    assert [(t.name, rate) for t, rate in step] == [("fixed", 0.5)]
    assert len(calls) == 2
    m = net.marking((1, 2))
    assert [(t.name, rate) for t, rate in net.branches(m)[1]] == \
        [("by_b", 6.0), ("fixed", 0.5), ("blocked", 1.0)]
    calls.clear()
    graph = srn.reachability(net)
    timed = graph.timed
    # fixed from (1, 0) to (0, 1), blocked back
    assert timed.source == [0, 1]
    assert timed.target == [1, 0]
    assert timed.into_vanishing == [False, False]
    assert timed.value == [0.5, 1.0]
    # by_b and fixed in (1, 0), blocked in (0, 1): one evaluation each
    assert len(calls) == 3


def _brute_force_markings(net, token_cap):
    """Fixpoint enumeration over the full marking universe."""
    places = net.places
    universe = [net.marking(c) for c in product(range(token_cap + 1),
                                                repeat=len(places))]
    reachable = {net.initial_marking().counts}
    changed = True
    while changed:
        changed = False
        for m in universe:
            if m.counts not in reachable:
                continue
            for t, _ in net.branches(m)[1]:
                counts = net.fire(t, m).counts
                if counts not in reachable:
                    reachable.add(counts)
                    changed = True
    return reachable


@pytest.mark.parametrize("with_immediates", [False, True])
def test_reachability_matches_brute_force(with_immediates):
    net = srn.Net()
    net.add_place("a", 2)
    net.add_place("b", 0)
    net.add_place("c", 0)
    net.add_timed("ab", 1.0, ["a"], ["b"])
    net.add_timed("ca", 0.5, ["c"], ["a"])
    if with_immediates:
        net.add_immediate("bc", ["b"], ["c"], guard=parse_guard("#a == 0"))
        net.add_timed("bc_slow", 0.1, ["b"], ["c"], guard=parse_guard("#a > 0"))
    else:
        net.add_timed("bc", 2.0, ["b"], ["c"])
    graph = srn.reachability(net)
    explored = {m.counts for m in graph.tangible} | {m.counts for m in graph.vanishing}
    assert explored == _brute_force_markings(net, token_cap=2)


def test_product_form_of_independent_components():
    # steady state of two independent cycles equals the product of the
    # per-component closed forms
    net = srn.Net()
    for name, lam, mu in [("x", 0.2, 1.0), ("y", 0.05, 2.0)]:
        net.add_place(f"{name}_up", 1)
        net.add_place(f"{name}_dn", 0)
        net.add_timed(f"{name}_d", lam, [f"{name}_up"], [f"{name}_dn"])
        net.add_timed(f"{name}_u", mu, [f"{name}_dn"], [f"{name}_up"])
    sol = srn.solve(net)
    ax = 1.0 / (1.0 + 0.2)
    ay = 2.0 / (2.0 + 0.05)
    both_up = sol.probability(lambda m: m["x_up"] == 1 and m["y_up"] == 1)
    assert both_up == pytest.approx(ax * ay, rel=1e-12)


def _dense_generator(graph):
    """Dense reference Q = R_TT + R_TV (I - P_VV)^-1 P_VT, diagonal set
    to minus the off-diagonal row sums."""
    nt, nv = len(graph.tangible), len(graph.vanishing)
    r = {"T": np.zeros((nt, nt)), "V": np.zeros((nt, nv))}
    p = {"T": np.zeros((nv, nt)), "V": np.zeros((nv, nv))}
    for blocks, edges in ((r, graph.timed), (p, graph.immediate)):
        for i, j, into_v, value in zip(edges.source, edges.target,
                                       edges.into_vanishing, edges.value):
            blocks["V" if into_v else "T"][i, j] += value
    q = r["T"] + r["V"] @ np.linalg.solve(np.eye(nv) - p["V"], p["T"])
    np.fill_diagonal(q, 0.0)
    return q - np.diag(q.sum(axis=1))


def chained_immediates_net():
    # timed edges into two vanishing markings that branch into each other
    # (a <-> b) before escaping to a tangible one
    net = srn.Net()
    for place, tokens in [("tick", 1), ("a", 0), ("b", 0), ("left", 0), ("right", 0)]:
        net.add_place(place, tokens)
    net.add_timed("go_a", 1.0, ["tick"], ["a"])
    net.add_timed("go_b", 0.5, ["tick"], ["b"])
    net.add_immediate("ab", ["a"], ["b"], weight=1.0)
    net.add_immediate("a_left", ["a"], ["left"], weight=1.0)
    net.add_immediate("ba", ["b"], ["a"], weight=1.0)
    net.add_immediate("b_right", ["b"], ["right"], weight=2.0)
    net.add_timed("back_l", 5.0, ["left"], ["tick"])
    net.add_timed("back_r", 3.0, ["right"], ["tick"])
    return net


@pytest.mark.parametrize("make_net", [
    lambda model: availability.build_server_srn(model.templates["app"], model.policy),
    lambda model: chained_immediates_net(),
], ids=["server", "chained"])
def test_elimination_matches_dense_reference(model, make_net):
    graph = srn.reachability(make_net(model))
    assert graph.vanishing
    q = srn.eliminate_vanishing(graph).toarray()
    ref = _dense_generator(graph)
    assert np.max(np.abs(q - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(q.sum(axis=1))) <= 1e-12 * np.max(np.abs(ref))


def pool_net(units, fail=0.5, repair=2.0):
    """``units`` independent repairable units, all up at the start: a
    birth-death chain over units + 1 markings."""
    net = srn.Net()
    net.add_place("up", units)
    net.add_place("down", 0)
    net.add_timed("fail", srn.RateExpr(fail, "up"), ["up"], ["down"])
    net.add_timed("repair", srn.RateExpr(repair, "down"), ["down"], ["up"])
    return net


# a budget that puts a pool of up to BUDGET units on the state reduction
# and a larger one on the sparse LU: the update count of a birth-death
# chain is its number of units
BUDGET = 127


@pytest.fixture
def small_budget(monkeypatch):
    monkeypatch.setattr(srn, "GTH_UPDATES", BUDGET)


def _nan_solution(a, b, **_):
    return np.full(len(b), np.nan)


def _nan_reduction(chain, g):
    return [math.nan] * chain.n


@pytest.mark.parametrize("units, module, name, fake", [
    (1, srn, "_gth_kernel", _nan_reduction),
    (BUDGET + 1, scipy.sparse.linalg, "spsolve", _nan_solution),
], ids=["gth", "sparse"])
def test_non_finite_solution_rejected(monkeypatch, small_budget, units, module, name, fake):
    # a singular solve comes back as NaN, which compares False with any
    # tolerance; it must not pass as a solution from either kernel
    monkeypatch.setattr(module, name, fake)
    with pytest.raises(srn.SrnError, match=f"steady-state.*{units + 1} tangible states"):
        srn.solve(pool_net(units))


@pytest.mark.parametrize("units", [1, BUDGET + 1], ids=["gth", "sparse"])
def test_exactly_singular_solve_rejected(monkeypatch, small_budget, units):
    # the rates out of the last state stay in the pattern but are zero, so
    # the pattern is strongly connected and the system singular.  Each
    # kernel's signal of that, a zero exit rate in the state reduction
    # and a rank warning from the sparse LU, ends in the one singular
    # verdict, naming the stage and the state count
    q = srn.eliminate_vanishing(srn.reachability(pool_net(units))).tocoo()
    q.data[q.row == units] = 0.0
    monkeypatch.setattr(srn, "_sparse_kernel" if units <= BUDGET else "_gth_kernel", None)
    with pytest.raises(srn.SrnError, match=f"failed at {units + 1} tangible states: "
                                           "the pinned system is singular"):
        srn.steady_state(q)


@pytest.mark.parametrize("states", [BUDGET + 1, BUDGET + 2, 201])
def test_pool_solves_on_both_sides_of_the_dense_threshold(monkeypatch, small_budget, states):
    # the units are independent, so the number up is binomial; the kernel
    # that the update budget does not pick must not run.  Every unit
    # starts up, a marking of probability 0.8^units (near 4e-20 at 201
    # states), so each kernel must find every state to a small relative
    # error: the state reduction never subtracts, the sparse LU re-pins
    units, fail, repair = states - 1, 0.5, 2.0
    unused = "_sparse_kernel" if units <= BUDGET else "_gth_kernel"
    monkeypatch.setattr(srn, unused, None)
    sol = srn.solve(pool_net(units, fail, repair))
    assert len(sol.states) == states
    p_up = repair / (fail + repair)
    for m, p in zip(sol.states, sol.pi):
        k = m["up"]
        exact = math.comb(units, k) * p_up ** k * (1 - p_up) ** (units - k)
        assert abs(p - exact) <= 1e-12
        assert abs(p - exact) <= 1e-9 * exact, (k, p, exact)
    assert sol.residual <= srn.RESIDUAL_TOLERANCE


@pytest.mark.parametrize("states", [BUDGET + 1, BUDGET + 2])
def test_both_kernels_sum_duplicate_triplets(monkeypatch, small_budget, states):
    # the generator of pool_net(states - 1) as COO triplets, with every
    # other off-diagonal entry and every third diagonal one given in two
    # parts; each kernel must add the parts up
    units, fail, repair = states - 1, 0.5, 2.0
    triplets = []

    def add(i, j, value, split):
        parts = (0.25 * value, 0.75 * value) if split else (value,)
        triplets.extend((i, j, part) for part in parts)

    for k in range(states):  # k units up
        add(k, k, -(fail * k + repair * (units - k)), k % 3 == 0)
        if k:
            add(k, k - 1, fail * k, k % 2 == 0)
        if k < units:
            add(k, k + 1, repair * (units - k), k % 2 == 1)
    rows, cols, values = zip(*triplets)
    q = scipy.sparse.coo_matrix((values, (rows, cols)), shape=(states, states))
    assert q.nnz > 3 * states - 2
    unused = "_sparse_kernel" if units <= BUDGET else "_gth_kernel"
    monkeypatch.setattr(srn, unused, None)
    sol = srn.steady_state(q)
    p_up = repair / (fail + repair)
    for k, p in enumerate(sol.pi):
        assert abs(p - math.comb(units, k) * p_up ** k * (1 - p_up) ** (units - k)) <= 1e-12
    assert sol.residual <= srn.RESIDUAL_TOLERANCE


@pytest.mark.parametrize("units", [srn.GTH_UPDATES, srn.GTH_UPDATES + 1])
def test_update_budget_selects_the_kernel(units):
    # at the budget itself: a birth-death chain of n states takes n - 1
    # updates, so the pool of GTH_UPDATES units is reduced and one more
    # unit sends it to the sparse LU; both find the binomial pi, with
    # one unit down on average
    fail, repair = 1.0 / units, 1.0
    graph = srn.reachability(pool_net(units, fail, repair))
    assert (graph.chain.plan is None) == (units > srn.GTH_UPDATES)
    if graph.chain.plan:
        assert graph.chain.plan.updates == units
    sol = srn.solve_graph(graph)
    log_up, log_down = math.log(repair / (fail + repair)), math.log(fail / (fail + repair))
    for m, p in zip(sol.states, sol.pi):
        k = m["down"]
        exact = math.exp(math.lgamma(units + 1) - math.lgamma(k + 1) - math.lgamma(units - k + 1)
                         + k * log_down + (units - k) * log_up)
        assert math.isclose(p, exact, rel_tol=1e-9, abs_tol=1e-15), (k, p, exact)


def test_state_reduction_plan_is_shared_by_rerated_graphs(model):
    # the symbolic phase runs once per explored graph: a re-rated copy
    # keeps its chain, and the server nets reduce in 104 updates
    graph = srn.reachability(availability.build_server_srn(model.templates["dns"],
                                                           model.policy))
    rerated = srn.rerate(graph, [2.0 * c for c in
                                 availability.build_server_srn(model.templates["dns"],
                                                               model.policy).constants()])
    assert rerated.chain is graph.chain
    assert graph.chain.plan.updates == 104


def test_residual_is_relative_to_generator_scale():
    # rates of order 1e12: an absolute residual of rounding size exceeds
    # any fixed tolerance, the residual relative to ||Q|| does not
    net = srn.Net()
    net.add_place("free", 4)
    net.add_place("busy", 0)
    net.add_timed("take", srn.RateExpr(3.1e12, "free"), ["free"], ["busy"])
    net.add_timed("give", srn.RateExpr(7.3e12, "busy"), ["busy"], ["free"])
    sol = srn.solve(net)
    assert sol.residual <= 1e-10
    p_free = 7.3 / (3.1 + 7.3)
    all_free = sol.probability(lambda m: m["free"] == 4)
    assert all_free == pytest.approx(p_free ** 4, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(spec=small_nets())
# p3 -> p0 enters a vanishing marking that branches to p1 (vanishing, then
# p2) or straight back to p3; p2 has a timed self-loop
@example(spec=((0, 0, 0, 1), ((False, 3, 0, 1.0, False, 0, None),
                              (True, 0, 1, 1.0, False, 0, None),
                              (True, 0, 3, 1.0, False, 0, None),
                              (True, 1, 2, 1.0, False, 0, None),
                              (False, 2, 2, 0.5, False, 0, None),
                              (False, 2, 3, 1.0, False, 0, None))))
def test_assembly_matches_dense_reference(spec):
    # small nets with immediates, priorities, guards, timed self-loops and
    # duplicate edges
    graph = srn.reachability(build_small_net(spec))
    q = srn.eliminate_vanishing(graph)
    ref = _dense_generator(graph)
    assert np.max(np.abs(q.toarray() - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert q.nnz == np.count_nonzero(q.toarray())
    try:
        sol = srn.steady_state(q)
    except srn.ReducibleChain:
        return
    n = len(graph.tangible)
    # pi Q = 0 and sum(pi) = 1, stacked and solved densely
    system = np.vstack([ref.T, np.ones(n)])
    pi = np.linalg.lstsq(system, np.append(np.zeros(n), 1.0), rcond=None)[0]
    assert np.max(np.abs(sol.pi - pi)) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(spec=small_nets())
# the initial marking (p0) is vanishing and never entered again, so it is
# no state of the chain; p3 is vanishing and entered from p2
@example(spec=((1, 0, 0, 0), ((True, 0, 1, 1.0, False, 0, None),
                              (True, 0, 2, 2.0, False, 0, None),
                              (False, 1, 2, 1.0, False, 0, None),
                              (False, 2, 3, 0.5, False, 0, None),
                              (True, 3, 1, 1.0, False, 0, None))))
def test_solve_matches_dense_reference(spec):
    # the chain that keeps the vanishing markings has the tangible steady
    # state of the reduced generator, and fails where the reduced chain fails
    net = build_small_net(spec)
    graph = srn.reachability(net)
    try:
        srn.steady_state(srn.eliminate_vanishing(graph))
    except srn.SrnError as expected:
        with pytest.raises(srn.SrnError) as raised:
            srn.solve(net)
        assert type(raised.value) is type(expected)
        return
    sol = srn.solve(net)
    n = len(graph.tangible)
    system = np.vstack([_dense_generator(graph).T, np.ones(n)])
    pi = np.linalg.lstsq(system, np.append(np.zeros(n), 1.0), rcond=None)[0]
    assert sol.states == graph.tangible
    assert np.max(np.abs(sol.pi - pi)) <= 1e-10


# about 7 in 10 small nets are reducible or have one tangible state, so
# Hypothesis's early check that few inputs are filtered out would fail
# about one run in 50 (seed 46 does) although no assertion fails
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(spec=small_nets())
def test_dense_and_sparse_kernels_agree(spec):
    # the state reduction and the sparse LU on the same chain, whatever its
    # size: the chain's plan is dropped to send it to the sparse LU;
    # _solve_pinned calls neither on a single tangible state
    graph = srn.reachability(build_small_net(spec))
    chain = graph.chain
    assume(len(graph.tangible) > 1 and not chain.trapped and not chain.components)
    data = srn._chain_data(graph)
    assert chain.plan is not None
    solutions = []
    for planned, unused in ((chain, "_sparse_kernel"), (chain._replace(plan=None), "_gth_kernel")):
        with mock.patch.object(srn, unused, None):
            solutions.append(srn._solve_pinned(planned, data, graph.tangible))
    dense, sparse = (np.array(sol.pi) for sol in solutions)
    dense_residual, sparse_residual = (sol.residual for sol in solutions)
    assert np.max(np.abs(dense - sparse)) <= 1e-12
    assert max(dense_residual, sparse_residual) <= srn.RESIDUAL_TOLERANCE


@settings(max_examples=200, deadline=None)
@given(spec=small_nets())
def test_connectivity_walk_matches_scipy_components(spec):
    # a chain is judged strongly connected by walks from state 0;
    # scipy's components are the reference
    graph = srn.reachability(build_small_net(spec))
    chain = graph.chain
    ncomp, labels = connected_components(
        scipy.sparse.csr_matrix((np.ones(len(chain.rows)), (chain.rows, chain.cols)),
                                shape=(chain.n, chain.n)),
        directed=True, connection="strong")
    groups = (np.nonzero(labels[:len(graph.tangible)] == c)[0].tolist()
              for c in range(ncomp))
    assert chain.components == ([] if ncomp == 1 else [g for g in groups if g])


def _branch_values(net, graph):
    """Every edge value read off ``Net.branches``: the rate of a timed
    branch, the weight over its marking's weight sum for an immediate one."""
    values = {}
    for name, markings in (("timed", graph.tangible), ("immediate", graph.vanishing)):
        values[name] = []
        for m in markings:
            vanishing, step = net.branches(m)
            total = sum(w for _, w in step) if vanishing else 1.0
            values[name] += [w / total for _, w in step]
    return values


_EDGE_FIELDS = ("source", "target", "into_vanishing", "transition", "factor", "value")


@settings(max_examples=200, deadline=None)
@given(spec=small_nets(), data=st.data())
def test_rerate_matches_fresh_exploration(spec, data):
    # the graph of one net re-rated with another net's constants and
    # weights equals the graph explored from the other net
    tokens, transitions = spec
    constants = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=len(transitions),
                                   max_size=len(transitions)))
    other = build_small_net((tokens, tuple(t[:3] + (c,) + t[4:]
                                           for t, c in zip(transitions, constants))))
    rerated = srn.rerate(srn.reachability(build_small_net(spec)), other.constants())
    fresh = srn.reachability(other)
    assert rerated.tangible == fresh.tangible
    assert rerated.vanishing == fresh.vanishing
    expected = _branch_values(other, fresh)
    for name in ("timed", "immediate"):
        a, b = getattr(rerated, name), getattr(fresh, name)
        for field in _EDGE_FIELDS:
            assert getattr(a, field) == getattr(b, field), (name, field)
        assert a.value == expected[name]
    try:
        q = srn.eliminate_vanishing(rerated)
    except srn.TimelessTrap:
        with pytest.raises(srn.TimelessTrap):
            srn.eliminate_vanishing(fresh)
        return
    q_fresh = srn.eliminate_vanishing(fresh)
    for attr in ("indptr", "indices", "data"):
        assert getattr(q, attr).tolist() == getattr(q_fresh, attr).tolist()
