from itertools import product

import numpy as np
import pytest

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


def test_unbounded_net_detected():
    net = srn.Net()
    net.add_place("a", 1)
    net.add_timed("t", 1.0, [], ["a"])
    with pytest.raises(srn.UnboundedNet):
        srn.reachability(net, token_cap=5)


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
    probs = sorted(p for p, _ in graph.immediate_edges[0])
    assert probs == [0.25, 0.75]
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
    assert sol.pi.tolist() == [1.0]


def test_symmetric_two_state_chain():
    sol = srn.solve(two_state_net(0.3, 0.3))
    assert np.allclose(sol.pi, [0.5, 0.5])


def test_steady_state_residual_and_normalization():
    sol = srn.solve(two_state_net())
    assert sol.residual <= 1e-10
    assert abs(sol.pi.sum() - 1.0) <= 1e-12


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
            transitions = (net.enabled_immediates(m)
                           or [t for t in net.enabled_timed(m)])
            for t in transitions:
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
    for i, edges in enumerate(graph.timed_edges):
        for rate, (kind, j) in edges:
            r[kind][i, j] += rate
    for i, edges in enumerate(graph.immediate_edges):
        for prob, (kind, j) in edges:
            p[kind][i, j] += prob
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


def test_non_finite_solution_rejected(monkeypatch):
    # a singular solve comes back as NaN, which compares False with any
    # tolerance; it must not pass as a solution
    monkeypatch.setattr(srn, "spsolve", lambda a, b: np.full(len(b), np.nan))
    with pytest.raises(srn.SrnError, match="steady-state.*2 tangible states"):
        srn.solve(two_state_net())


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
