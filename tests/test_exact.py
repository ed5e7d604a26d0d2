"""Exact-arithmetic oracle for the steady-state solve.

Rate constants and weights are binary floats, so they are exact
``Fraction``s, and the chain they define has an exact stationary vector.
The oracle finds it by another method than the solve's state reduction:
the reduced generator Q = R_TT + R_TV (I - P_VV)^-1 P_VT over the
tangible markings, formed in ``Fraction``s, then Gauss-Jordan
elimination on pi Q = 0 with sum(pi) = 1.

The same arithmetic certifies the answer the paper asks for: each
bundled design's ASP and COA, and whether it meets a bound set, against
exact values from the exact mu_eq and the instance paths.
"""

import math
from fractions import Fraction

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import build_small_net, small_nets
from patchdesign import availability, harm, srn
from patchdesign.evaluate import Evaluator, accepts
from patchdesign.model import (Bounds, PatchPolicy, ServerTemplate, _FAILURE_FIELDS,
                               _SERVER_FIELD_KEYS)


def _gauss_jordan(a: list, b: list) -> list:
    """X with A X = B, for a nonsingular square A and a block B, both as
    lists of rows of Fractions."""
    n = len(a)
    m = [row_a + row_b for row_a, row_b in zip(a, b)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if m[r][c])
        m[c], m[pivot] = m[pivot], m[c]
        top = m[c][c]
        m[c] = [v / top for v in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [v - f * w for v, w in zip(m[r], m[c])]
    return [row[n:] for row in m]


def exact_pi(net: srn.Net, graph: srn.ReachabilityGraph) -> list:
    """The exact stationary vector over ``graph.tangible`` of the net's
    chain, from its constants as Fractions."""
    constants = [Fraction(c) for c in net.constants()]
    nt, nv = len(graph.tangible), len(graph.vanishing)
    r_t = [[Fraction(0)] * nt for _ in range(nt)]
    r_v = [[Fraction(0)] * nv for _ in range(nt)]
    timed = graph.timed
    for i, j, into_v, k, f in zip(timed.source, timed.target, timed.into_vanishing,
                                   timed.transition, timed.factor):
        (r_v if into_v else r_t)[i][j] += constants[k] * f
    p_t = [[Fraction(0)] * nt for _ in range(nv)]
    i_minus_p_v = [[Fraction(int(i == j)) for j in range(nv)] for i in range(nv)]
    immediate = graph.immediate
    weights = [constants[k] * f for k, f in zip(immediate.transition, immediate.factor)]
    totals = [sum(w for i, w in zip(immediate.source, weights) if i == v) for v in range(nv)]
    for i, j, into_v, w in zip(immediate.source, immediate.target,
                               immediate.into_vanishing, weights):
        if into_v:
            i_minus_p_v[i][j] -= w / totals[i]
        else:
            p_t[i][j] += w / totals[i]
    absorbed = _gauss_jordan(i_minus_p_v, p_t) if nv else []
    q = [[r_t[i][j] + sum(r_v[i][v] * absorbed[v][j] for v in range(nv) if r_v[i][v])
          for j in range(nt)] for i in range(nt)]
    for i in range(nt):
        q[i][i] = -sum(q[i][j] for j in range(nt) if j != i)
    # pi Q = 0 as Q^T pi^T = 0, its last equation replaced by sum(pi) = 1
    system = [[q[i][j] for i in range(nt)] for j in range(nt - 1)] + [[Fraction(1)] * nt]
    return [row[0] for row in _gauss_jordan(system, [[Fraction(0)]] * (nt - 1) + [[Fraction(1)]])]


def exact_mu_eq(template: ServerTemplate, policy: PatchPolicy) -> Fraction:
    """``aggregate_rates``' mu_eq from the exact stationary vector."""
    net = availability.build_server_srn(template, policy)
    graph = srn.reachability(net)
    pi = exact_pi(net, graph)
    p_patch_down = sum(p for m, p in zip(graph.tangible, pi) if availability._patch_down(m))
    p_reboot_ready = sum(p for m, p in zip(graph.tangible, pi)
                         if availability._reboot_ready(m))
    beta_svc = Fraction(template.rate_per_hour("svc_reboot_after_patch"))
    return beta_svc * p_reboot_ready / p_patch_down


def _assert_mu_eq_exact(template, policy):
    mu_eq = availability.aggregate_rates(template, policy).mu_eq
    exact = exact_mu_eq(template, policy)
    assert abs(Fraction(mu_eq) - exact) <= Fraction(1e-13) * exact, (mu_eq, float(exact))


def test_bundled_server_nets_match_exact(model):
    # mu_eq, and every entry of pi to a small relative error: a pinned
    # dense LU was 2.8e-11 off, relatively, on the dns net
    for template in model.templates.values():
        _assert_mu_eq_exact(template, model.policy)
        net = availability.build_server_srn(template, model.policy)
        graph = srn.reachability(net)
        pi = srn.solve_graph(graph).pi
        for p, exact in zip(pi, exact_pi(net, graph)):
            assert abs(Fraction(p) - exact) <= Fraction(1e-14) * exact


# every duration over eight decades, in its field's unit; an MTTF may
# also be infinite, which leaves its failure arc out
_DURATION = st.floats(-2.0, 6.0).map(lambda e: 10.0 ** e)


@st.composite
def server_templates(draw):
    fields = {name: draw(_DURATION | st.just(math.inf) if name in _FAILURE_FIELDS
                         else _DURATION)
              for name in sorted(_SERVER_FIELD_KEYS)}
    return ServerTemplate(tier="drawn", attack_tree=None, **fields), \
        PatchPolicy(interval_mean=draw(_DURATION))


@settings(max_examples=10, deadline=None)
@given(drawn=server_templates())
def test_drawn_mu_eq_matches_exact(drawn):
    _assert_mu_eq_exact(*drawn)


# about 7 in 10 small nets are reducible or have one tangible state
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(spec=small_nets())
# p3 -> p0 enters a vanishing marking that branches to p1 (vanishing, then
# p2) or straight back to p3; p2 has a timed self-loop
@example(spec=((0, 0, 0, 1), ((False, 3, 0, 1.0, False, 0, None),
                              (True, 0, 1, 1.0, False, 0, None),
                              (True, 0, 3, 1.0, False, 0, None),
                              (True, 1, 2, 1.0, False, 0, None),
                              (False, 2, 2, 0.5, False, 0, None),
                              (False, 2, 3, 1.0, False, 0, None))))
def test_small_net_pi_matches_exact(spec):
    net = build_small_net(spec)
    graph = srn.reachability(net)
    try:
        sol = srn.solve_graph(graph)
    except srn.SrnError:
        assume(False)
    assume(len(sol.states) > 1)
    exact = exact_pi(net, graph)
    assert max(abs(Fraction(p) - e) for p, e in zip(sol.pi, exact)) <= Fraction(1e-14)


def exact_coa(design, mu_eq: dict, lambda_eq: Fraction) -> Fraction:
    """``compute_coa``'s product form in Fractions:
    (1/N) sum_i n_i a_i prod_{j != i} (1 - (1 - a_j)^n_j)."""
    a = {tier: mu / (lambda_eq + mu) for tier, mu in mu_eq.items()}
    any_up = {tier: 1 - (1 - a[tier]) ** n for tier, n in design.counts}
    return sum(n * a[tier] * math.prod(any_up[t] for t, _ in design.counts if t != tier)
               for tier, n in design.counts) / design.total


def exact_tree_probability(node) -> Fraction:
    """``harm.tree_probability`` in Fractions."""
    if node.kind == "leaf":
        return Fraction(node.vulnerability.attack_success_prob)
    children = [exact_tree_probability(c) for c in node.children]
    return math.prod(children) if node.kind == "and" else max(children)


def exact_asp(harm_obj) -> Fraction:
    """The noisy-OR of the enumerated instance paths, in Fractions."""
    tier_prob = {t: exact_tree_probability(tree)
                 for t, tree in harm_obj.trees.items() if tree is not None}
    miss = math.prod(1 - math.prod(tier_prob[inst.tier] for inst in path)
                     for path in harm.enumerate_attack_paths(harm_obj))
    return 1 - Fraction(miss)


# the paper's two regions, (phi, psi), as the command line tests use them
REGIONS = ((0.2, 0.9962), (0.1, 0.9961))


def test_bundled_verdicts_are_certified(model):
    # every bundled design's float ASP and COA within 1e-13 relative of
    # their exact values, and its verdict for each region the exact one
    mu_eq = {tier: exact_mu_eq(template, model.policy)
             for tier, template in model.templates.items()}
    lambda_eq = 1 / Fraction(model.policy.interval_mean)
    designs = list(model.designs.values())
    for patched in (True, False):
        for design, e in zip(designs, Evaluator(model, patched).evaluate_all(designs)):
            asp = exact_asp(harm.build_harm(design, model.templates, model.reachability,
                                            patched, model.policy))
            coa = exact_coa(design, mu_eq, lambda_eq)
            assert abs(Fraction(e.metrics.asp) - asp) <= Fraction(1e-13) * asp, design.label
            assert abs(Fraction(e.coa) - coa) <= Fraction(1e-13) * coa, design.label
            for phi, psi in REGIONS:
                exact = asp <= Fraction(phi) and coa >= Fraction(psi)
                assert accepts(e, Bounds(asp_upper=phi, coa_lower=psi)) == exact, \
                    (design.label, patched, phi, psi)
