"""Availability models: per-server patch/failure SRN, rate aggregation,
and capacity-oriented availability (COA) over replica pools.

The server net composes four single-token sub-models (hardware, OS,
service, patch clock).  A patch cycle runs: clock tick -> service ready
to patch -> service patch -> OS patch -> merged reboot (OS, then
service), with the clock frozen while the patch is in flight.  The
aggregation collapses all of that into a two-state (up / down-by-patch)
abstraction per server.  COA is the reward of the network SRN, one token
pool per tier.  The pools share nothing, so ``compute_coa`` evaluates it
in product form; the flat net is kept as the test oracle.

Server nets differ only in their rate constants, apart from the failure
arcs that an infinite MTTF leaves out.  ``aggregate_rates`` therefore
keeps one explored reachability graph per set of left-out failure arcs,
at most 2^3 = 8 for the life of the process, and re-rates it with each
new net's constants (``srn.rerate``).  This is sound because the places,
arcs, guards, priorities and rate places are otherwise fixed, and
exploration depends on constants only through their being positive,
which ``srn.Net`` enforces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import srn
from .guards import parse_guard
from .model import DesignSpec, PatchPolicy, ServerTemplate

# Guards attached verbatim to the server sub-model transitions.
SERVER_GUARDS = {
    "T_osd": "#P_hwd == 1",
    "T_osdrb": "#P_hwup == 1",
    "T_osfup": "#P_hwup == 1",
    "T_osptrig": "#P_svcp == 1",
    "T_osp": "#P_hwup == 1",
    "T_osrpd": "#P_hwd == 1",
    "T_ospd": "#P_hwd == 1",
    "T_osprb": "#P_hwup == 1",
    "T_svcd": "#P_hwd == 1 || #P_osfd == 1",
    "T_svcdrb": "#P_hwup == 1 && #P_osup == 1",
    "T_svcfup": "#P_hwup == 1 && #P_osup == 1",
    "T_svcptrig": "#P_trigger == 1",
    "T_svcp": "#P_hwup == 1 && #P_osup == 1",
    "T_svcrpd": "#P_hwd == 1 || #P_osfd == 1",
    "T_svcrrb": "#P_osp == 1",
    "T_svcrrbd": "#P_hwd == 1 || #P_osfd == 1",
    "T_svcprb": "#P_hwup == 1 && #P_osup == 1",
    "T_interval": "#P_svcup == 1 || #P_svcd == 1 || #P_svcfd == 1",
    "T_policy": "#P_svcp == 1",
    "T_reset": "#P_osp == 1",
}
# parsed once: guards are immutable, so every server net shares them
_SERVER_GUARD_EXPRS = {name: parse_guard(text) for name, text in SERVER_GUARDS.items()}


def build_server_srn(template: ServerTemplate, policy: PatchPolicy) -> srn.Net:
    """Compose the hardware, OS, service and patch-clock sub-models."""
    g = _SERVER_GUARD_EXPRS
    r = template.rate_per_hour
    net = srn.Net()

    # one token per sub-model; guards cross sub-model boundaries, so all
    # places are declared before any transition
    for p in ("P_hwup", "P_osup", "P_svcup", "P_clock"):
        net.add_place(p, 1)
    for p in ("P_hwd", "P_osd", "P_osfd", "P_osrtp", "P_osp",
              "P_svcd", "P_svcfd", "P_svcrtp", "P_svcp", "P_svcrrb",
              "P_trigger", "P_wait"):
        net.add_place(p, 0)

    def add_failure(name, mean_field, inputs, outputs, **kw):
        # infinite MTTF means the failure arc never fires; omit it so the
        # net degenerates to the pure patch cycle
        rate = r(mean_field)
        if rate > 0:
            net.add_timed(name, rate, inputs, outputs, **kw)

    # hardware: single up/down cycle
    add_failure("T_hwd", "hw_mttf", ["P_hwup"], ["P_hwd"])
    net.add_timed("T_hwup", r("hw_mttr"), ["P_hwd"], ["P_hwup"])

    # OS: up, down (by hw), failed, ready-to-patch, patched
    net.add_immediate("T_osd", ["P_osup"], ["P_osd"], guard=g["T_osd"])
    net.add_timed("T_osdrb", r("os_reboot_after_failure"), ["P_osd"], ["P_osup"],
                  guard=g["T_osdrb"])
    add_failure("T_osfd", "os_mttf", ["P_osup"], ["P_osfd"])
    net.add_timed("T_osfup", r("os_mttr"), ["P_osfd"], ["P_osup"],
                  guard=g["T_osfup"])
    net.add_immediate("T_osptrig", ["P_osup"], ["P_osrtp"], guard=g["T_osptrig"])
    net.add_timed("T_osp", r("os_patch_mean"), ["P_osrtp"], ["P_osp"],
                  guard=g["T_osp"])
    net.add_immediate("T_osrpd", ["P_osrtp"], ["P_osd"], guard=g["T_osrpd"])
    net.add_immediate("T_ospd", ["P_osp"], ["P_osd"], guard=g["T_ospd"])
    net.add_timed("T_osprb", r("os_reboot_after_patch"), ["P_osp"], ["P_osup"],
                  guard=g["T_osprb"])

    # service: up, down, failed, ready-to-patch, patched, ready-to-reboot
    net.add_immediate("T_svcd", ["P_svcup"], ["P_svcd"], guard=g["T_svcd"])
    net.add_timed("T_svcdrb", r("svc_reboot_after_failure"), ["P_svcd"], ["P_svcup"],
                  guard=g["T_svcdrb"])
    add_failure("T_svcfd", "svc_mttf", ["P_svcup"], ["P_svcfd"])
    net.add_timed("T_svcfup", r("svc_mttr"), ["P_svcfd"], ["P_svcup"],
                  guard=g["T_svcfup"])
    net.add_immediate("T_svcptrig", ["P_svcup"], ["P_svcrtp"], guard=g["T_svcptrig"])
    net.add_timed("T_svcp", r("svc_patch_mean"), ["P_svcrtp"], ["P_svcp"],
                  guard=g["T_svcp"])
    net.add_immediate("T_svcrpd", ["P_svcrtp"], ["P_svcd"], guard=g["T_svcrpd"])
    net.add_immediate("T_svcrrb", ["P_svcp"], ["P_svcrrb"], guard=g["T_svcrrb"])
    net.add_immediate("T_svcrrbd", ["P_svcrrb"], ["P_svcd"], guard=g["T_svcrrbd"])
    net.add_timed("T_svcprb", r("svc_reboot_after_patch"), ["P_svcrrb"], ["P_svcup"],
                  guard=g["T_svcprb"])

    # patch clock: armed, triggered, waiting for the cycle to finish
    net.add_timed("T_interval", 1.0 / policy.interval_mean,
                  ["P_clock"], ["P_trigger"], guard=g["T_interval"])
    net.add_immediate("T_policy", ["P_trigger"], ["P_wait"], guard=g["T_policy"])
    net.add_immediate("T_reset", ["P_wait"], ["P_clock"], guard=g["T_reset"])
    return net


# failure arcs that build_server_srn leaves out at an infinite MTTF
_FAILURE_ARCS = frozenset({"T_hwd", "T_osfd", "T_svcfd"})


def _patch_down(m) -> bool:
    """The service is down because of the patch cycle."""
    return m["P_svcrtp"] == 1 or m["P_svcp"] == 1 or m["P_svcrrb"] == 1


def _reboot_ready(m) -> bool:
    """The final service reboot is enabled."""
    return m["P_svcrrb"] == 1 and m["P_hwup"] == 1 and m["P_osup"] == 1


# failure arcs left out -> (explored graph, indices of the tangible
# markings where _patch_down and _reboot_ready hold)
_EXPLORED: dict = {}


@dataclass(frozen=True)
class AggregatedRates:
    lambda_eq: float  # per hour
    mu_eq: float      # per hour

    @property
    def mttp(self) -> float:
        return 1.0 / self.lambda_eq

    @property
    def mttr(self) -> float:
        return 1.0 / self.mu_eq

    @property
    def availability(self) -> float:
        return self.mu_eq / (self.lambda_eq + self.mu_eq)


def aggregate_rates(template: ServerTemplate, policy: PatchPolicy) -> AggregatedRates:
    """Collapse a server net into equivalent patch and recovery rates.

    The patch rate is the clock rate itself.  The recovery rate is the
    service reboot rate scaled by the odds of being in the final reboot
    stage (reboot transition enabled) versus anywhere in the patch
    pipeline.

    Every call builds the net, so the template is validated, and solves
    it afresh; only the exploration is shared between nets of the same
    variant, with the tangible markings each probability sums over.
    """
    net = build_server_srn(template, policy)
    variant = _FAILURE_ARCS.difference(t.name for t in net.transitions)
    explored = _EXPLORED.get(variant)
    if explored is None:
        graph = srn.reachability(net)
        explored = _EXPLORED[variant] = (
            graph, [i for i, m in enumerate(graph.tangible) if _patch_down(m)],
            [i for i, m in enumerate(graph.tangible) if _reboot_ready(m)])
    else:
        graph = srn.rerate(explored[0], net)
    _, patch_down, reboot_ready = explored
    pi = srn.steady_state(srn.eliminate_vanishing(graph), graph.tangible).pi
    # summed in marking order, as SteadyStateSolution.probability sums
    p_patch_down = sum(pi[patch_down].tolist())
    p_reboot_ready = sum(pi[reboot_ready].tolist())
    beta_svc = template.rate_per_hour("svc_reboot_after_patch")
    return AggregatedRates(
        lambda_eq=1.0 / policy.interval_mean,
        mu_eq=beta_svc * p_reboot_ready / p_patch_down,
    )


def aggregate_all(templates: dict, policy: PatchPolicy) -> dict:
    """Aggregated rates for every tier."""
    return {tier: aggregate_rates(tpl, policy) for tier, tpl in templates.items()}


def build_network_srn(design: DesignSpec, rates: dict) -> srn.Net:
    """One token pool per tier, with marking-dependent patch/recovery."""
    net = srn.Net()
    for tier, count in design.counts:
        agg = rates[tier]
        up, down = f"P_{tier}up", f"P_{tier}down"
        net.add_place(up, count)
        net.add_place(down, 0)
        net.add_timed(f"T_{tier}d", srn.RateExpr(agg.lambda_eq, up), [up], [down])
        net.add_timed(f"T_{tier}up", srn.RateExpr(agg.mu_eq, down), [down], [up])
    return net


def coa_reward(design: DesignSpec):
    """Reward: running servers over total servers, zero once any tier is
    fully down."""
    total = design.total
    tiers = [t for t, _ in design.counts]

    def reward(marking) -> float:
        up = [marking[f"P_{t}up"] for t in tiers]
        if any(u == 0 for u in up):
            return 0.0
        return sum(up) / total

    return reward


def compute_coa(design: DesignSpec, rates: dict) -> float:
    """Capacity-oriented availability of a design, in product form:

        COA = (1/N) sum_i n_i a_i prod_{j != i} (1 - (1 - a_j)^n_j)

    over N servers, with a_i = mu_i/(lambda_i+mu_i).  This is the exact
    steady-state reward of ``build_network_srn`` under ``coa_reward``,
    1{every tier has a server up} * sum(up_i)/N: the tier pools share
    nothing, so the up counts are independent Binomial(n_i, a_i) and the
    expectation factorises.  The flat SRN is kept as the test oracle.
    Raises ValueError unless every lambda_eq and mu_eq is positive and finite.
    """
    covered, weighted = 1.0, 0.0  # both over the tiers seen so far
    for tier, count in design.counts:
        agg = rates[tier]
        for name in ("lambda_eq", "mu_eq"):
            rate = getattr(agg, name)
            if not (math.isfinite(rate) and rate > 0):
                raise ValueError(f"tier {tier!r}: {name} must be positive "
                                 f"and finite, got {rate!r}")
        p_any_up = 1.0 - (agg.lambda_eq / (agg.lambda_eq + agg.mu_eq)) ** count
        weighted = weighted * p_any_up + count * agg.availability * covered
        covered *= p_any_up
    return weighted / design.total
