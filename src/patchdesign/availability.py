"""Availability models: per-server patch/failure SRN, rate aggregation,
and capacity-oriented availability (COA) over replica pools.

The server net composes four single-token sub-models (hardware, OS,
service, patch clock).  A patch cycle runs: clock tick -> service ready
to patch -> service patch -> OS patch -> merged reboot (OS, then
service), with the clock frozen while the patch is in flight.  The
aggregation collapses all of that into a two-state (up / down-by-patch)
abstraction per server.  COA is the reward of the network SRN, one token
pool per tier.  The pools share nothing, so ``compute_coas`` evaluates it
in product form for a set of designs, from each tier's factors computed
once per replica count; ``compute_coa`` is its one-design slice, and the
flat net is kept as the test oracle.

Server nets differ only in their rate constants, apart from the failure
arcs that an infinite MTTF leaves out.  ``aggregate_rates`` therefore
keeps one explored reachability graph per set of left-out failure arcs,
at most 2^3 = 8 for the life of the process.  Every call re-rates the
stored graph (``srn.rerate``) with the rate constants it reads from the
template and the policy through ``_SERVER_TRANSITIONS``, the table that
``build_server_srn`` builds from.  This is sound because the places, arcs, guards,
priorities and rate places are otherwise fixed, and exploration depends
on constants only through their being positive and finite, which
``ServerTemplate`` and ``PatchPolicy`` enforce for every rate the net
would check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import srn
from .guards import parse_guard
from .model import DesignSpec, PatchPolicy, ServerTemplate

# The server net's transitions, one row each: (name, rate, inputs,
# outputs, guard).  ``rate`` names the ServerTemplate mean whose reciprocal
# is the rate, "interval" for the patch clock, or is None for an immediate
# transition (weight 1).  ``guard`` is the guard text, or None for none.
# The order is the order of Net.transitions, which the stored graphs index.
_SERVER_TRANSITIONS = (
    # hardware: single up/down cycle
    ("T_hwd", "hw_mttf", ["P_hwup"], ["P_hwd"], None),
    ("T_hwup", "hw_mttr", ["P_hwd"], ["P_hwup"], None),
    # OS: up, down (by hw), failed, ready-to-patch, patched
    ("T_osd", None, ["P_osup"], ["P_osd"], "#P_hwd == 1"),
    ("T_osdrb", "os_reboot_after_failure", ["P_osd"], ["P_osup"], "#P_hwup == 1"),
    ("T_osfd", "os_mttf", ["P_osup"], ["P_osfd"], None),
    ("T_osfup", "os_mttr", ["P_osfd"], ["P_osup"], "#P_hwup == 1"),
    ("T_osptrig", None, ["P_osup"], ["P_osrtp"], "#P_svcp == 1"),
    ("T_osp", "os_patch_mean", ["P_osrtp"], ["P_osp"], "#P_hwup == 1"),
    ("T_osrpd", None, ["P_osrtp"], ["P_osd"], "#P_hwd == 1"),
    ("T_ospd", None, ["P_osp"], ["P_osd"], "#P_hwd == 1"),
    ("T_osprb", "os_reboot_after_patch", ["P_osp"], ["P_osup"], "#P_hwup == 1"),
    # service: up, down, failed, ready-to-patch, patched, ready-to-reboot
    ("T_svcd", None, ["P_svcup"], ["P_svcd"], "#P_hwd == 1 || #P_osfd == 1"),
    ("T_svcdrb", "svc_reboot_after_failure", ["P_svcd"], ["P_svcup"],
     "#P_hwup == 1 && #P_osup == 1"),
    ("T_svcfd", "svc_mttf", ["P_svcup"], ["P_svcfd"], None),
    ("T_svcfup", "svc_mttr", ["P_svcfd"], ["P_svcup"], "#P_hwup == 1 && #P_osup == 1"),
    ("T_svcptrig", None, ["P_svcup"], ["P_svcrtp"], "#P_trigger == 1"),
    ("T_svcp", "svc_patch_mean", ["P_svcrtp"], ["P_svcp"], "#P_hwup == 1 && #P_osup == 1"),
    ("T_svcrpd", None, ["P_svcrtp"], ["P_svcd"], "#P_hwd == 1 || #P_osfd == 1"),
    ("T_svcrrb", None, ["P_svcp"], ["P_svcrrb"], "#P_osp == 1"),
    ("T_svcrrbd", None, ["P_svcrrb"], ["P_svcd"], "#P_hwd == 1 || #P_osfd == 1"),
    ("T_svcprb", "svc_reboot_after_patch", ["P_svcrrb"], ["P_svcup"],
     "#P_hwup == 1 && #P_osup == 1"),
    # patch clock: armed, triggered, waiting for the cycle to finish
    ("T_interval", "interval", ["P_clock"], ["P_trigger"],
     "#P_svcup == 1 || #P_svcd == 1 || #P_svcfd == 1"),
    ("T_policy", None, ["P_trigger"], ["P_wait"], "#P_svcp == 1"),
    ("T_reset", None, ["P_wait"], ["P_clock"], "#P_osp == 1"),
)
# guard text -> guard, parsed once: every server net shares the immutable guards
_GUARDS = {guard: parse_guard(guard) for *_, guard in _SERVER_TRANSITIONS if guard}


def _server_transitions(template: ServerTemplate, policy: PatchPolicy) -> list:
    """The rows of the server net's transitions, each with its rate, or
    None for an immediate one.  An infinite MTTF means the failure arc
    never fires; it is left out, so the net degenerates to the pure
    patch cycle.  ``ServerTemplate`` and ``PatchPolicy`` keep every other
    rate positive and finite."""
    rows = []
    for name, mean, inputs, outputs, guard in _SERVER_TRANSITIONS:
        rate = None
        if mean == "interval":
            rate = 1.0 / policy.interval_mean
        elif mean is not None:
            rate = template.rate_per_hour(mean)
            if rate == 0:
                continue
        rows.append((name, rate, inputs, outputs, guard))
    return rows


def build_server_srn(template: ServerTemplate, policy: PatchPolicy) -> srn.Net:
    """Compose the hardware, OS, service and patch-clock sub-models."""
    net = srn.Net()
    # one token per sub-model; guards cross sub-model boundaries, so all
    # places are declared before any transition
    for p in ("P_hwup", "P_osup", "P_svcup", "P_clock"):
        net.add_place(p, 1)
    for p in ("P_hwd", "P_osd", "P_osfd", "P_osrtp", "P_osp",
              "P_svcd", "P_svcfd", "P_svcrtp", "P_svcp", "P_svcrrb",
              "P_trigger", "P_wait"):
        net.add_place(p, 0)
    for name, rate, inputs, outputs, text in _server_transitions(template, policy):
        guard = _GUARDS.get(text, srn.TRUE)
        if rate is None:
            net.add_immediate(name, inputs, outputs, guard=guard)
        else:
            net.add_timed(name, rate, inputs, outputs, guard=guard)
    return net


def _patch_down(m) -> bool:
    """The service is down because of the patch cycle."""
    return m["P_svcrtp"] == 1 or m["P_svcp"] == 1 or m["P_svcrrb"] == 1


def _reboot_ready(m) -> bool:
    """The final service reboot is enabled."""
    return m["P_svcrrb"] == 1 and m["P_hwup"] == 1 and m["P_osup"] == 1


# names of the transitions _server_transitions kept -> (explored graph,
# indices of the tangible markings where _patch_down and _reboot_ready hold)
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

    The net's structure is fixed apart from the failure arcs that an
    infinite MTTF leaves out, so one explored graph per such variant is
    kept for the life of the process; only a call that misses its variant
    builds and explores a net.  Every call reads the rate constants from
    the template and the policy through the same transition table as
    ``build_server_srn``, re-rates the stored graph with them and solves
    it afresh.  That is sound because ``ServerTemplate`` and
    ``PatchPolicy`` keep every rate the net would check positive and
    finite.
    """
    rows = _server_transitions(template, policy)
    variant = tuple(name for name, *_ in rows)
    if variant not in _EXPLORED:
        graph = srn.reachability(build_server_srn(template, policy))
        _EXPLORED[variant] = (
            graph, [i for i, m in enumerate(graph.tangible) if _patch_down(m)],
            [i for i, m in enumerate(graph.tangible) if _reboot_ready(m)])
    graph, patch_down, reboot_ready = _EXPLORED[variant]
    graph = srn.rerate(graph, [1.0 if rate is None else rate for _, rate, *_ in rows])
    pi = srn.solve_graph(graph).pi
    # summed in marking order, as SteadyStateSolution.probability sums
    p_patch_down = sum([pi[i] for i in patch_down])
    p_reboot_ready = sum([pi[i] for i in reboot_ready])
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
    return compute_coas([design], rates)[0]


def compute_coas(designs, rates: dict) -> list[float]:
    """``compute_coa`` of each design, in the order given.  Each tier's
    rates are checked once, and its factors 1 - (1 - a)^n and n * a are
    computed once for each replica count n that some design gives it."""
    used = {}  # tier -> the replica counts the designs give it
    for design in designs:
        for tier, count in design.counts:
            used.setdefault(tier, set()).add(count)
    factors = {}  # (tier, n) -> (1 - (1 - a)^n, n * a)
    for tier, counts in used.items():
        agg = rates[tier]
        for name in ("lambda_eq", "mu_eq"):
            rate = getattr(agg, name)
            if not (math.isfinite(rate) and rate > 0):
                raise ValueError(f"tier {tier!r}: {name} must be positive "
                                 f"and finite, got {rate!r}")
        down = agg.lambda_eq / (agg.lambda_eq + agg.mu_eq)
        for count in counts:
            factors[tier, count] = (1.0 - down ** count, count * agg.availability)
    coas = []
    for design in designs:
        covered, weighted, total = 1.0, 0.0, 0  # over the tiers seen so far
        for tier, count in design.counts:
            p_any_up, capacity = factors[tier, count]
            weighted = weighted * p_any_up + capacity * covered
            covered *= p_any_up
            total += count
        coas.append(weighted / total)
    return coas
