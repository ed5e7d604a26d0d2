"""Availability models: per-server patch/failure SRN, rate aggregation,
and capacity-oriented availability (COA) over replica pools.

The server net is the net file ``SERVER_NET``, read by ``netfile`` like
any other: four single-token sub-models (hardware, OS, service, patch
clock), whose patch cycle runs clock tick -> service ready to patch ->
service patch -> OS patch -> merged reboot (OS, then service), with the
clock frozen while the patch is in flight.  Each timed rate names a
parameter that ``_rates`` binds to the rate per hour of the
``ServerTemplate`` mean of that name, or to 1 / ``interval_mean``; an
infinite MTTF binds 0, which leaves its failure arc out.  The
aggregation collapses the net into a two-state (up / down-by-patch)
abstraction per server through the file's ``patch_down`` and
``reboot_ready`` rewards.  COA is the reward of the network SRN, one
token pool per tier.  The pools share nothing, so ``compute_coas``
evaluates it in product form for a set of designs, from each tier's
factors computed once per replica count; ``compute_coa`` is its
one-design slice, and the flat net is kept as the test oracle.

``aggregate_rates`` keeps one explored graph per set of left-out failure
arcs, at most 2^3 = 8 for the life of the process, and parses the file
only when a call misses its variant; every call solves the stored graph
(``srn.solve_graph``) with the rates it binds as its constants, and
copies no graph.  This is sound because the graph holds no rate:
nothing of the net but its edge values depends on the rates, and
exploration depends on them only through their being positive and
finite, which ``ServerTemplate`` and ``PatchPolicy`` enforce for every
rate the net would check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from . import netfile, srn
from .model import _SERVER_FIELD_KEYS, DesignSpec, PatchPolicy, ServerTemplate

SERVER_NET = Path(__file__).parent / "data" / "server.net"


def _rates(template: ServerTemplate, policy: PatchPolicy) -> dict:
    """The server net's rate parameters, bound: each ``ServerTemplate``
    mean's rate per hour, and the patch clock's."""
    rates = {name: template.rate_per_hour(name) for name in _SERVER_FIELD_KEYS}
    rates["interval_mean"] = 1.0 / policy.interval_mean
    return rates


def server_document(template: ServerTemplate, policy: PatchPolicy) -> netfile.NetDocument:
    """``SERVER_NET`` parsed with the template's and the policy's rates
    bound: the server net and its rewards."""
    return netfile.parse_net(SERVER_NET.read_text(), _rates(template, policy))


def build_server_srn(template: ServerTemplate, policy: PatchPolicy) -> srn.Net:
    """Compose the hardware, OS, service and patch-clock sub-models."""
    return server_document(template, policy).net


# the parameters bound to 0 -> (explored graph, indices of the tangible markings
# where patch_down and reboot_ready hold, (parameter or None, constant) per transition)
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

    A call whose variant (its parameters bound to 0) is stored parses
    and builds nothing: it solves the stored graph afresh, with the
    rates it binds as the constants of their transitions.
    """
    rates = _rates(template, policy)
    variant = tuple(name for name, rate in rates.items() if rate == 0)
    if variant not in _EXPLORED:
        doc = server_document(template, policy)
        graph = srn.reachability(doc.net)
        selected = ([i for i, m in enumerate(graph.tangible) if doc.rewards[name](m)]
                    for name in ("patch_down", "reboot_ready"))
        keys = [doc.parameters.get(t.name) for t in doc.net.transitions]
        _EXPLORED[variant] = (graph, *selected, list(zip(keys, doc.net.constants())))
    graph, patch_down, reboot_ready, constants = _EXPLORED[variant]
    pi = srn.solve_graph(graph, [c if p is None else rates[p] for p, c in constants]).pi
    # summed in marking order, as SteadyStateSolution.probability sums
    p_down = sum([pi[i] for i in patch_down])
    p_ready = sum([pi[i] for i in reboot_ready])
    return AggregatedRates(
        lambda_eq=rates["interval_mean"],
        mu_eq=rates["svc_reboot_after_patch"] * p_ready / p_down,
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
