"""Per-stage cost of the SRN chain solves, for two source trees.

Seven stages, each timed in its own fresh interpreter (``_pairs``), the
trees in alternating pairs:

- a store hit of ``availability.aggregate_rates`` on the bundled dns
  tier, stock and with every MTTF infinite (the two variants the
  ``server-nets`` workload solves), in microseconds per call;
- ``srn.Chain.of`` on the reachability graph of an M/M/4/K net, where
  ``start`` moves a waiting job to an idle server in zero time, in
  milliseconds;
- one ``srn.solve`` of that net with K / 10 and with K buffer slots, in
  a fresh interpreter, so with whatever it imports, in milliseconds;
- the two ``simulate.simulate_reward`` runs of the ``server-nets``
  workload, 12 000 h each of the bundled app tier with every MTTF
  infinite and of the stock web tier, both patched every 24 h on
  average, in milliseconds for the two;
- ``srn.solve_graph`` of the four bundled server nets over ``Fraction``
  constants, their graphs explored beforehand, in milliseconds for the
  four.

Prints a heading per stage, then the best and the median per tree.

    python scripts/chain_solves.py --pairs 10 OLD/src NEW/src
    python scripts/chain_solves.py --k 300 OLD/src NEW/src
"""

from __future__ import annotations

import sys
import time

from _pairs import alternate, parser, report, run_python

SERVERS = 4
CALLS, REPEATS = 200, 7  # store hits per timing, and timings per interpreter
CHILD = "--time-in-process"  # first argument of the timing interpreter
STAGES = {  # stage -> its heading, given k = K and small = K // 10
    "stock": "aggregate_rates store hit, stock server net, us per call",
    "failure-free": "aggregate_rates store hit, failure-free server net, us per call",
    "chain": "Chain.of on M/M/4/{k}, ms",
    "solve-small": "one srn.solve of M/M/4/{small}, fresh interpreter, ms",
    "solve": "one srn.solve of M/M/4/{k}, fresh interpreter, ms",
    "simulate": "simulate_reward, app failure-free and web server nets, 12000 h each, ms",
    "exact": "solve_graph over Fractions, the four bundled server nets, ms",
}
# the stage means and reboot times the server-nets simulations set, in hours
SIM_STAGES = {"svc_patch_mean": 10.0, "os_patch_mean": 20.0,
              "os_reboot_after_patch": 10.0, "svc_reboot_after_patch": 5.0}


def mmck_net(k: int):
    """M/M/4/k with arrival rate 2 and service rate 1 per busy server."""
    from patchdesign import srn

    net = srn.Net()
    net.add_place("free", k)
    net.add_place("wait", 0)
    net.add_place("idle", SERVERS)
    net.add_place("busy", 0)
    net.add_timed("arrive", 2.0, ["free"], ["wait"])
    net.add_immediate("start", ["wait", "idle"], ["busy"])
    net.add_timed("done", srn.RateExpr(1.0, "busy"), ["busy"], ["idle", "free"])
    return net


def stored(failure_free: bool) -> float:
    """Best microseconds per store hit of ``aggregate_rates``."""
    import dataclasses
    import math

    from patchdesign import availability, load_model
    from patchdesign.model import example_network_path

    model = load_model(example_network_path())
    template = model.templates["dns"]
    if failure_free:
        template = dataclasses.replace(template, hw_mttf=math.inf, os_mttf=math.inf,
                                       svc_mttf=math.inf)
    availability.aggregate_rates(template, model.policy)  # the store miss
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(CALLS):
            availability.aggregate_rates(template, model.policy)
        best = min(best, time.perf_counter() - start)
    return best / CALLS * 1e6


def chain(k: int) -> float:
    """Best milliseconds of ``Chain.of`` on the M/M/4/k graph."""
    from patchdesign import srn

    graph = srn.reachability(mmck_net(k))
    args = graph.vanishing, graph.timed, graph.immediate, len(graph.tangible)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        srn.Chain.of(*args)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def solve_once(k: int) -> float:
    """Milliseconds of the first ``srn.solve`` of the M/M/4/k net."""
    from patchdesign import srn

    net = mmck_net(k)
    start = time.perf_counter()
    srn.solve(net)
    return (time.perf_counter() - start) * 1e3


def simulations() -> float:
    """Best milliseconds of the two ``server-nets`` simulations."""
    import dataclasses
    import math

    from patchdesign import PatchPolicy, availability, load_model, simulate
    from patchdesign.model import example_network_path

    model = load_model(example_network_path())
    policy = PatchPolicy(interval_mean=24.0)
    infinite = dict(hw_mttf=math.inf, os_mttf=math.inf, svc_mttf=math.inf)
    nets = [availability.build_server_srn(
        dataclasses.replace(model.templates[tier], **SIM_STAGES, **more), policy)
        for tier, more in (("app", infinite), ("web", {}))]

    def service_up(m):
        return float(m["P_svcup"] == 1)

    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        for seed, net in enumerate(nets):
            simulate.simulate_reward(net, service_up, hours=12_000.0, seed=seed)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def exact_solves() -> float:
    """Best milliseconds of the four bundled server nets' solves over
    ``Fraction`` constants."""
    import math
    from fractions import Fraction

    from patchdesign import availability, load_model, srn
    from patchdesign.model import example_network_path

    model = load_model(example_network_path())
    solves = []
    for template in model.templates.values():
        net = availability.build_server_srn(template, model.policy)
        solves.append((srn.reachability(net), [Fraction(c) for c in net.constants()]))
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        for graph, constants in solves:
            srn.solve_graph(graph, constants)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def measure(stage: str, k: int) -> float:
    if stage in ("stock", "failure-free"):
        return stored(stage == "failure-free")
    if stage == "chain":
        return chain(k)
    if stage == "simulate":
        return simulations()
    if stage == "exact":
        return exact_solves()
    return solve_once(k // 10 if stage == "solve-small" else k)


def child_times(src: str, k: int) -> dict:
    """Each stage's time, each in a fresh interpreter on ``src``."""
    return {stage: float(run_python(src, [__file__, CHILD, stage, str(k)],
                                    capture_output=True, text=True).stdout)
            for stage in STAGES}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == [CHILD]:
        print(measure(argv[1], int(argv[2])))
        return 0
    p = parser(__doc__, pairs=5)
    p.add_argument("--k", type=int, default=3000,
                   help="buffer slots of the larger M/M/4/K net (at least 10)")
    args = p.parse_args(argv)
    if args.k < 10:
        p.error("--k must be at least 10")
    times = alternate(args.trees, args.pairs, lambda src: child_times(src, args.k))
    for stage, heading in STAGES.items():
        print(heading.format(k=args.k, small=args.k // 10) + ":")
        report({side: [t[stage] for t in runs] for side, runs in times.items()},
               "us" if stage in ("stock", "failure-free") else "ms", 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
