"""Seeded input generator: model files, rate-override grids, textual nets.

``generate(workload, seed, outdir, seconds)`` writes every input of one
workload run into ``outdir`` and returns its manifest (also written as
``manifest.json``).  The same (workload, seed, seconds) always gives the
same files.  The seed moves rates, probabilities, impacts and bounds; it
never moves the amount of work (grid sizes, graph shapes, replica counts,
simulated horizons), so that run time does not depend on the seed.

Run as a script to inspect the inputs of one run:

    python3 bench/gen.py design-sweep 7 .bench_work/inputs
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE = ROOT / "src" / "patchdesign" / "data" / "example_network.json"
FOUR_TIERS = ("dns", "web", "app", "db")
PATCH_STAGE_KEYS = ("svc_patch_minutes", "os_patch_minutes",
                    "os_reboot_after_patch_minutes", "svc_reboot_after_patch_minutes")
INF = float("inf")

# design-sweep: replicas 1..N per tier
SWEEP_GRID = {"dns": 3, "web": 3, "app": 3, "db": 3}
# the bound set that exposes the dropped xi bound; seed-independent
XI_ONLY_BOUNDS = {"phi": 1.0, "psi": 0.0, "xi": 12}


# compute_coa seconds per rung on the reference machine (README)
RUNG_COST_S = {4: 0.18, 5: 0.42, 6: 1.29, 7: 4.09, 8: 12.1}
LADDER_MIN_ROUNDS = 10


def ladder_rungs(seconds: int) -> list[int]:
    """Replicas per tier of each rung: n=4 up to the largest rung for which
    LADDER_MIN_ROUNDS whole rounds fit in the run (at least n=5)."""
    top = 5
    for n in sorted(RUNG_COST_S):
        if n > top and LADDER_MIN_ROUNDS * sum(RUNG_COST_S[k] for k in range(4, n + 1)) <= seconds:
            top = n
    return list(range(4, top + 1))


def _four_tier_doc(rng: random.Random) -> dict:
    """The bundled 4-tier model with seeded patch-stage means, patch
    interval, and probabilities/impacts of the non-critical
    vulnerabilities.  Net structure and tree shapes are unchanged."""
    doc = json.loads(EXAMPLE.read_text())
    for v in doc["vulnerabilities"]:
        if not v["critical"]:
            v["probability"] = round(rng.uniform(0.2, 0.6), 4)
            v["impact"] = round(rng.uniform(1.0, 10.0), 2)
    for tier in FOUR_TIERS:
        server = doc["servers"][tier]
        for key in PATCH_STAGE_KEYS:
            server[key] = round(server[key] * rng.uniform(0.5, 2.0), 3)
    doc["patch_policy"] = {"interval_hours": round(rng.uniform(360.0, 1080.0), 2)}
    return doc


def _split_between(values, q):
    """A threshold between two adjacent distinct values near quantile q."""
    vals = sorted(set(values))
    i = min(max(int(q * len(vals)), 1), len(vals) - 1)
    return (vals[i - 1] + vals[i]) / 2.0


def _design_sweep(rng, out: Path, seconds: int) -> dict:
    doc = _four_tier_doc(rng)
    doc["designs"] = {
        "d" + "".join(map(str, c)): dict(zip(FOUR_TIERS, c))
        for c in itertools.product(*(range(1, SWEEP_GRID[t] + 1) for t in FOUR_TIERS))
    }
    # Bounds sit between adjacent design values, so every region is a
    # proper subset.  COA is approximated with the failure-free outage,
    # which is close enough to split the designs.
    interval = doc["patch_policy"]["interval_hours"]
    avail = [interval / (interval + oracles.failure_free_mttr_hours(doc["servers"][t]))
             for t in FOUR_TIERS]
    asp, coa = [], []
    for counts in doc["designs"].values():
        asp.append(oracles.security_metrics(doc, counts, patched=True)["asp"])
        coa.append(oracles.coa([counts[t] for t in FOUR_TIERS], avail))
    bounds = [
        {"phi": _split_between(asp, rng.uniform(0.3, 0.7)),
         "psi": _split_between(coa, rng.uniform(0.3, 0.7))},
        {"phi": _split_between(asp, rng.uniform(0.7, 0.9)),
         "psi": _split_between(coa, rng.uniform(0.1, 0.3))},
        {"phi": _split_between(asp, rng.uniform(0.6, 0.9)),
         "psi": _split_between(coa, rng.uniform(0.1, 0.4)),
         "xi": rng.randint(10, 20), "omega": rng.randint(4, 24), "kappa": rng.randint(2, 4)},
        dict(XI_ONLY_BOUNDS),
    ]
    (out / "model.json").write_text(json.dumps(doc, indent=1))
    return {"model": "model.json", "bounds": bounds, "known_fault_bounds": [3]}


def _replica_ladder(rng, out: Path, seconds: int) -> dict:
    doc = _four_tier_doc(rng)
    rungs = ladder_rungs(seconds)
    doc["designs"] = {f"n{n}": {t: n for t in FOUR_TIERS} for n in rungs}
    (out / "model.json").write_text(json.dumps(doc, indent=1))
    return {"model": "model.json", "designs": [f"n{n}" for n in rungs]}


def _mmck_net(lam, mu, c, k) -> str:
    lines = [f"# M/M/{c}/{k}: free buffer slots, waiting jobs, idle and busy servers",
             f"place free {k}", "place wait 0", f"place idle {c}", "place busy 0",
             f"timed arrive rate={lam!r} in=free out=wait",
             "immediate start in=wait,idle out=busy",
             f"timed done rate={mu!r}*#busy in=busy out=idle,free"]
    lines += [f'reward L "#free == {j}" = {k - j}' for j in range(k)]
    lines.append('reward block "#free == 0" = 1')
    return "\n".join(lines) + "\n"


# A generator bounded only by its guard; solvable as a 4-state chain.
GENERATOR_NET = {"lam": 1.0, "mu": 2.0, "cap": 3}


def _generator_net(lam, mu, cap) -> str:
    lines = ["# guard-bounded generator feeding one server",
             "place src 1", "place buf 0",
             f'timed gen rate={lam!r} guard="#buf < {cap}" in=src out=src,buf',
             f"timed serve rate={mu!r} in=buf"]
    lines += [f'reward L "#buf == {j}" = {j}' for j in range(1, cap + 1)]
    return "\n".join(lines) + "\n"


def _server_nets(rng, out: Path, seconds: int) -> dict:
    doc = _four_tier_doc(rng)
    doc["designs"] = {"one": {t: 1 for t in FOUR_TIERS}}
    (out / "model.json").write_text(json.dumps(doc, indent=1))

    # Chains of three svc_patch_mean values, ascending, per tier x
    # interval x failure mode.  mu_eq must fall along each chain.
    grid = []
    for tier in FOUR_TIERS:
        intervals = [round(rng.uniform(24.0, 96.0), 2), round(rng.uniform(360.0, 1080.0), 2)]
        for interval, failure_free in itertools.product(intervals, (False, True)):
            svc = round(rng.uniform(3.0, 10.0), 3)
            os_patch = round(rng.uniform(5.0, 40.0), 3)
            chain = len({g["chain"] for g in grid})
            for _ in range(3):
                overrides = {"svc_patch_mean": svc, "os_patch_mean": os_patch}
                if failure_free:
                    overrides.update(hw_mttf=INF, os_mttf=INF, svc_mttf=INF)
                grid.append({"tier": tier, "chain": chain, "interval": interval,
                             "failure_free": failure_free, "overrides": overrides})
                svc = round(svc * rng.uniform(1.5, 2.5), 3)

    # Simulated nets: fixed rates, so the number of events does not move
    # with the seed; only the random stream does.
    stages = {"svc_patch_mean": 10.0, "os_patch_mean": 20.0,
              "os_reboot_after_patch": 10.0, "svc_reboot_after_patch": 5.0}
    sims = [
        {"tier": "app", "interval": 24.0, "failure_free": True, "hours": 12_000.0,
         "overrides": dict(stages, hw_mttf=INF, os_mttf=INF, svc_mttf=INF),
         "sim_seed": rng.randrange(2**31)},
        {"tier": "web", "interval": 24.0, "failure_free": False, "hours": 12_000.0,
         "overrides": dict(stages), "sim_seed": rng.randrange(2**31)},
    ]

    nets = []
    for name, c, k in (("mm1k", 1, 5), ("mmck", 2, 6)):
        lam, mu = round(rng.uniform(0.5, 3.0), 4), round(rng.uniform(0.5, 2.0), 4)
        (out / f"{name}.net").write_text(_mmck_net(lam, mu, c, k))
        nets.append({"file": f"{name}.net", "kind": "mmck", "lam": lam, "mu": mu,
                     "c": c, "k": k})
    (out / "generator.net").write_text(_generator_net(**GENERATOR_NET))
    nets.append(dict(GENERATOR_NET, file="generator.net", kind="generator"))
    return {"model": "model.json", "grid": grid, "sims": sims, "nets": nets,
            "known_fault_nets": ["generator.net"]}


ACYCLIC_EDGES = [("t0", "t1"), ("t0", "t2"), ("t0", "t3"), ("t1", "t2"), ("t1", "t3"),
                 ("t1", "t4"), ("t2", "t3"), ("t2", "t4"), ("t2", "t5"), ("t3", "t4"),
                 ("t3", "t5"), ("t4", "t5")]
CYCLIC_EDGES = [("t0", "t1"), ("t0", "t2"), ("t1", "t2"), ("t1", "t3"), ("t2", "t1"),
                ("t2", "t3"), ("t3", "t1"), ("t3", "t4"), ("t4", "t2"), ("t4", "t5")]
ACYCLIC_DESIGNS = {"all3": (3,) * 6, "all4": (4,) * 6}
CYCLIC_DESIGNS = {"all2": (2,) * 6, "mix": (2, 2, 2, 3, 2, 2)}


def _tier_graph_doc(rng, edges, designs) -> dict:
    """Six tiers t0..t5, entries t0 and t1, target t5.  Each tier's tree is
    OR(critical, AND(app, os), app); patching leaves OR(AND, leaf)."""
    tiers = [f"t{i}" for i in range(6)]
    template = json.loads(EXAMPLE.read_text())["servers"]["web"]
    servers, vulns = {}, []
    for t in tiers:
        for suffix, critical, component, lo, hi in (
                ("c", True, "application", 0.05, 0.15), ("a", False, "application", 0.15, 0.3),
                ("b", False, "os", 0.2, 0.4), ("d", False, "application", 0.02, 0.08)):
            vulns.append({"id": f"{t}-{suffix}", "critical": critical, "component": component,
                          "probability": round(rng.uniform(lo, hi), 4),
                          "impact": round(rng.uniform(1.0, 10.0), 2)})
        servers[t] = dict(template, attack_tree={"or": [
            {"vuln": f"{t}-c"}, {"and": [{"vuln": f"{t}-a"}, {"vuln": f"{t}-b"}]},
            {"vuln": f"{t}-d"}]})
    return {"tiers": tiers, "vulnerabilities": vulns, "servers": servers,
            "reachability": {"edges": [list(e) for e in edges],
                             "entry_tiers": ["t0", "t1"], "target_tier": "t5"},
            "designs": {label: dict(zip(tiers, c)) for label, c in designs.items()},
            "patch_policy": {"interval_hours": 720}}


def _attack_paths(rng, out: Path, seconds: int) -> dict:
    models = []
    for name, edges, designs in (("acyclic", ACYCLIC_EDGES, ACYCLIC_DESIGNS),
                                 ("cyclic", CYCLIC_EDGES, CYCLIC_DESIGNS)):
        (out / f"{name}.json").write_text(json.dumps(_tier_graph_doc(rng, edges, designs),
                                                     indent=1))
        models.append(f"{name}.json")
    return {"model": models[0], "models": models}


GENERATORS = {
    "design-sweep": _design_sweep,
    "replica-ladder": _replica_ladder,
    "server-nets": _server_nets,
    "attack-paths": _attack_paths,
}


def generate(workload: str, seed: int, outdir, seconds: int) -> dict:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    manifest = GENERATORS[workload](rng, out, seconds)
    manifest.update(workload=workload, seed=seed, seconds=seconds)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


if __name__ == "__main__":
    workload, seed, outdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    seconds = int(sys.argv[4]) if len(sys.argv) > 4 else 30
    print(json.dumps(generate(workload, seed, outdir, seconds), indent=1))
