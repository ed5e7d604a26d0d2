"""Self-checks for the benchmark: each oracle against a hand-computed case,
then every workload once at its smallest size, then the refusal to run
without the program's sources.

    python3 bench/selfcheck.py

Prints one PASS line per check and exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import oracles
import run

BENCH = Path(__file__).resolve().parent


def check(name, condition):
    if not condition:
        print(f"FAIL {name}")
        sys.exit(1)
    print(f"PASS {name}")


def _leaf(vid):
    return {"vuln": vid}


def _doc(tiers, edges, entries, target, trees, vulns):
    return {"tiers": tiers, "servers": {t: {"attack_tree": trees[t]} for t in tiers},
            "vulnerabilities": [{"id": k, "probability": p, "impact": i, "critical": c}
                                for k, (p, i, c) in vulns.items()],
            "reachability": {"edges": edges, "entry_tiers": entries, "target_tier": target}}


def oracle_cases():
    # M/M/1/3 with lambda=1, mu=2: pi = (8, 4, 2, 1)/15, L = 11/15
    dist = oracles.mmck(1.0, 2.0, 1, 3)
    check("M/M/1/3 distribution", all(math.isclose(p, q / 15) for p, q in zip(dist, (8, 4, 2, 1))))
    check("M/M/1/3 mean", math.isclose(oracles.mean(dist), 11 / 15))
    # M/M/2/2 with lambda=mu=1: weights 1, 1, 1/2 -> blocking 1/5
    check("M/M/2/2 blocking", math.isclose(oracles.mmck(1.0, 1.0, 2, 2)[-1], 0.2))

    # one replica per tier: COA is the product of availabilities
    check("COA, one replica per tier",
          math.isclose(oracles.coa([1, 1, 1, 1], [0.9, 0.8, 0.95, 0.99]),
                       0.9 * 0.8 * 0.95 * 0.99, rel_tol=1e-15))
    # two replicas, one tier: a(1-a)*1/2*2 + a^2 = a
    check("COA, two replicas", math.isclose(oracles.coa([2], [0.7]), 0.7, rel_tol=1e-15))

    server = {"svc_patch_minutes": 5, "os_patch_minutes": 20,
              "os_reboot_after_patch_minutes": 10, "svc_reboot_after_patch_minutes": 5}
    check("failure-free outage", math.isclose(oracles.failure_free_mttr_hours(server), 40 / 60))

    # 3-tier chain t0 -> t1 -> t2 with 2, 3, 1 replicas
    vulns = {"v0": (0.5, 3.0, False), "v1": (0.8, 2.0, False), "v2": (0.5, 1.0, False),
             "v3": (0.3, 4.0, False), "v4": (0.2, 6.0, True)}
    trees = {"t0": _leaf("v0"), "t1": {"and": [_leaf("v1"), _leaf("v2")]},
             "t2": {"or": [_leaf("v3"), _leaf("v4")]}}
    chain = _doc(["t0", "t1", "t2"], [["t0", "t1"], ["t1", "t2"]], ["t0"], "t2", trees, vulns)
    counts = {"t0": 2, "t1": 3, "t2": 1}
    hand = {"aim": 3 + 3 + 6, "asp": 1 - (1 - 0.5 * 0.4 * 0.3) ** 6,
            "noev": 2 * 1 + 3 * 2 + 1 * 2, "noap": 6, "noep": 2}
    for method in ("paths", "dp"):
        got = oracles.security_metrics(chain, counts, patched=False, method=method)
        check(f"3-tier chain, unpatched, {method}",
              all(math.isclose(got[k], v, rel_tol=1e-12) for k, v in hand.items()))
    # patching removes critical v4; t2 keeps v3 only
    got = oracles.security_metrics(chain, counts, patched=True)
    check("3-tier chain, patched",
          got["aim"] == 3 + 3 + 4 and got["noev"] == 9
          and math.isclose(got["asp"], 1 - (1 - 0.5 * 0.4 * 0.3) ** 6))

    # cycle a <-> b, b -> c, entry a, target c, replicas 2, 2, 1:
    # a b c (2*2 paths) and a b a' b' c (2*2*1*1 paths)
    vulns = {"x": (0.5, 1.0, False)}
    cyc = _doc(["a", "b", "c"], [["a", "b"], ["b", "a"], ["b", "c"]], ["a"], "c",
               {t: _leaf("x") for t in "abc"}, vulns)
    got = oracles.security_metrics(cyc, {"a": 2, "b": 2, "c": 1}, patched=False)
    check("cyclic graph path count", oracles.tier_graph_is_acyclic(cyc) is False
          and got["noap"] == 8)
    check("cyclic graph ASP and AIM",
          math.isclose(got["asp"], 1 - (1 - 0.125) ** 4 * (1 - 0.5 ** 5) ** 4)
          and got["aim"] == 5.0)

    check("printed precision",
          oracles.printed_matches("0.216986", 0.2169859)
          and not oracles.printed_matches("0.216987", 0.2169859)
          and oracles.printed_matches("1", 0.9999996))
    metrics = {"asp": 0.2, "noev": 11, "noap": 4, "noep": 2}
    check("region membership",
          oracles.region_membership(metrics, 0.99, {"phi": 0.3, "psi": 0.98}) is True
          and oracles.region_membership(metrics, 0.99, {"phi": 0.3, "psi": 0.98, "xi": 10})
          is False
          and oracles.region_membership(metrics, 0.99, {"phi": 0.2, "psi": 0.98}) is None)


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=200)


def smallest_runs():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check("BENCHMARK.json matches the benchmark's spec", spec == run.SPEC)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOAD_NAMES:
            proc = _bench(run.ROOT, "--workload", workload, "--seed", "1",
                          "--seconds", "1", "--trace", str(trace))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(f"{workload} --trace {trace} at its smallest size",
                  proc.returncode == 0
                  and set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] is True and result["attempted"] >= 1
                  and got == names
                  and all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()))


def refuses_without_sources():
    bare = run.WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(bare, "--workload", "design-sweep", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
        check("exits non-zero without the program's sources",
              proc.returncode != 0 and not proc.stdout.strip())
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    oracle_cases()
    refuses_without_sources()
    smallest_runs()
