"""patchdesign benchmark.

Run one workload (what a measuring harness calls):

    python3 bench/run.py --workload design-sweep --seed 1 --seconds 30 --trace 0

Run all of them, print every metric with its unit, and rewrite
BENCHMARK.json:

    python3 bench/run.py --all [--seed 1] [--seconds 30] [--trace 0]

Run from the root of a checkout.  Inputs are generated from the seed into
``.bench_work/`` and removed afterwards.  The workload itself runs in a
fresh single-threaded interpreter (``workloads.py``); set-up time is
measured in further fresh interpreters.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
PACKAGE = ROOT / "src" / "patchdesign" / "__init__.py"

SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
# what a user waits for before any work: a fresh interpreter, the CLI
# module (numpy, scipy) and the workload's model file
SETUP_PROBE = ("import sys; import patchdesign.cli; "
               "from patchdesign.model import load_model; load_model(sys.argv[1])")

SPEC = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 30,
    "workloads": [
        {"name": "design-sweep",
         "why": "patchdesign compare over an 81-design replica grid: 85 tiny SRNs per round, "
                "so net construction, dok elimination and artefacts dominate; HARM is ~2%"},
        {"name": "server-nets",
         "why": "aggregate_rates over an override grid, simulate_reward and solve-srn: "
                "enable/fire, guards and vanishing elimination on tiny nets"},
        {"name": "attack-paths",
         "why": "patchdesign security on 6-tier acyclic and cyclic tier graphs, ~5e4 paths "
                "per round: HARM build, path DFS and metrics only, no SRN"},
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
        {"name": "round_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
    "per_layer": None,  # filled from PER_LAYER below
}

PER_LAYER = [
    ("model.load_s", "s", "lower"),
    ("harm.build_s", "s", "lower"),
    ("harm.enumerate_s", "s", "lower"),
    ("harm.metrics_s", "s", "lower"),
    ("harm.paths", "count", "higher"),
    ("harm.tree_evals", "count", "lower"),
    ("harm.tree_evals_per_path", "ratio", "lower"),
    ("availability.server_net_build_s", "s", "lower"),
    ("availability.aggregate_s", "s", "lower"),
    ("availability.aggregate_calls", "count", "higher"),
    ("availability.network_net_build_s", "s", "lower"),
    ("availability.coa_s", "s", "lower"),
    ("srn.reachability_s", "s", "lower"),
    ("srn.tangible", "count", "lower"),
    ("srn.vanishing", "count", "lower"),
    ("srn.markings_per_s", "1/s", "higher"),
    ("srn.enabled_checks", "count", "lower"),
    ("srn.enabled_hit_ratio", "ratio", "higher"),
    ("srn.eliminate_s", "s", "lower"),
    ("srn.nnz", "count", "lower"),
    ("srn.steady_state_s", "s", "lower"),
    ("srn.reward_s", "s", "lower"),
    ("guards.evaluations", "count", "lower"),
    ("evaluate.evaluate_design_s", "s", "lower"),
    ("evaluate.sweep_s", "s", "lower"),
    ("evaluate.artefacts_s", "s", "lower"),
    ("cli.run_s", "s", "lower"),
    ("simulate.wall_s", "s", "lower"),
    ("simulate.events", "count", "higher"),
    ("simulate.events_per_s", "1/s", "higher"),
    ("simulate.hours_per_s", "h/s", "higher"),
    ("netfile.parse_s", "s", "lower"),
    ("netfile.solve_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]
SPEC["per_layer"] = [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER]
# Runs by hand and in --all, but is not in BENCHMARK.json: its sparse-LU
# rounds spread beyond the bound on the reference machine (README).
UNGATED_WORKLOADS = ["replica-ladder"]
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]] + UNGATED_WORKLOADS


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _remaining(deadline) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time limit reached")
    return left


def measure_setup(model_path: Path, deadline) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(model_path)],
                              env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=_remaining(deadline))
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return statistics.median(samples)


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    run_dir = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        manifest = gen.generate(workload, seed, run_dir / "inputs", seconds)
        setup_s = None
        if not trace:
            setup_s = measure_setup(run_dir / "inputs" / manifest["model"], deadline)
        cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
               "--inputs", str(run_dir / "inputs"), "--scratch", str(run_dir / "scratch"),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=_remaining(deadline))
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"workload process exited with {proc.returncode}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        spans = run_dir / "scratch" / "spans.json"
        if spans.exists():
            spans.replace(WORK / f"spans-{workload}.json")
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"time limit reached in {e.cmd[1]}") from None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if trace:
        metrics = report["layers"]
    else:
        # contention from outside the benchmark only ever adds time, so the
        # fastest round is the steadiest figure (README, "Why the fastest round")
        round_s = min(report["round_s"])
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_kb"] / 1024.0, "unit": "MB"},
            "round_s": {"value": round_s, "unit": "s"},
            "work_per_s": {"value": report["units_per_round"] / round_s, "unit": "1/s"},
        }
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def write_spec() -> None:
    (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="patchdesign benchmark")
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    which.add_argument("--all", action="store_true",
                       help="run every workload and rewrite BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not PACKAGE.is_file():
        print(f"error: no patchdesign sources at {PACKAGE.relative_to(ROOT)}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        if args.workload:
            print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
            return 0
        write_spec()
        for name in WORKLOAD_NAMES:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:34s} {m['value']:14.6g} {m['unit']}")
        return 0
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
