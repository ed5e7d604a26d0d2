"""One workload in one process: run whole rounds, check them, report.

    python3 bench/workloads.py --workload NAME --inputs DIR --scratch DIR \\
        --seconds S --trace 0|1

``bench/run.py`` starts this with ``PYTHONPATH`` pointing at the
checkout's ``src``.  Every round runs the same operations on the inputs
in ``--inputs`` (written by ``gen.py``); each output of a round is one
attempted operation, checked against ``oracles.py``.  Rounds repeat until
``--seconds`` have passed.  With ``--trace 1`` rounds alternate untraced
and traced, so the tracing overhead is measured in the same process.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

import oracles
from tracer import SPAN_NAMES, Tracer

FOUR_TIERS = ("dns", "web", "app", "db")
# ServerTemplate field -> model-file key, for the patch-stage overrides
STAGE_FIELDS = {
    "svc_patch_mean": "svc_patch_minutes",
    "os_patch_mean": "os_patch_minutes",
    "os_reboot_after_patch": "os_reboot_after_patch_minutes",
    "svc_reboot_after_patch": "svc_reboot_after_patch_minutes",
}
SIM_SIGMAS = 5.0


def _library_close(value, ref, tol=1e-12):
    return abs(value - ref) <= tol


def _cli(argv):
    from patchdesign import cli
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _rows_by_design(text):
    return {row["design"]: row for row in csv.DictReader(io.StringIO(text))}


def _security_row_ok(row, ref):
    return (row is not None
            and oracles.printed_matches(row["aim"], ref["aim"])
            and oracles.printed_matches(row["asp"], ref["asp"])
            and all(int(row[k]) == ref[k] for k in ("noev", "noap", "noep")))


def _four_tier_expected(model_path):
    """(document, model, rates, {design: (security metrics, COA)}) for a
    four-tier model file.  Server-level rates come from the program's
    ``aggregate_rates`` (checked on their own in server-nets); the network
    level is the binomial oracle."""
    from patchdesign import availability, load_model
    doc = json.loads(model_path.read_text())
    model = load_model(model_path)
    rates = availability.aggregate_all(model.templates, model.policy)
    avail = [rates[t].mu_eq / (rates[t].lambda_eq + rates[t].mu_eq) for t in FOUR_TIERS]
    expected = {label: (oracles.security_metrics(doc, counts, patched=True),
                        oracles.coa([counts[t] for t in FOUR_TIERS], avail))
                for label, counts in doc["designs"].items()}
    return doc, model, rates, expected


class DesignSweep:
    """``patchdesign compare`` over every design of a replica grid."""

    def __init__(self, manifest, inputs: Path, scratch: Path):
        self.model_path = inputs / manifest["model"]
        self.bounds = manifest["bounds"]
        self.known = set(manifest["known_fault_bounds"])
        self.outdir = scratch / "compare"

    def prepare(self):
        _, _, _, self.expected = _four_tier_expected(self.model_path)
        self.regions = [
            {label: oracles.region_membership(sec, coa, b)
             for label, (sec, coa) in self.expected.items()}
            for b in self.bounds]
        self.argv = ["compare", "--model", str(self.model_path), "--out", str(self.outdir)]
        for b in self.bounds:
            self.argv += ["--bounds", ",".join(f"{k}={v!r}" for k, v in b.items())]
        self.units = len(self.expected)

    def run_round(self):
        return _cli(self.argv)

    def check(self, result):
        yield "compare exit status", result[0] == 0, False
        outputs = {}
        for name in ("scatter.csv", "radar.csv", "regions.json"):
            path = self.outdir / name
            outputs[name] = path.read_text() if path.exists() else ""
            path.unlink(missing_ok=True)
        scatter = _rows_by_design(outputs["scatter.csv"])
        radar = _rows_by_design(outputs["radar.csv"])
        for label, (sec, coa) in sorted(self.expected.items()):
            row = scatter.get(label)
            yield (f"scatter {label}",
                   row is not None and oracles.printed_matches(row["coa"], coa)
                   and oracles.printed_matches(row["asp"], sec["asp"]), False)
            row = radar.get(label)
            yield (f"radar {label}",
                   _security_row_ok(row, sec) and oracles.printed_matches(row["coa"], coa),
                   False)
        try:
            regions = json.loads(outputs["regions.json"])
        except json.JSONDecodeError:
            regions = []
        for i, expected in enumerate(self.regions):
            accepted = set(regions[i]["accepted"]) if i < len(regions) else None
            ok = accepted is not None and all(
                member is None or (label in accepted) == member
                for label, member in expected.items())
            yield f"region {i} {self.bounds[i]}", ok, i in self.known


class ReplicaLadder:
    """``compute_coa`` and ``network_metrics`` on n replicas per tier."""

    def __init__(self, manifest, inputs: Path, scratch: Path):
        self.model_path = inputs / manifest["model"]
        self.labels = manifest["designs"]

    def prepare(self):
        doc, self.model, self.rates, self.expected = _four_tier_expected(self.model_path)
        self.units = sum(math.prod(n + 1 for n in doc["designs"][label].values())
                         for label in self.labels)

    def run_round(self):
        from patchdesign import availability, harm
        m = self.model
        out = {}
        for label in self.labels:
            design = m.designs[label]
            h = harm.build_harm(design, m.templates, m.reachability, True, m.policy)
            out[label] = (harm.network_metrics(h), availability.compute_coa(design, self.rates))
        return out

    def check(self, result):
        for label in self.labels:
            sec, coa = self.expected[label]
            metrics, value = result[label]
            yield f"coa {label}", _library_close(value, coa), False
            yield (f"security {label}",
                   abs(metrics.aim - sec["aim"]) <= 1e-9 * max(1.0, sec["aim"])
                   and _library_close(metrics.asp, sec["asp"])
                   and (metrics.noev, metrics.noap, metrics.noep)
                   == (sec["noev"], sec["noap"], sec["noep"]), False)


class ServerNets:
    """``aggregate_rates`` over an override grid, ``simulate_reward`` on
    two server nets, ``patchdesign solve-srn`` on three textual nets."""

    def __init__(self, manifest, inputs: Path, scratch: Path):
        self.inputs = inputs
        self.model_path = inputs / manifest["model"]
        self.grid = manifest["grid"]
        self.sims = manifest["sims"]
        self.nets = manifest["nets"]
        self.known = set(manifest["known_fault_nets"])

    def _template(self, model, entry):
        from patchdesign import PatchPolicy
        tpl = dataclasses.replace(model.templates[entry["tier"]], **entry["overrides"])
        return tpl, PatchPolicy(interval_mean=entry["interval"])

    def _outage_hours(self, doc, entry):
        server = dict(doc["servers"][entry["tier"]])
        for field, key in STAGE_FIELDS.items():
            if field in entry["overrides"]:
                server[key] = entry["overrides"][field]
        return oracles.failure_free_mttr_hours(server)

    def prepare(self):
        from patchdesign import availability, load_model, srn
        doc = json.loads(self.model_path.read_text())
        model = load_model(self.model_path)
        self.calls = [self._template(model, e) for e in self.grid]
        self.outage = [self._outage_hours(doc, e) for e in self.grid]
        self.sim_nets, self.sim_expected = [], []
        for entry in self.sims:
            tpl, policy = self._template(model, entry)
            net = availability.build_server_srn(tpl, policy)
            self.sim_nets.append(net)
            if entry["failure_free"]:
                # alternating renewal: up for the interval, down for the outage
                interval = entry["interval"]
                ref = interval / (interval + self._outage_hours(doc, entry))
            else:
                ref = srn.expected_reward(srn.solve(net), _service_up)
            self.sim_expected.append(ref)
        self.net_expected = []
        for net in self.nets:
            if net["kind"] == "mmck":
                dist = oracles.mmck(net["lam"], net["mu"], net["c"], net["k"])
                self.net_expected.append({"L": oracles.mean(dist), "block": dist[-1]})
            else:
                dist = oracles.birth_death([net["lam"]] * net["cap"], [net["mu"]] * net["cap"])
                self.net_expected.append({"L": oracles.mean(dist)})
        self.units = len(self.grid) + len(self.sims) + len(self.nets)

    def run_round(self):
        from patchdesign import availability, simulate
        rates = [availability.aggregate_rates(tpl, policy) for tpl, policy in self.calls]
        sims = [simulate.simulate_reward(net, _service_up, hours=e["hours"], seed=e["sim_seed"])
                for net, e in zip(self.sim_nets, self.sims)]
        solved = [_cli(["solve-srn", str(self.inputs / n["file"])]) for n in self.nets]
        return rates, sims, solved

    def check(self, result):
        rates, sims, solved = result
        for i, (entry, agg) in enumerate(zip(self.grid, rates)):
            ok = (math.isclose(agg.lambda_eq, 1.0 / entry["interval"], rel_tol=1e-12)
                  and math.isfinite(agg.mu_eq) and agg.mu_eq > 0)
            if entry["failure_free"]:
                ok = ok and math.isclose(1.0 / agg.mu_eq, self.outage[i], rel_tol=1e-9)
            elif i and self.grid[i - 1]["chain"] == entry["chain"]:
                ok = ok and agg.mu_eq < rates[i - 1].mu_eq
            yield f"aggregate {i} {entry['tier']}", ok, False
        for entry, est, ref in zip(self.sims, sims, self.sim_expected):
            yield (f"simulate {entry['tier']} failure_free={entry['failure_free']}",
                   est.stderr > 0 and abs(est.value - ref) <= SIM_SIGMAS * est.stderr, False)
        for net, expected, (code, out, _) in zip(self.nets, self.net_expected, solved):
            printed = dict(line[len("reward "):].split(" = ")
                           for line in out.splitlines() if line.startswith("reward "))
            ok = code == 0 and all(
                name in printed and oracles.printed_matches(printed[name], value)
                for name, value in expected.items())
            yield f"solve-srn {net['file']}", ok, net["file"] in self.known


def _service_up(marking) -> float:
    return float(marking["P_svcup"] == 1)


class AttackPaths:
    """``patchdesign security --design all`` on wide tier graphs, patched
    and unpatched."""

    def __init__(self, manifest, inputs: Path, scratch: Path):
        self.models = [inputs / m for m in manifest["models"]]

    def prepare(self):
        self.commands = []
        self.units = 0
        for path in self.models:
            doc = json.loads(path.read_text())
            for patched in (True, False):
                expected = {label: oracles.security_metrics(doc, counts, patched)
                            for label, counts in doc["designs"].items()}
                self.units += sum(e["noap"] for e in expected.values())
                argv = ["security", "--model", str(path), "--design", "all",
                        "--patched" if patched else "--unpatched", "--format", "csv"]
                self.commands.append((argv, expected))

    def run_round(self):
        return [_cli(argv) for argv, _ in self.commands]

    def check(self, result):
        for (argv, expected), (code, out, _) in zip(self.commands, result):
            name = f"{Path(argv[2]).stem} {argv[5]}"
            yield f"security {name} exit status", code == 0, False
            rows = _rows_by_design(out) if code == 0 else {}
            for label, ref in sorted(expected.items()):
                yield f"security {name} {label}", _security_row_ok(rows.get(label), ref), False


WORKLOADS = {
    "design-sweep": DesignSweep,
    "replica-ladder": ReplicaLadder,
    "server-nets": ServerNets,
    "attack-paths": AttackPaths,
}


def layer_metrics(tracer: Tracer, rounds: int, traced_s, untraced_s) -> dict:
    """Per-layer figures, each per traced round."""
    self_t, incl = tracer.self_times()
    c = tracer.counts
    out = {f"{name}_s": (self_t[name] / rounds, "s") for name in SPAN_NAMES}

    def per_round(key):
        return c[key] / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    out.update({
        "harm.paths": (per_round("harm.paths"), "count"),
        "harm.tree_evals": (per_round("harm.tree_evals"), "count"),
        "harm.tree_evals_per_path": (ratio(c["harm.tree_evals"], c["harm.paths"]), "ratio"),
        "availability.aggregate_calls": (per_round("availability.aggregate_calls"), "count"),
        "srn.tangible": (per_round("srn.tangible"), "count"),
        "srn.vanishing": (per_round("srn.vanishing"), "count"),
        "srn.markings_per_s": (ratio(c["srn.tangible"] + c["srn.vanishing"],
                                     self_t["srn.reachability"]), "1/s"),
        "srn.enabled_checks": (per_round("srn.enabled_checks"), "count"),
        "srn.enabled_hit_ratio": (ratio(c["srn.enabled_hits"], c["srn.enabled_checks"]),
                                  "ratio"),
        "srn.nnz": (per_round("srn.nnz"), "count"),
        "guards.evaluations": (per_round("guards.evaluations"), "count"),
        "simulate.events": (per_round("simulate.events"), "count"),
        "simulate.events_per_s": (ratio(c["simulate.events"], incl["simulate.wall"]), "1/s"),
        "simulate.hours_per_s": (ratio(c["simulate.hours"], incl["simulate.wall"]), "h/s"),
        "trace.spans": (len(tracer.spans) / rounds, "count"),
        "trace.overhead_pct": (100.0 * (min(traced_s) / min(untraced_s) - 1.0), "%"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--scratch", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import patchdesign
    src = Path(patchdesign.__file__).resolve().parent.parent
    expected_src = Path(__file__).resolve().parent.parent / "src"
    if src != expected_src.resolve():
        print(f"patchdesign imported from {src}, expected {expected_src}", file=sys.stderr)
        return 2

    manifest = json.loads((args.inputs / "manifest.json").read_text())
    args.scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](manifest, args.inputs, args.scratch)
    workload.prepare()
    tracer = Tracer() if args.trace else None

    untraced_s, traced_s = [], []
    attempted = failed = 0
    correct = True
    problems = {}
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install(i)
        t0 = time.perf_counter()
        result = workload.run_round()
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        (traced_s if traced else untraced_s).append(elapsed)
        for name, ok, known in workload.check(result):
            attempted += 1
            if not ok:
                failed += 1
                correct = correct and known
                problems.setdefault(name, "known fault" if known else "WRONG")
        i += 1
        if time.perf_counter() - start >= args.seconds and (tracer is None or i >= 2):
            break

    for name, kind in problems.items():
        print(f"failed operation ({kind}): {name}", file=sys.stderr)
    report = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "units_per_round": workload.units, "round_s": untraced_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, len(traced_s), traced_s, untraced_s)
        (args.scratch / "spans.json").write_text(json.dumps(
            [dict(zip(("id", "parent", "round", "name", "start", "end"), s))
             for s in tracer.spans if s[2] == tracer.round]))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
