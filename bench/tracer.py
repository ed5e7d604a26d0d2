"""Spans and counters around patchdesign's public functions.

The tracer patches module attributes from outside the program: every
module of the package that holds a traced function under its name gets
the wrapper, so calls between modules (``from .model import load_model``)
and within one module (``srn.solve`` calling ``reachability``) are both
seen.  ``uninstall`` puts the originals back.

A span is (id, parent id, round, name, start, end).  A layer's self time
is its spans' durations minus the time covered by their child spans.
Hot predicates (``Net.enabled``, guard evaluation, attack-tree
evaluation, ``Net.fire`` inside the simulator) get counters only.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute) -> span name; the per-layer metric is "<name>_s"
SPANS = {
    ("model", "load_model"): "model.load",
    ("harm", "build_harm"): "harm.build",
    ("harm", "enumerate_attack_paths"): "harm.enumerate",
    ("harm", "network_metrics"): "harm.metrics",
    ("availability", "build_server_srn"): "availability.server_net_build",
    ("availability", "aggregate_all"): "availability.aggregate",
    ("availability", "aggregate_rates"): "availability.aggregate",
    ("availability", "build_network_srn"): "availability.network_net_build",
    ("availability", "compute_coa"): "availability.coa",
    ("srn", "reachability"): "srn.reachability",
    ("srn", "eliminate_vanishing"): "srn.eliminate",
    ("srn", "steady_state"): "srn.steady_state",
    ("srn", "expected_reward"): "srn.reward",
    ("evaluate", "evaluate_design"): "evaluate.evaluate_design",
    ("evaluate", "sweep"): "evaluate.sweep",
    ("evaluate", "scatter_csv"): "evaluate.artefacts",
    ("evaluate", "radar_csv"): "evaluate.artefacts",
    ("evaluate", "regions_json"): "evaluate.artefacts",
    ("cli", "run"): "cli.run",
    ("simulate", "simulate_reward"): "simulate.wall",
    ("netfile", "parse_net"): "netfile.parse",
    ("netfile", "solve_document"): "netfile.solve",
}

SPAN_NAMES = sorted(set(SPANS.values()))


class Tracer:
    def __init__(self):
        self.spans = []      # (id, parent, round, name, start, end)
        self.counts = defaultdict(float)
        self.round = None
        self._stack = []
        self._next_id = 0
        self._patches = []   # (owner, attribute, original)
        self._depth = defaultdict(int)

    # -- installation -----------------------------------------------------

    def install(self, round_id):
        self.round = round_id
        from patchdesign import (availability, cli, evaluate, guards, harm, model,
                                 netfile, simulate, srn)
        owners = {"model": model, "harm": harm, "availability": availability,
                  "srn": srn, "evaluate": evaluate, "cli": cli,
                  "simulate": simulate, "netfile": netfile}
        modules = [m for name, m in sys.modules.items()
                   if name == "patchdesign" or name.startswith("patchdesign.")]
        for (mod_name, attr), span in SPANS.items():
            original = getattr(owners[mod_name], attr)
            wrapper = self._span_wrapper(span, original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapper)
        self._patch(srn.SteadyStateSolution, "probability",
                    self._span_wrapper("srn.reward", srn.SteadyStateSolution.probability))
        self._patch(srn.Net, "enabled", self._enabled_wrapper(srn.Net.enabled))
        self._patch(srn.Net, "fire", self._fire_wrapper(srn.Net.fire))
        for cls in (guards.Comparison, guards.Literal, guards.AllOf, guards.AnyOf):
            self._patch(cls, "evaluate",
                        self._outermost_counter("guards.evaluations", "guard", cls.evaluate))
        for attr in ("tree_impact", "tree_probability"):
            self._patch(harm, attr,
                        self._outermost_counter("harm.tree_evals", "tree", getattr(harm, attr)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            tracer._depth[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._depth[name] -= 1
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, tracer.round, name, start, end))
            if after is not None:
                after(tracer.counts, fn, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _enabled_wrapper(self, fn):
        counts = self.counts

        def enabled(net, t, m):
            result = fn(net, t, m)
            counts["srn.enabled_checks"] += 1
            if result:
                counts["srn.enabled_hits"] += 1
            return result

        return enabled

    def _fire_wrapper(self, fn):
        tracer = self

        def fire(net, t, m):
            if tracer._depth["simulate.wall"]:
                tracer.counts["simulate.events"] += 1
            return fn(net, t, m)

        return fire

    def _outermost_counter(self, counter, key, fn):
        """Count calls that are not nested in another call of the same
        family (AND/OR guard terms, recursive tree evaluation)."""
        counts, depth = self.counts, self._depth

        def counted(*args):
            if depth[key]:
                return fn(*args)
            counts[counter] += 1
            depth[key] += 1
            try:
                return fn(*args)
            finally:
                depth[key] -= 1

        return counted

    # -- report ---------------------------------------------------------------

    def self_times(self):
        """{span name: total self seconds}, {span name: total inclusive seconds}."""
        child_time = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_t, incl = defaultdict(float), defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            self_t[name] += end - start - child_time[span_id]
            incl[name] += end - start
        return self_t, incl


def _count_paths(counts, fn, result):
    counts["harm.paths"] += len(result)


def _count_graph(counts, fn, graph):
    counts["srn.tangible"] += len(graph.tangible)
    counts["srn.vanishing"] += len(graph.vanishing)


def _count_nnz(counts, fn, q):
    counts["srn.nnz"] += q.nnz


def _count_aggregate(counts, fn, result):
    if fn.__name__ == "aggregate_rates":
        counts["availability.aggregate_calls"] += 1


def _count_hours(counts, fn, estimate):
    counts["simulate.hours"] += estimate.hours


_AFTER = {
    "harm.enumerate": _count_paths,
    "srn.reachability": _count_graph,
    "srn.eliminate": _count_nnz,
    "availability.aggregate": _count_aggregate,
    "simulate.wall": _count_hours,
}
