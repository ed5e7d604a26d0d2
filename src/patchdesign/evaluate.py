"""Evaluation of a design set in one pass, the bound check, and
comparison artifacts.

What one design of a set costs, once the set's walk and tables are
done: one lookup per tier, then one per tier visited for each row of
``harm.metrics_all``'s walk, for its security metrics; one lookup per
tier in ``availability.compute_coas``' factor tables for its COA; one
short-circuit ``accepts`` per bound set; and one f-string per CSV row."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from . import harm
from .model import BOUND_KEYS, Bounds, DesignSpec, Model, bounds_keys
from .harm import SecurityMetrics


class DesignEvaluation(NamedTuple):
    label: str
    patched: bool
    metrics: SecurityMetrics
    coa: float


class Evaluator:
    """Evaluates the designs of one model, pre- or post-patch.

    The aggregated rates and the pruned tier trees do not depend on the
    design, so each is computed on first use and kept for every later
    design.  ``evaluate_all`` evaluates a set of designs in one pass;
    ``evaluate_design`` is its one-design slice.  Security never reads the
    rates, so it solves no server net and does not even import the SRN
    engine: ``rates`` and the COA part import ``availability`` when they
    run.  The server nets solve in plain Python (``srn``), so no method
    loads numpy or scipy."""

    def __init__(self, model: Model, patched: bool = True):
        self.model = model
        self.patched = patched

    @cached_property
    def rates(self) -> dict:
        """tier -> ``availability.AggregatedRates``."""
        from . import availability

        return availability.aggregate_all(self.model.templates, self.model.policy)

    @cached_property
    def trees(self) -> dict:
        m = self.model
        return harm.tier_trees(m.templates, m.reachability, self.patched, m.policy)

    def evaluate_all(self, designs, security: bool = True,
                     coa: bool = True) -> list[DesignEvaluation]:
        """Each design's evaluation, in the order given, from one pass over
        the set: one ``harm.metrics_all`` walk over the designs' bounding
        box and one table per tier of its COA factors.  A part not asked
        for is None in every evaluation."""
        designs = list(designs)
        metrics = coas = [None] * len(designs)
        if security:
            metrics = harm.metrics_all(self.trees, self.model.reachability,
                                       [dict(design.counts) for design in designs])
        if coa:
            from .availability import compute_coas

            coas = compute_coas(designs, self.rates)
        return [DesignEvaluation(design.label, self.patched, m, c)
                for design, m, c in zip(designs, metrics, coas)]


def evaluate_design(model: Model, design: DesignSpec, patched: bool) -> DesignEvaluation:
    """Security metrics plus capacity-oriented availability for a design."""
    return Evaluator(model, patched).evaluate_all([design])[0]


def accepts(evaluation: DesignEvaluation, bounds: Bounds) -> bool:
    """True iff the design meets every bound that is set (inclusive):
    ASP, NoEV, NoAP and NoEP at or below their upper bounds, COA at or
    above its lower bound.  An unset bound constrains nothing."""
    m = evaluation.metrics
    return ((bounds.asp_upper is None or m.asp <= bounds.asp_upper)
            and (bounds.noev_upper is None or m.noev <= bounds.noev_upper)
            and (bounds.noap_upper is None or m.noap <= bounds.noap_upper)
            and (bounds.noep_upper is None or m.noep <= bounds.noep_upper)
            and (bounds.coa_lower is None or evaluation.coa >= bounds.coa_lower))


@dataclass
class Sweep:
    evaluations: list  # DesignEvaluation, sorted by label
    regions: list      # (Bounds, [accepted labels])


def sweep(model: Model, bounds_list=None, patched: bool = True,
          designs=None) -> Sweep:
    """Evaluate every design and compute region memberships.

    Output order is independent of input design order (sorted by label).
    """
    if designs is None:
        designs = list(model.designs.values())
    evaluations = sorted(Evaluator(model, patched).evaluate_all(designs),
                         key=lambda e: e.label)
    regions = []
    for bounds in bounds_list or []:
        accepted = [e.label for e in evaluations if accepts(e, bounds)]
        regions.append((bounds, accepted))
    return Sweep(evaluations, regions)


# -- artifact emission ---------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, int):
        return str(x)
    return f"{x:.6g}"


# A row is one f-string.  ASP and COA are floats and the counts ints;
# AIM has the type of the tree's impacts, an int for a library-built
# tree of int impacts, so it alone goes through ``_fmt``.


def scatter_csv(evaluations) -> str:
    lines = ["design,patched,asp,coa"]
    for e in evaluations:
        lines.append(f"{e.label},{'true' if e.patched else 'false'},"
                     f"{e.metrics.asp:.6g},{e.coa:.6g}")
    return "\n".join(lines) + "\n"


def radar_csv(evaluations) -> str:
    lines = ["design,patched,aim,asp,noev,noap,noep,coa"]
    for e in evaluations:
        m = e.metrics
        lines.append(f"{e.label},{'true' if e.patched else 'false'},{_fmt(m.aim)},"
                     f"{m.asp:.6g},{m.noev},{m.noap},{m.noep},{e.coa:.6g}")
    return "\n".join(lines) + "\n"


def regions_json(regions) -> str:
    out = []
    for bounds, accepted in regions:
        # phi and psi as printed; the count bounds xi, omega and kappa as ints
        out.append({"bounds": {key: float(_fmt(value)) if BOUND_KEYS[key][1] is float
                               else value for key, value in bounds_keys(bounds).items()},
                    "accepted": accepted})
    return json.dumps(out, indent=2, sort_keys=True) + "\n"
