"""Per-design evaluation, the bound check, and comparison artifacts."""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import availability, harm
from .model import Bounds, DesignSpec, Model, bounds_keys
from .harm import SecurityMetrics


@dataclass(frozen=True)
class DesignEvaluation:
    label: str
    patched: bool
    metrics: SecurityMetrics
    coa: float


def evaluate_design(model: Model, design: DesignSpec, patched: bool,
                    rates: dict | None = None, trees: dict | None = None) -> DesignEvaluation:
    """Security metrics plus capacity-oriented availability for a design.
    ``rates`` and ``trees`` (``harm.tier_trees``) are computed when not
    given; a sweep computes each once for all its designs."""
    if rates is None:
        rates = availability.aggregate_all(model.templates, model.policy)
    h = harm.build_harm(design, model.templates, model.reachability,
                        patched, model.policy, trees)
    metrics = harm.network_metrics(h)
    coa = availability.compute_coa(design, rates)
    return DesignEvaluation(design.label, patched, metrics, coa)


def accepts(evaluation: DesignEvaluation, bounds: Bounds) -> bool:
    """True iff the design meets every bound that is set (inclusive):
    ASP, NoEV, NoAP and NoEP at or below their upper bounds, COA at or
    above its lower bound.  An unset bound constrains nothing."""
    m = evaluation.metrics
    uppers = ((m.asp, bounds.asp_upper), (m.noev, bounds.noev_upper),
              (m.noap, bounds.noap_upper), (m.noep, bounds.noep_upper))
    return (all(bound is None or value <= bound for value, bound in uppers)
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
    rates = availability.aggregate_all(model.templates, model.policy)
    trees = harm.tier_trees(model.templates, model.reachability, patched, model.policy)
    evaluations = sorted(
        (evaluate_design(model, d, patched, rates, trees) for d in designs),
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


def scatter_csv(evaluations) -> str:
    lines = ["design,patched,asp,coa"]
    for e in evaluations:
        lines.append(",".join(
            [e.label, _fmt(e.patched), _fmt(e.metrics.asp), _fmt(e.coa)]))
    return "\n".join(lines) + "\n"


def radar_csv(evaluations) -> str:
    lines = ["design,patched,aim,asp,noev,noap,noep,coa"]
    for e in evaluations:
        m = e.metrics
        lines.append(",".join(
            [e.label, _fmt(e.patched), _fmt(m.aim), _fmt(m.asp),
             _fmt(m.noev), _fmt(m.noap), _fmt(m.noep), _fmt(e.coa)]))
    return "\n".join(lines) + "\n"


def regions_json(regions) -> str:
    out = []
    for bounds, accepted in regions:
        out.append({"bounds": {key: float(_fmt(value))
                               for key, value in bounds_keys(bounds).items()},
                    "accepted": accepted})
    return json.dumps(out, indent=2, sort_keys=True) + "\n"
