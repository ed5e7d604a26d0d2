"""Compare redundancy designs on security and availability together.

Adding a replica to a tier raises capacity-oriented availability (COA)
but also widens the attack surface: every replica carries the same
vulnerabilities, so attack paths multiply.  This script evaluates the
five single-extra-replica designs from the bundled model, prints the
trade-off, and filters them against two candidate bound settings.
"""

from patchdesign import (
    Bounds,
    Evaluator,
    accepts,
    build_network_srn,
    coa_reward,
    example_network_path,
    load_model,
    sweep,
)
from patchdesign import srn
from patchdesign.evaluate import scatter_csv

model = load_model(example_network_path())
labels = [
    "1dns-1web-1app-1db",
    "2dns-1web-1app-1db",
    "1dns-2web-1app-1db",
    "1dns-1web-2app-1db",
    "1dns-1web-1app-2db",
]

# -- evaluate after patching ---------------------------------------------------
# One evaluator per model and patch mode: it aggregates the server rates and
# prunes the attack trees once, then evaluates any number of designs.
evaluator = Evaluator(model, patched=True)
print(f"{'design':>20} {'ASP':>9} {'COA':>9} {'NoEV':>5} {'NoAP':>5} {'NoEP':>5}")
evaluations = evaluator.evaluate_all(model.designs[label] for label in labels)
for e in evaluations:
    m = e.metrics
    print(f"{e.label:>20} {m.asp:9.6f} {e.coa:9.6f} "
          f"{m.noev:5d} {m.noap:5d} {m.noep:5d}")

# Duplicating the app tier gives the largest COA gain because the app
# server has the slowest patch cycle (longest per-cycle outage).
best = max(evaluations, key=lambda e: e.coa)
print(f"\nhighest COA: {best.label} ({best.coa:.6f})")

# COA comes from a per-tier product form; solving the flat network SRN
# (one token pool per tier) gives the same value.
design = model.designs[best.label]
check = srn.expected_reward(srn.solve(build_network_srn(design, evaluator.rates)),
                            coa_reward(design))
assert abs(best.coa - check) < 1e-9

# -- filter against bounds -----------------------------------------------------
# Two candidate regions: a balanced one and a stricter security bound.
for phi, psi in ((0.2, 0.9962), (0.1, 0.9961)):
    bounds = Bounds(asp_upper=phi, coa_lower=psi)
    accepted = [e.label for e in evaluations if accepts(e, bounds)]
    print(f"ASP <= {phi}, COA >= {psi}: {accepted}")

# -- bulk sweep + CSV export ---------------------------------------------------
result = sweep(model, patched=True,
               designs=[model.designs[label] for label in labels])
print("\nscatter CSV (ASP vs COA):")
print(scatter_csv(result.evaluations))
