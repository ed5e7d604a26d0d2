"""Walk through the security side of the library on the bundled network.

The model describes a four-tier web service (dns, web, app, db).  Each
tier has an attack tree over its catalogued vulnerabilities; a design
says how many replicas of each tier are deployed.  From those pieces we
build a two-layer attack model -- the tier reachability graph with a
replica count per tier on top, one attack tree per tier below --
enumerate attack paths over the server instances from the attacker's
entry point to the database, and compute five security metrics.  The
metrics are counted over tier walks, without listing instance paths;
the listed paths must agree with that count.
"""

from patchdesign import (
    build_harm,
    enumerate_attack_paths,
    example_network_path,
    load_model,
    network_metrics,
    path_metrics,
    tree_impact,
    tree_probability,
)

model = load_model(example_network_path())
design = model.designs["base"]
print("design:", design.label, dict(design.counts))

# -- per-server attack trees -------------------------------------------------
# Impact is summed across AND children and maximised across OR children;
# probability is multiplied across AND and maximised across OR.
for tier, template in model.templates.items():
    tree = template.attack_tree
    print(f"{tier:>4}: impact={tree_impact(tree):5.1f}  "
          f"probability={tree_probability(tree):.4f}")

# -- attack paths, before patching -------------------------------------------
harm = build_harm(design, model.templates, model.reachability, patched=False)
paths = enumerate_attack_paths(harm)
print(f"\n{len(paths)} attack paths before patching; the first three:")
for path in paths[:3]:
    impact, prob = path_metrics(harm, path)
    ids = " -> ".join(instance.id for instance in path)
    print(f"  {ids}: impact={impact:.1f} probability={prob:.6f}")

before = network_metrics(harm)
print("\nbefore patching:", before)
# network_metrics counts the paths without listing them
assert before.noap == len(paths)

# -- the same design after applying the patch policy --------------------------
# The policy removes every vulnerability marked critical; AND subtrees
# missing a child disappear, OR subtrees survive while any child does.
# Passing patched=True prunes each tier's tree with the given policy.
harm = build_harm(design, model.templates, model.reachability,
                  patched=True, policy=model.policy)
after = network_metrics(harm)
print("after patching: ", after)

# Patching never makes things worse on any of the five metrics.
assert after.asp <= before.asp
assert after.noev <= before.noev
assert after.noap <= before.noap
assert after.noep <= before.noep
print("\npatching lowered ASP from "
      f"{before.asp:.6f} to {after.asp:.6f}")
