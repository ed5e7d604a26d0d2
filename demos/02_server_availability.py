"""Solve the per-server stochastic reward net and aggregate its rates.

Every server is modelled as a stochastic reward net with four
interacting sub-models: hardware failure/repair, operating-system
failure and detection, service failure and detection, and a patch clock
that periodically takes the service and OS down for patching and
reboots.  Solving that net gives the probability of each marking; from
those probabilities we collapse the whole server into an equivalent
two-state model with a single failure rate lambda_eq and a single
repair/patch rate mu_eq, which is what the network-level model uses.
The net is the file src/patchdesign/data/server.net, written in the
same text format as any net for `patchdesign solve-srn`; its timed rates
are parameters, bound here from the dns server's mean durations.
"""

from patchdesign import (
    aggregate_rates,
    example_network_path,
    load_model,
    server_document,
)
from patchdesign.srn import solve

model = load_model(example_network_path())
policy = model.policy

# -- one server in detail ----------------------------------------------------
template = model.templates["dns"]
doc = server_document(template, policy)
solution = solve(doc.net)
print(f"dns server SRN: {len(doc.net.places)} places,",
      f"{len(solution.states)} tangible markings")

# Probability that the patch cycle currently has the service down:
# waiting to patch, patching, or waiting to reboot afterwards.  The net
# file's patch_down reward clause is 1 in exactly those markings.
down = solution.probability(doc.rewards["patch_down"])
print(f"P(service down for patching) = {down:.6f}")

rates = aggregate_rates(template, policy)
print(f"lambda_eq = {rates.lambda_eq:.6f} per hour "
      f"(one patch cycle every {1 / rates.lambda_eq:.0f} h)")
print(f"mu_eq     = {rates.mu_eq:.5f} per hour "
      f"(mean outage {60 * rates.mttr:.1f} min)")
print(f"single-server availability = {rates.availability:.6f}")

# -- every tier --------------------------------------------------------------
# The patch clock is shared, so lambda_eq is the same everywhere; mu_eq
# differs because each tier has its own patch and reboot durations.
print(f"\n{'tier':>4} {'lambda_eq':>10} {'mu_eq':>8} {'mttr (min)':>11}")
for tier, tpl in model.templates.items():
    r = aggregate_rates(tpl, policy)
    print(f"{tier:>4} {r.lambda_eq:10.6f} {r.mu_eq:8.5f} {60 * r.mttr:11.2f}")

# -- sanity check: a failure-free server -------------------------------------
# With no hardware/OS/service failures the only outages are patch
# cycles, and the mean outage is exactly the sum of the patch stages:
# service patch + OS patch + OS reboot + service reboot.
import math
from dataclasses import replace

clean = replace(template, hw_mttf=math.inf, os_mttf=math.inf,
                svc_mttf=math.inf)
r = aggregate_rates(clean, policy)
stage_minutes = (template.svc_patch_mean + template.os_patch_mean
                 + template.os_reboot_after_patch
                 + template.svc_reboot_after_patch)
print(f"\nfailure-free dns: mttr = {60 * r.mttr:.2f} min "
      f"(patch stages sum to {stage_minutes} min)")
assert abs(60 * r.mttr - stage_minutes) < 1e-9
