"""Security and capacity-oriented availability of server redundancy
designs under a security patch schedule.

The public names are resolved on first use (PEP 562), so importing the
package, or one module of it, loads only what that use needs: the
security metrics never load the SRN engine."""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "model": ("AttackTreeNode", "Bounds", "DesignSpec", "Model", "PatchPolicy",
              "ReachabilityTemplate", "ServerTemplate", "Vulnerability",
              "example_network_path", "load_model"),
    "harm": ("Harm", "SecurityMetrics", "build_harm", "enumerate_attack_paths",
             "network_metrics", "path_metrics", "tree_impact", "tree_probability"),
    "availability": ("AggregatedRates", "aggregate_all", "aggregate_rates",
                     "build_network_srn", "build_server_srn", "coa_reward",
                     "compute_coa", "server_document"),
    "evaluate": ("DesignEvaluation", "Evaluator", "accepts", "evaluate_design", "sweep"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
