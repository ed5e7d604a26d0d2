"""Security and capacity-oriented availability of server redundancy
designs under a security patch schedule."""

__version__ = "0.1.0"

from .model import (AttackTreeNode, Bounds, DesignSpec, Model, PatchPolicy,
                    ReachabilityTemplate, ServerTemplate, Vulnerability,
                    apply_patch_policy, example_network_path, load_model)
from .harm import (Harm, SecurityMetrics, build_harm, enumerate_attack_paths,
                   network_metrics, path_metrics, tree_impact, tree_probability)
from .availability import (AggregatedRates, aggregate_all, aggregate_rates,
                           build_network_srn, build_server_srn, closed_form_coa,
                           coa_reward, compute_coa)
from .evaluate import (DesignEvaluation, accepts, evaluate_design,
                       filter_five, filter_two, sweep)

__all__ = [
    "AttackTreeNode", "Bounds", "DesignSpec", "Model", "PatchPolicy",
    "ReachabilityTemplate", "ServerTemplate", "Vulnerability",
    "apply_patch_policy", "example_network_path", "load_model",
    "Harm", "SecurityMetrics", "build_harm", "enumerate_attack_paths",
    "network_metrics", "path_metrics", "tree_impact", "tree_probability",
    "AggregatedRates", "aggregate_all", "aggregate_rates",
    "build_network_srn", "build_server_srn", "closed_form_coa",
    "coa_reward", "compute_coa",
    "DesignEvaluation", "accepts", "evaluate_design", "filter_five",
    "filter_two", "sweep",
]
