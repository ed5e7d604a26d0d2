import pytest

from patchdesign import availability, harm, srn
from patchdesign.model import example_network_path, load_model


@pytest.fixture(scope="session")
def model():
    return load_model(example_network_path())


@pytest.fixture(scope="session")
def rates(model):
    return availability.aggregate_all(model.templates, model.policy)


# the five single-redundancy comparison designs plus the worked example
COMPARISON_LABELS = [
    "1dns-1web-1app-1db",
    "2dns-1web-1app-1db",
    "1dns-2web-1app-1db",
    "1dns-1web-2app-1db",
    "1dns-1web-1app-2db",
]

BASELINE = "1dns-1web-1app-1db"


def flat_srn_coa(design, rates):
    """COA as the steady-state reward of the flat network SRN: the oracle
    for ``availability.compute_coa``."""
    net = availability.build_network_srn(design, rates)
    return srn.expected_reward(srn.solve(net), availability.coa_reward(design))


def instance_path_metrics(harm_obj):
    """The five security metrics aggregated over every enumerated instance
    path: the oracle for ``harm.network_metrics``."""
    paths = harm.enumerate_attack_paths(harm_obj)
    aim, miss = 0.0, 1.0
    for path in paths:
        impact, prob = harm.path_metrics(harm_obj, path)
        aim = max(aim, impact)
        miss *= 1.0 - prob
    noev = sum(len({v.id for v in harm_obj.tree_of(inst).leaves()})
               for inst in harm_obj.instances if harm_obj.exploitable(inst))
    return harm.SecurityMetrics(aim=aim, asp=1.0 - miss if paths else 0.0,
                                noev=noev, noap=len(paths),
                                noep=len(harm_obj.entry_instances))
