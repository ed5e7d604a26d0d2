"""Per-design cost of evaluating a model's full replica grid, for two source trees.

The grid gives each tier every replica count from 1 to N: N^tiers
designs, 10^4 for the bundled model at N = 10.  One timing evaluates the
grid with ``Evaluator.evaluate_all``, with the server-net rates solved
beforehand, finds which designs meet each of two bound sets, and formats
``scatter_csv`` and ``radar_csv``: the work that ``patchdesign compare``
does for each design.  The trees are timed in alternating pairs, each
in a fresh interpreter (``_pairs``).  Prints the best and the median
microseconds per design for each tree.

    python scripts/design_grid.py --pairs 5 OLD/src NEW/src
    python scripts/design_grid.py --model net.json --n 6 OLD/src NEW/src
"""

from __future__ import annotations

import itertools
import sys
import time
from pathlib import Path

from _pairs import alternate, parser, report, run_python

# the paper's two regions: (phi, psi)
BOUNDS = ((0.2, 0.9962), (0.1, 0.9961))
REPEATS = 3  # timings per interpreter; the best is reported
CHILD = "--time-in-process"  # first argument of the timing interpreter


def time_grid(model_path: str, n: int) -> float:
    """Best seconds per design over REPEATS evaluations of the grid, in
    this interpreter, with patchdesign imported from its PYTHONPATH."""
    from patchdesign import Bounds, DesignSpec, Evaluator, load_model
    from patchdesign.evaluate import accepts, radar_csv, scatter_csv

    model = load_model(model_path)
    tiers = model.reachability.tiers
    designs = [DesignSpec("-".join(map(str, counts)), tuple(zip(tiers, counts)))
               for counts in itertools.product(range(1, n + 1), repeat=len(tiers))]
    bounds = [Bounds(asp_upper=phi, coa_lower=psi) for phi, psi in BOUNDS]
    evaluator = Evaluator(model)
    evaluator.rates  # solved once per model, not per design
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        evaluations = evaluator.evaluate_all(designs)
        regions = [[e.label for e in evaluations if accepts(e, b)] for b in bounds]
        artefacts = scatter_csv(evaluations), radar_csv(evaluations)
        best = min(best, time.perf_counter() - start)
    return best / len(designs)


def child_time(src: str, model_path: str, n: int) -> float:
    """Microseconds per design, timed in a fresh interpreter on ``src``."""
    out = run_python(src, [__file__, CHILD, model_path, str(n)],
                     capture_output=True, text=True).stdout
    return float(out) * 1e6


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == [CHILD]:
        print(time_grid(argv[1], int(argv[2])))
        return 0
    p = parser(__doc__, pairs=5)
    p.add_argument("--model", help="model file (default: the first tree's bundled model)")
    p.add_argument("--n", type=int, default=10, help="largest replica count per tier")
    args = p.parse_args(argv)
    model_path = args.model or str(Path(args.trees[0]) / "patchdesign" / "data"
                                   / "example_network.json")
    times = alternate(args.trees, args.pairs,
                      lambda src: child_time(src, model_path, args.n))
    report(times, "us per design", 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
