"""Cold-start wall time of one patchdesign command, for two source trees.

Each pair runs ``python -m patchdesign <command>`` in a fresh interpreter
once per tree, in alternating order, so drift on a shared machine falls
on both trees alike.  Prints the best and the median wall time per tree.

    python scripts/cold_start.py --pairs 8 OLD/src NEW/src -- \\
        compare --model src/patchdesign/data/example_network.json --out /tmp/cmp
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time


def wall_time(src: str, command: list) -> float:
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "patchdesign", *command], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("trees", nargs=2, metavar="SRC", help="a directory holding patchdesign")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    times = {src: [] for src in args.trees}
    for pair in range(args.pairs):
        order = args.trees if pair % 2 == 0 else args.trees[::-1]
        for src in order:
            times[src].append(wall_time(src, command))
    for src, values in times.items():
        print(f"{src}: best {min(values):.3f} s, median {statistics.median(values):.3f} s "
              f"over {len(values)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
