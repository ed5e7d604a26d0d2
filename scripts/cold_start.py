"""Cold-start wall time of one patchdesign command, for two source trees.

Each pair runs ``python -m patchdesign <command>`` in a fresh interpreter
once per tree, in alternating order, so drift on a shared machine falls
on both trees alike.  Prints the best and the median wall time per tree.

    python scripts/cold_start.py --pairs 8 OLD/src NEW/src -- \\
        compare --model src/patchdesign/data/example_network.json --out /tmp/cmp
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time

from _pairs import alternate, parser, report, run_python


def wall_time(src: str, command: list) -> float:
    start = time.perf_counter()
    run_python(src, ["-m", "patchdesign", *command], stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def main(argv=None) -> int:
    p = parser(__doc__, pairs=8)
    p.add_argument("command", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = p.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    report(alternate(args.trees, args.pairs, lambda src: wall_time(src, command)), "s", 3)
    return 0


if __name__ == "__main__":
    sys.exit(main())
