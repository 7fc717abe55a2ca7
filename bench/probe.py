"""Set-up probe: what a fresh run pays before its first assembly or solve.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 bench/probe.py <graphdiff arguments>

Imports ``graphdiff``, parses the command's flags with the CLI's own
parser, then loads and validates its graph and builds its grids (one per
refinement level), or parses its polynomial source.  Prints
``{"import_s": ..., "load_s": ...}``; the caller times the whole process.
"""

import json
import sys
import time


def main(argv) -> int:
    t0 = time.perf_counter()
    import graphdiff
    import graphdiff.cli
    from numpy.polynomial import Polynomial

    t1 = time.perf_counter()
    args = graphdiff.cli.build_parser().parse_args(argv)
    if args.command == "resolvent-check":
        _, _, coeffs = args.phi.partition(":")
        Polynomial([float(c) for c in coeffs.split(",")])
    else:
        graph = graphdiff.load_graph(args.graph)
        if not graphdiff.validate(graph).ok:
            print(f"invalid graph {args.graph}", file=sys.stderr)
            return 1
        levels = args.levels if args.command == "duality-check" else 1
        for k in range(levels):
            graphdiff.make_grid(graph, args.h / 2**k)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
