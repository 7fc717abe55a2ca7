r"""Command-line front end.

Subcommands:

* ``validate``        -- admissibility report for a graph config
* ``limit-q``         -- both variants of the limit-chain generator Q
  (``finite_volume.chain_form``) and Q dual's mass rates as CSV
* ``sweep``           -- kappa/t sweep against the limit chain
* ``resolvent-check`` -- small-lam averaging of the interval resolvent
* ``duality-check``   -- forward/adjoint pairing defect under refinement

Exit codes: 0 success, 1 graph validation failure, 2 I/O or parse failure,
3 an acceptance criterion (monotone decrease) failed, 4 the propagator did
not converge to its tolerance (the message carries the Krylov basis size,
each unconverged time with its last error estimate, and ``rtol``), met a
singular shifted matrix, could not resolve the mass, had no finite pole
for extreme times, or, on a conservative graph, gave a row whose mass
drift is at least half its err_l1 (the message carries kappa, t, both
numbers and the share; star, t = 1: from kappa = 1e10 on, fv and fem),
5 out of memory: numpy refused one allocation outright (``MemoryError``),
or the grid has more points than one float array can index.  A larger
run may instead be killed by the operating system: under Linux
overcommit a working set that outgrows physical memory ends in SIGKILL,
with no message and no exit code of this program.  Non-finite numbers
in flags, and a ``--levels`` below 1, are parse failures.

This module alone formats output.  Every CSV goes through ``_write_csv``
and is deterministic: a header row, fixed column order, ``\n`` line ends,
numbers printed by ``_fmt`` with 17 significant digits (they round-trip
exactly), and only a cell that holds ``,``, ``"``, ``\n`` or ``\r``
quoted, its quotes doubled.  The writer is this module's own, so the
bytes do not depend on the interpreter's ``csv`` module.  The sweep CSV
is its result's kappa-by-t table row by row, ordered by (kappa, t)
whatever the order of ``--t``.  Each producer formats its own cells, so
the writer takes str cells only.  A command's summary lines go through
the same ``_fmt`` and are printed by ``_summary``: on stdout, or on
stderr when the CSV takes stdout, so that stdout is then CSV only.

Each command imports only the modules it computes with, as the import
census of ``tests/test_imports.py`` pins; every operator is a numpy
``_banded.Banded`` record.  Scipy is loaded only at a sweep's two
fallbacks: a shifted matrix that needs SuperLU (more than
``_stepping.WOODBURY_MAX_ROWS`` rows outside the band, or pivoting)
loads ``scipy.sparse`` and ``scipy.sparse.linalg``, and a near-defective
Arnoldi matrix (``_stepping._small_exp_e1``) ``scipy.linalg``.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from .graphs import GraphConfigError, InvalidGraphError, load_graph, validate
from .grids import FEM, FV, edge_indicator, make_grid

OK, INVALID, IOERR, FAILED, UNCONVERGED, OUT_OF_MEMORY = 0, 1, 2, 3, 4, 5


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def _float_list(text: str):
    try:
        return [_finite_float(part) for part in text.split(",") if part != ""]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of finite numbers: {text!r}"
        )


def _open_out(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _summary(path):
    """``print`` for the summary of a command whose CSV goes to ``path``."""
    stream = sys.stderr if path is None or path == "-" else sys.stdout
    return functools.partial(print, file=stream)


# what makes a cell quoted: the separator, the quote, either line break
_QUOTED = re.compile('[,"\n\r]')


def _csv_line(cells) -> str:
    """The str ``cells`` joined by commas.  One scan of their joined text
    decides whether any needs quoting; only then is each that does
    wrapped in quotes, its own quotes doubled."""
    if _QUOTED.search("".join(cells)) is None:
        return ",".join(cells)
    return ",".join('"' + cell.replace('"', '""') + '"' if _QUOTED.search(cell) else cell
                    for cell in cells)


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows``, sequences of str cells (numbers
    already through ``_fmt``), to the ``--out`` stream (stdout for None or
    '-'), one ``_csv_line`` and one ``write`` each.  ``rows`` may be a
    generator; it is written as it comes."""
    fh, close = _open_out(path)
    try:
        fh.write(_csv_line(header) + "\n")
        for row in rows:
            fh.write(_csv_line(row) + "\n")
    finally:
        if close:
            fh.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphdiff",
        description="Diffusion on metric graphs with semipermeable membranes "
        "and its fast-diffusion Markov-chain limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph config")
    p.add_argument("--graph", required=True, help="JSON graph config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("limit-q", help="limit-chain generators as CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.set_defaults(func=cmd_limit_q)

    p = sub.add_parser("sweep", help="kappa sweep against the limit chain")
    p.add_argument("--graph", required=True)
    p.add_argument("--kappa", type=_float_list, default=[1.0, 10.0, 100.0, 1000.0, 10000.0])
    p.add_argument("--t", type=_float_list, default=[0.25, 0.5, 1.0, 2.0])
    p.add_argument("--h", type=_finite_float, default=0.005, help="target cell width")
    p.add_argument("--disc", choices=[FV, FEM], default=FV)
    p.add_argument("--trace-order", type=int, choices=[1, 2], default=1)
    p.add_argument(
        "--phi0",
        default=None,
        help="initial state: 'indicator:<edge id>' (default: first edge) or 'uniform'",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("resolvent-check", help="small-lam averaging table")
    p.add_argument("--a", type=_finite_float, default=0.0)
    p.add_argument("--b", type=_finite_float, default=1.0)
    p.add_argument("--lambdas", type=_float_list, default=[1e-1, 1e-2, 1e-3, 1e-4])
    p.add_argument(
        "--phi",
        default="poly:0,1",
        help="source: 'poly:c0,c1,...' (ascending coefficients)",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_resolvent_check)

    p = sub.add_parser("duality-check", help="pairing defect refinement study")
    p.add_argument("--graph", required=True)
    p.add_argument("--kappa", type=_finite_float, default=1.0)
    p.add_argument("--h", type=_finite_float, default=0.04, help="coarsest cell width")
    p.add_argument("--levels", type=_positive_int, default=3)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trace-order", type=int, choices=[1, 2], default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_duality_check)

    return parser


def cmd_validate(args) -> int:
    graph = load_graph(args.graph)
    report = validate(graph)
    if report.ok:
        print(f"valid graph with {graph.n_edges} edge(s)")
    else:
        for problem in report.problems:
            print(f"problem: {problem}")
    print(f"conservative: {str(report.conservative).lower()}")
    return OK if report.ok else INVALID


def _load_valid(path):
    """Load a graph config; an invalid one raises InvalidGraphError, which
    ``main`` reports as one 'problem: ...' line per problem."""
    graph = load_graph(path)
    graph.exchange  # validates once; every derivation reuses the cached matrix
    return graph


def _limit_q_rows(graph, entries, mass_rate):
    """One CSV row per edge of each variant's Q, given as {(i, j): value}
    in row-major order: the variant, the edge id, then the literal "0"
    (which is ``_fmt(0.0)``) except at the stored entries, so only those
    are formatted; last ``mass_rate``, the dual's weighted column sums."""
    for variant, stored in entries.items():
        by_row = {}
        for (i, j), x in stored.items():
            by_row.setdefault(i, []).append((j, x))
        for i, edge_id in enumerate(graph.edge_ids):
            row = [variant, edge_id] + ["0"] * graph.n_edges
            for j, x in by_row.get(i, ()):
                row[2 + j] = _fmt(x)
            yield row
    yield ["mass_rate", ""] + [_fmt(x) for x in mass_rate]


def cmd_limit_q(args) -> int:
    graph = _load_valid(args.graph)
    from . import finite_volume

    entries = {}
    for variant, adjoint in (("dual", True), ("primal", False)):
        rows, cols, vals = finite_volume.chain_form(graph, adjoint).matrix.triplets()
        entries[variant] = dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist()))
        if adjoint:
            # d^T Q, each column summed down its rows of the row-major listing
            mass_rate = np.bincount(cols, graph.lengths[rows] * vals, graph.n_edges)
    ids = graph.edge_ids
    _write_csv(args.out, ["variant", "edge"] + list(ids),
               _limit_q_rows(graph, entries, mass_rate))
    say = _summary(args.out)
    dual, primal = entries.values()
    # row-major, as the listing has always been
    differ = [key for key in sorted(dual.keys() | primal.keys())
              if dual.get(key, 0.0) != primal.get(key, 0.0)]
    for i, j in differ:
        say(
            f"variants differ at ({ids[i]}, {ids[j]}): "
            f"dual {_fmt(dual.get((i, j), 0.0))} vs primal {_fmt(primal.get((i, j), 0.0))}"
        )
    say(f"entries differing between variants: {len(differ)}")
    return OK


def _phi0_from_flag(graph, flag):
    if flag is None or flag == "indicator":
        return edge_indicator(0)
    if flag.startswith("indicator:"):
        edge_id = flag[len("indicator:"):]
        try:
            return edge_indicator(graph.index_of(edge_id))
        except KeyError:
            raise GraphConfigError(f"--phi0 references unknown edge {edge_id!r}")
    if flag == "uniform":
        return lambda i, x: np.ones_like(np.asarray(x, dtype=float))
    raise GraphConfigError(f"unsupported --phi0 value {flag!r}")


def cmd_sweep(args) -> int:
    graph = _load_valid(args.graph)
    phi0 = _phi0_from_flag(graph, args.phi0)
    grid = make_grid(graph, args.h)
    from . import _stepping, evolution

    try:
        result = evolution.kappa_sweep(graph, grid, args.kappa, args.t, phi0,
                                       discretization=args.disc, trace_order=args.trace_order)
    except _stepping.StepControlError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return UNCONVERGED
    rows = result.table.reshape(-1, len(evolution.CSV_COLUMNS)).tolist()
    _write_csv(args.out, evolution.CSV_COLUMNS, (list(map(_fmt, row)) for row in rows))
    say = _summary(args.out)
    verdicts = result.nonincreasing()
    for t, ok in zip(result.times(), verdicts):
        say(
            f"t={_fmt(t)}: err {' -> '.join(_fmt(e) for e in result.errors(t))}"
            f" ({'nonincreasing' if ok else 'NOT nonincreasing'})"
        )
    return OK if verdicts.all() else FAILED


def _phi_from_flag(flag):
    from numpy.polynomial import Polynomial

    kind, _, rest = flag.partition(":")
    if kind != "poly" or not rest:
        raise GraphConfigError(f"unsupported --phi value {flag!r}")
    try:
        coeffs = [_finite_float(c) for c in rest.split(",")]
    except argparse.ArgumentTypeError:
        raise GraphConfigError(f"bad polynomial coefficients in {flag!r}")
    return Polynomial(coeffs)


def cmd_resolvent_check(args) -> int:
    phi = _phi_from_flag(args.phi)
    from . import resolvent
    from .resolvent import AVERAGING_SLACK, FINAL_DISTANCE_MAX

    # extreme flags overflow; a non-finite distance is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        table = resolvent.averaging_limit_check(args.a, args.b, phi, args.lambdas)
    _write_csv(args.out, ["lambda", "l1_distance"], (list(map(_fmt, row)) for row in table.rows))
    bad = [(lam, dist) for lam, dist in table.rows if not math.isfinite(dist)]
    if bad:
        lam, dist = bad[0]
        print(f"non-finite l1 distance {dist} at lambda={lam:g}", file=sys.stderr)
    final = table.distances()[-1]
    decreasing = table.nonincreasing()
    vanishing = final <= FINAL_DISTANCE_MAX
    say = _summary(args.out)
    say(f"average: {_fmt(table.average)}")
    say(f"distances nonincreasing ({AVERAGING_SLACK:.0%} slack): {str(decreasing).lower()}")
    say(f"final distance {_fmt(final)} <= {FINAL_DISTANCE_MAX:g}: {str(vanishing).lower()}")
    return OK if (decreasing and vanishing) else FAILED


def cmd_duality_check(args) -> int:
    graph = _load_valid(args.graph)
    from . import finite_volume

    rng = np.random.default_rng(args.seed)
    raw = rng.uniform(-1.0, 1.0, size=(graph.n_edges, 4))
    raw2 = rng.uniform(-1.0, 1.0, size=(graph.n_edges, 4))
    hs = [args.h / 2**level for level in range(args.levels)]
    # a tiny kappa overflows the fitted slopes, and a defect that
    # underflows to 0 makes the next ratio x/0: a non-finite defect is
    # reported below, a ratio is printed as the nan or inf it is
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f = finite_volume.with_primal_conditions(graph, args.kappa, raw)
        phi = finite_volume.with_dual_conditions(graph, args.kappa, raw2)
        defects = [
            finite_volume.duality_defect(
                graph, make_grid(graph, h), args.kappa, f, phi, trace_order=args.trace_order
            )
            for h in hs
        ]
        ratios = np.divide(defects[1:], defects[:-1])
    _write_csv(args.out, ["h", "defect", "ratio"], [
        [_fmt(h), _fmt(defect), "" if k == 0 else _fmt(ratios[k - 1])]
        for k, (h, defect) in enumerate(zip(hs, defects))
    ])
    # an inf or nan defect fails at any level; inf > 0.75 * inf would not
    bad = [(h, defect) for h, defect in zip(hs, defects) if not math.isfinite(defect)]
    if bad:
        h, defect = bad[0]
        print(f"non-finite duality defect {defect} at h={h:g} (kappa={args.kappa:g})",
              file=sys.stderr)
    ok = not bad
    floor = 1e-12 * max(1.0, defects[0])
    say = _summary(args.out)
    for h, prev, cur, ratio in zip(hs[1:], defects, defects[1:], ratios):
        if cur > floor and cur > 0.75 * prev:
            ok = False
        say(f"h={_fmt(h)}: defect {_fmt(cur)} (ratio {_fmt(ratio)})")
    return OK if ok else FAILED


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return OUT_OF_MEMORY
    except InvalidGraphError as exc:
        for problem in str(exc).splitlines():
            print(f"problem: {problem}", file=sys.stderr)
        return INVALID
    except (OSError, ValueError) as exc:
        # config and flag errors (GraphConfigError is a ValueError), and
        # flags that parse as numbers but fail the library's preconditions
        # (decreasing kappa lists, negative times, ...), are user input errors
        print(f"error: {exc}", file=sys.stderr)
        return IOERR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
