"""Traced run: one ``graphdiff`` CLI command in-process, with layer spans.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 bench/traced.py SPANS_JSON -- <graphdiff arguments>

The spans come from wrappers in this file, installed around the public
functions of each ``graphdiff`` module at every module binding that holds
them (``from .graphs import validate`` makes a second binding in
``cli``).  The program's own code is not changed.  Each span records its
name, start, end and parent; spans stay in memory and are written to
SPANS_JSON when the command returns.  The process exits with the
command's exit code.

``layer_metrics`` turns a span file into the per-layer metrics.  A layer's
time is the self time of its spans: duration minus the part covered by
child spans (the program is serial, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time

# (span name, module, attribute); "Class.method" attributes patch the class.
TARGETS = (
    ("graphs.load_graph", "graphs", "load_graph"),
    ("graphs.validate", "graphs", "validate"),
    ("graphs.require_valid", "graphs", "require_valid"),
    ("graphs.trace_functionals", "graphs", "trace_functionals"),
    ("graphs.primal_condition_table", "graphs", "primal_condition_table"),
    ("grids.make_grid", "grids", "make_grid"),
    ("grids.EdgeGrid.sample", "grids", "EdgeGrid.sample"),
    ("grids.EdgeGrid.weights", "grids", "EdgeGrid.weights"),
    ("finite_volume.dual_generator", "finite_volume", "dual_generator"),
    ("finite_volume.primal_generator", "finite_volume", "primal_generator"),
    ("finite_volume.with_primal_conditions", "finite_volume", "with_primal_conditions"),
    ("finite_volume.with_dual_conditions", "finite_volume", "with_dual_conditions"),
    ("finite_volume.duality_defect", "finite_volume", "duality_defect"),
    ("galerkin.assemble_forms", "galerkin", "assemble_forms"),
    ("galerkin.l2_generator", "galerkin", "l2_generator"),
    ("evolution.kappa_sweep", "evolution", "kappa_sweep"),
    ("evolution.propagate", "evolution", "propagate"),
    ("evolution.norms", "evolution", "norms"),
    ("chain.project_averages", "chain", "project_averages"),
    ("chain.PiecewiseConstant.lift", "chain", "PiecewiseConstant.lift"),
    ("chain.chain_generator", "chain", "chain_generator"),
    ("chain.propagator", "chain", "propagator"),
    ("resolvent.averaging_limit_check", "resolvent", "averaging_limit_check"),
    ("resolvent.resolvent_apply", "resolvent", "resolvent_apply"),
)

# theta_13 of the scaling-and-squaring rule (Higham 2005) that
# scipy.linalg.expm follows: ||A||_1 is halved until it is below this.
EXPM_THETA_13 = 5.371920351148152


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "parent": parent, "start": time.perf_counter(), "end": None})
        self._stack.append(sid)
        return sid

    def close(self, sid: int, **attrs) -> None:
        span = self.spans[sid]
        span["end"] = time.perf_counter()
        if attrs:
            span["attrs"] = attrs
        if self._stack and self._stack[-1] == sid:
            self._stack.pop()
        else:
            raise RuntimeError(f"span {span['name']} closed out of order")


def _one_norm(matrix) -> float:
    # numpy is imported here, not at the top, so that the child's
    # setup.import span covers it
    import numpy as np
    import scipy.sparse as sp

    if sp.issparse(matrix):
        return float(abs(matrix).sum(axis=0).max())
    return float(np.abs(np.asarray(matrix)).sum(axis=0).max())


def _attrs_for(name: str):
    """Computed work counts recorded with a span, from its arguments and
    result.  They are computed after the span closes."""
    if name in ("finite_volume.dual_generator", "finite_volume.primal_generator"):
        return lambda res, *a, **k: {"unknowns": int(res.n), "nnz": int(res.matrix.nnz)}
    if name in ("graphs.trace_functionals", "graphs.primal_condition_table"):
        return lambda res, *a, **k: {"bytes": int(res.coeffs.nbytes)}
    if name == "evolution.propagate":
        # one norm per generator; the matrix is kept so its id stays unique
        norms = {}

        def propagate_attrs(res, gen, phi0, t, *a, **k):
            key = id(gen.matrix)
            if key not in norms:
                norms[key] = (gen.matrix, _one_norm(gen.matrix))
            return {"t": float(t), "norm1_tA": float(t) * norms[key][1]}

        return propagate_attrs
    if name == "resolvent.resolvent_apply":
        return lambda res, *a, **k: {"points": int(len(res))}
    return None


def _wrap(fn, name, tracer):
    attrs = _attrs_for(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if attrs is not None:
            tracer.spans[sid]["attrs"] = attrs(result, *args, **kwargs)
        return result

    return traced


class _CountingFile:
    """The CLI's output file, counted and timed from open to close."""

    def __init__(self, open_out, path, tracer):
        self._tracer = tracer
        self._sid = tracer.open("cli.csv_write")
        self._fh, _ = open_out(path)
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode("utf-8"))
        return self._fh.write(text)

    def close(self):
        self._fh.close()
        self._tracer.close(self._sid, bytes=self.bytes)


def install(tracer: Tracer) -> None:
    """Wrap every target at every ``graphdiff`` module binding."""
    import importlib

    modules = {
        name: importlib.import_module(f"graphdiff.{name}")
        for name in ("graphs", "grids", "finite_volume", "galerkin", "evolution", "chain", "resolvent", "cli")
    }
    bindings = [importlib.import_module("graphdiff")] + list(modules.values())
    for span_name, module, attr in TARGETS:
        owner = modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, _wrap(getattr(cls, meth), span_name, tracer))
            continue
        original = getattr(owner, attr)
        wrapped = _wrap(original, span_name, tracer)
        for mod in bindings:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    cli = modules["cli"]
    open_out = cli._open_out

    def traced_open_out(path):
        if path is None or path == "-":
            return open_out(path)
        return _CountingFile(open_out, path, tracer), True

    cli._open_out = traced_open_out


def main(argv) -> int:
    spans_path = argv[0]
    if argv[1:2] != ["--"]:
        print("usage: traced.py SPANS_JSON -- <graphdiff arguments>", file=sys.stderr)
        return 2
    cli_argv = argv[2:]
    tracer = Tracer()
    sid = tracer.open("setup.import")
    import graphdiff.cli

    tracer.close(sid)
    install(tracer)
    sid = tracer.open("cli.main")
    try:
        code = graphdiff.cli.main(cli_argv)
    finally:
        tracer.close(sid)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans}, fh)
    return code


# ---------------------------------------------------------------------------
# aggregation

# per-layer time metrics: metric name -> span names whose self time it sums
TIME_LAYERS = {
    "graphs.load_s": ("graphs.load_graph",),
    "graphs.validate_s": ("graphs.validate", "graphs.require_valid"),
    "graphs.trace_table_s": ("graphs.trace_functionals", "graphs.primal_condition_table"),
    "grids.sample_s": ("grids.make_grid", "grids.EdgeGrid.sample", "grids.EdgeGrid.weights"),
    "finite_volume.assemble_s": ("finite_volume.dual_generator", "finite_volume.primal_generator"),
    "finite_volume.conditions_s": ("finite_volume.with_primal_conditions", "finite_volume.with_dual_conditions"),
    "finite_volume.pairing_s": ("finite_volume.duality_defect",),
    "galerkin.assemble_s": ("galerkin.assemble_forms",),
    "galerkin.l2_generator_s": ("galerkin.l2_generator",),
    "evolution.propagate_s": ("evolution.propagate",),
    "evolution.measure_s": ("evolution.norms", "chain.project_averages", "chain.PiecewiseConstant.lift"),
    "evolution.sweep_self_s": ("evolution.kappa_sweep",),
    "chain.generator_s": ("chain.chain_generator",),
    "chain.propagator_s": ("chain.propagator",),
    "resolvent.apply_s": ("resolvent.resolvent_apply",),
    "resolvent.check_self_s": ("resolvent.averaging_limit_check",),
    "cli.csv_write_s": ("cli.csv_write",),
    "cli.main_self_s": ("cli.main",),
}


def expm_squarings(norm1: float) -> int:
    """Squarings scaling-and-squaring spends on a matrix of 1-norm norm1."""
    if norm1 <= EXPM_THETA_13:
        return 0
    return math.ceil(math.log2(norm1 / EXPM_THETA_13))


def layer_metrics(spans):
    """Per-layer metrics from a span list (self times and computed counts),
    and the seconds spent inside layer spans."""
    duration = [s["end"] - s["start"] for s in spans]
    child_time = [0.0] * len(spans)
    for sid, s in enumerate(spans):
        if s["parent"] is not None:
            child_time[s["parent"]] += duration[sid]
    self_time = [max(0.0, d - c) for d, c in zip(duration, child_time)]

    by_name = {}
    for sid, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(sid)

    def ids(*names):
        return [sid for n in names for sid in by_name.get(n, ())]

    def attrs(key, *names):
        # a call that raised has no attributes; it counts as zero work
        return [spans[sid].get("attrs", {}).get(key, 0) for sid in ids(*names)]

    out = {metric: sum(self_time[sid] for sid in ids(*names)) for metric, names in TIME_LAYERS.items()}
    out["graphs.validate_calls"] = len(ids("graphs.validate"))
    tables = attrs("bytes", "graphs.trace_functionals", "graphs.primal_condition_table")
    out["graphs.trace_table_calls"] = len(tables)
    out["graphs.trace_table_mb"] = max(tables, default=0) / 1e6
    assemblies = ("finite_volume.dual_generator", "finite_volume.primal_generator")
    out["finite_volume.assemble_calls"] = len(ids(*assemblies))
    out["finite_volume.unknowns"] = sum(attrs("unknowns", *assemblies))
    out["finite_volume.nnz"] = sum(attrs("nnz", *assemblies))
    step_times = [duration[sid] for sid in ids("evolution.propagate")]
    out["evolution.propagate_calls"] = len(step_times)
    out["evolution.propagate_s.p50"] = statistics.median(step_times) if step_times else 0.0
    out["evolution.propagate_s.max"] = max(step_times, default=0.0)
    norms = attrs("norm1_tA", "evolution.propagate")
    out["evolution.norm1_tA_max"] = max(norms, default=0.0)
    out["evolution.expm_squarings"] = sum(expm_squarings(v) for v in norms)
    out["chain.propagator_calls"] = len(ids("chain.propagator"))
    out["resolvent.apply_calls"] = len(ids("resolvent.resolvent_apply"))
    out["resolvent.points"] = sum(attrs("points", "resolvent.resolvent_apply"))
    out["cli.csv_bytes"] = sum(attrs("bytes", "cli.csv_write"))

    # time inside layer spans: the top-level spans below cli.main, plus
    # the package import
    roots = set(ids("cli.main"))
    covered = sum(duration[sid] for sid, s in enumerate(spans) if s["parent"] in roots)
    covered += sum(duration[sid] for sid in ids("setup.import"))
    return out, covered


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
