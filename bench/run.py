"""graphdiff benchmark: seeded CLI workloads, timed end to end.

Usage, from the repository root::

    python3 bench/run.py --workload star-fv --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 0

``--trace 0`` runs the workload's ``graphdiff`` command in fresh
processes, tracing off, and reports the end-to-end metrics: wall time,
CPU time and peak RSS of the process, the set-up time of a fresh
interpreter, and the share of output rows that failed their check.
``--trace 1`` runs the command once untraced and once in-process under
``traced.py``'s layer spans, checks that both write the same CSV bytes,
and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every child
process runs serially with ``GRAPHDIFF_THREADS`` unset and the BLAS
thread count fixed at ``BLAS_THREADS``.  Scratch files go to
``.bench_work/`` in the repository root and are removed on exit.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import traced  # noqa: E402
import workloads  # noqa: E402

# Two threads = nproc on the 2-core reference box; set the same way on
# every commit so cpu_s and wall_s compare like with like.
BLAS_THREADS = 2
# timed set-up probes per run, and how many go before each CLI run
SETUP_REPEATS = 9
PROBES_PER_GAP = 3
# a traced run makes two CLI runs and must end within 180 s
CHILD_TIMEOUT_S = 80.0

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# per-layer metrics: name, unit, and whether higher is better
PER_LAYER = (
    ("graphs.load_s", "s", False),
    ("graphs.validate_s", "s", False),
    ("graphs.validate_calls", "count", False),
    ("graphs.trace_table_s", "s", False),
    ("graphs.trace_table_calls", "count", False),
    ("graphs.trace_table_mb", "MB", False),
    ("grids.sample_s", "s", False),
    ("finite_volume.assemble_s", "s", False),
    ("finite_volume.assemble_calls", "count", False),
    ("finite_volume.unknowns", "count", False),
    ("finite_volume.nnz", "count", False),
    ("finite_volume.conditions_s", "s", False),
    ("finite_volume.pairing_s", "s", False),
    ("galerkin.assemble_s", "s", False),
    ("galerkin.l2_generator_s", "s", False),
    ("evolution.propagate_s", "s", False),
    ("evolution.propagate_calls", "count", False),
    ("evolution.propagate_s.p50", "s", False),
    ("evolution.propagate_s.max", "s", False),
    ("evolution.norm1_tA_max", "1", False),
    ("evolution.expm_squarings", "count", False),
    ("evolution.mass_drift_max", "1", False),
    ("evolution.measure_s", "s", False),
    ("evolution.sweep_self_s", "s", False),
    ("chain.generator_s", "s", False),
    ("chain.propagator_s", "s", False),
    ("chain.propagator_calls", "count", False),
    ("resolvent.apply_s", "s", False),
    ("resolvent.apply_calls", "count", False),
    ("resolvent.points", "count", False),
    ("resolvent.check_self_s", "s", False),
    ("resolvent.rows_failed", "count", False),
    ("cli.csv_write_s", "s", False),
    ("cli.csv_bytes", "count", False),
    ("cli.main_self_s", "s", False),
    ("setup.import_s", "s", False),
    ("setup.load_s", "s", False),
    ("trace.wall_s", "s", False),
    ("trace.untraced_wall_s", "s", False),
    ("trace.overhead_s", "s", False),
    ("trace.coverage", "ratio", True),
)

# counts that repeat exactly for a given seed; labelled "computed"
COMPUTED = {
    "graphs.validate_calls", "graphs.trace_table_calls", "graphs.trace_table_mb",
    "finite_volume.assemble_calls", "finite_volume.unknowns", "finite_volume.nnz",
    "evolution.propagate_calls", "evolution.norm1_tA_max", "evolution.expm_squarings",
    "evolution.mass_drift_max", "chain.propagator_calls", "resolvent.apply_calls",
    "resolvent.points", "resolvent.rows_failed", "cli.csv_bytes",
}


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Child:
    """One finished child process and its wall time from launch to exit.

    The child leads a new process session, so a timeout stops every process
    it started.
    """

    def __init__(self, argv, workdir, tag):
        self.stdout_path = os.path.join(workdir, f"{tag}.stdout")
        self.stderr_path = os.path.join(workdir, f"{tag}.stderr")
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=child_env(), stdout=out, stderr=err, start_new_session=True)
            timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, _ = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - start
        self.exit_code = os.waitstatus_to_exitcode(status)
        proc.returncode = self.exit_code

    def stdout(self) -> str:
        with open(self.stdout_path, encoding="utf-8", errors="replace") as fh:
            return fh.read()


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GRAPHDIFF_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


CLI = [sys.executable, "-c", "import sys; from graphdiff.cli import main; sys.exit(main(sys.argv[1:]))"]

Measured = collections.namedtuple("Measured", ["wall", "cpu", "rss_mb", "exit_code"])


def run_measured(argv, workdir, tag) -> Measured:
    """Run argv under ``spawn.py``, which times it from launch to exit and
    reads a peak RSS that is the command's own."""
    result = os.path.join(workdir, f"{tag}.json")
    child = Child([sys.executable, os.path.join(HERE, "spawn.py"), result, "--"] + argv, workdir, tag)
    try:
        with open(result, encoding="utf-8") as fh:
            m = json.load(fh)
    except (OSError, ValueError):
        # stopped before it could report: a failed run
        return Measured(child.wall, 0.0, 0.0, child.exit_code or -1)
    finally:
        if os.path.exists(result):
            os.remove(result)
    return Measured(m["wall_s"], m["cpu_s"], m["peak_rss_mb"], m["exit_code"])


def run_cli(workload, workdir, tag, out_csv) -> Measured:
    if os.path.exists(out_csv):
        os.remove(out_csv)
    return run_measured(CLI + workload.argv(out_csv), workdir, tag)


class SetupProbes:
    """Set-up probes of one workload: fresh interpreters that import
    graphdiff and load the workload's inputs (``probe.py``).  One untimed
    probe runs first, to fill the bytecode and file caches that every
    later run finds full."""

    def __init__(self, workload, workdir):
        self.argv = [sys.executable, os.path.join(HERE, "probe.py")] + workload.argv()
        self.workdir = workdir
        self.walls, self.imports, self.loads = [], [], []
        self._probe()

    def _probe(self):
        child = Child(self.argv, self.workdir, "probe")
        if child.exit_code != 0:
            with open(child.stderr_path, encoding="utf-8", errors="replace") as fh:
                raise RuntimeError(f"set-up probe exited {child.exit_code}: {fh.read()[-2000:]}")
        return child

    def run(self, count):
        """Up to ``count`` more timed probes, never more than SETUP_REPEATS."""
        for _ in range(min(count, SETUP_REPEATS - len(self.walls))):
            child = self._probe()
            inner = json.loads(child.stdout().strip().splitlines()[-1])
            self.walls.append(child.wall)
            self.imports.append(inner["import_s"])
            self.loads.append(inner["load_s"])

    def medians(self):
        return statistics.median(self.walls), statistics.median(self.imports), statistics.median(self.loads)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def environment() -> str:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}, "
        f"BLAS {blas}, BLAS threads {BLAS_THREADS}, nproc {nproc}, GRAPHDIFF_THREADS unset (serial sweeps)"
    )


def describe(workload):
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}[workload.name]
    except (OSError, ValueError, KeyError):
        why = "not a BENCHMARK.json workload; see bench/README.md"
    print(f"workload {workload.name} (seed {workload.seed})")
    print(f"  command: graphdiff {' '.join(workload.argv('<out.csv>'))}"[:400])
    print(f"  shape:   graphdiff {workload.command_shape}")
    print(f"  sizes:   {json.dumps(workload.sizes())}")
    print(f"  why:     {why}")


def report_outcomes(outcomes):
    """Print fail_frac and any check failures; a failure counts against
    ``correct`` unless the workload records it as a known defect."""
    rows = sum(o.rows for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    known = sum(o.known_failed for o in outcomes)
    print(f"  {'fail_frac':<14} {failed / rows:>12.4f} {'1':<5} "
          f"{failed} of {rows} rows over {len(outcomes)} run(s) failed their check")
    if known:
        print(f"  known failure, left standing: {known} of the failed rows (see bench/README.md)")
    for o in outcomes:
        for problem in o.problems[:10]:
            print(f"  CHECK FAILED: {problem}", file=sys.stderr)
    correct = not any(o.problems for o in outcomes)
    return correct, rows, failed


def measure(workload, seconds, workdir):
    """End-to-end metrics, tracing off."""
    probes = SetupProbes(workload, workdir)
    workload.prepare_reference()
    runs, outcomes = [], []
    busy = 0.0
    while True:
        # set-up probes go in the gaps between CLI runs, so that set-up
        # and run times sample the same stretch of machine load
        probes.run(PROBES_PER_GAP)
        start = time.perf_counter()
        child = run_cli(workload, workdir, f"cli{len(runs)}", workload.out_csv)
        runs.append(child)
        outcomes.append(workload.check(child.exit_code, workload.out_csv))
        busy += time.perf_counter() - start
        # stop before a further CLI run would overrun the measuring time
        if busy + child.wall > seconds:
            break
    probes.run(SETUP_REPEATS)
    setup_s, _, _ = probes.medians()
    values = {
        "wall_s": [c.wall for c in runs],
        "cpu_s": [c.cpu for c in runs],
        "peak_rss_mb": [c.rss_mb for c in runs],
    }
    metrics = {name: statistics.median(v) for name, v in values.items()}
    metrics["setup_s"] = setup_s
    for name, unit in END_TO_END:
        note = ""
        if name in values:
            q1, q3 = quartiles(values[name])
            note = f"median of {len(runs)} run(s), quartiles {q1:.4f} .. {q3:.4f}"
        elif name == "setup_s":
            note = f"median of {SETUP_REPEATS} fresh interpreters"
        print(f"  {name:<14} {metrics[name]:>12.4f} {unit:<5} {note}")
    correct, rows, failed = report_outcomes(outcomes)
    return correct, rows, failed, {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END}


def measure_traced(workload, workdir):
    """Per-layer metrics from one traced run, checked against an untraced one."""
    probes = SetupProbes(workload, workdir)
    probes.run(SETUP_REPEATS)
    _, import_s, load_s = probes.medians()
    workload.prepare_reference()
    plain_csv = os.path.join(workdir, "untraced.csv")
    traced_csv = os.path.join(workdir, "traced.csv")
    spans_path = os.path.join(workdir, "spans.json")
    plain = run_cli(workload, workdir, "untraced", plain_csv)
    outcomes = [workload.check(plain.exit_code, plain_csv)]
    if os.path.exists(traced_csv):
        os.remove(traced_csv)
    argv = [sys.executable, os.path.join(HERE, "traced.py"), spans_path, "--"] + workload.argv(traced_csv)
    run = run_measured(argv, workdir, "traced")
    outcomes.append(workload.check(run.exit_code, traced_csv))
    if run.exit_code != plain.exit_code:
        outcomes[-1].problems.append(f"traced run exited {run.exit_code}, untraced {plain.exit_code}")
    try:
        with open(plain_csv, "rb") as a, open(traced_csv, "rb") as b:
            identical = a.read() == b.read()
    except OSError:
        identical = False
    if not identical:
        outcomes[-1].problems.append("traced CSV differs from the untraced CSV")
    print(f"  traced CSV byte-identical to untraced: {str(identical).lower()}")
    try:
        with open(spans_path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
    except (OSError, ValueError, KeyError):
        spans = []
        outcomes[-1].problems.append("traced run wrote no spans")
    correct, rows, failed = report_outcomes(outcomes)

    metrics, covered = traced.layer_metrics(spans)
    metrics["evolution.mass_drift_max"] = workload.mass_drift_max(traced_csv)
    metrics["resolvent.rows_failed"] = (
        outcomes[-1].failed if isinstance(workload, workloads.ResolventAveraging) else 0
    )
    metrics["setup.import_s"] = import_s
    metrics["setup.load_s"] = load_s
    metrics["trace.wall_s"] = run.wall
    metrics["trace.untraced_wall_s"] = plain.wall
    metrics["trace.overhead_s"] = run.wall - plain.wall
    metrics["trace.coverage"] = covered / run.wall

    print(f"  traced wall {run.wall:.4f} s (base of every share below), untraced wall {plain.wall:.4f} s")
    for name, unit, _ in PER_LAYER:
        value = metrics[name]
        note = ""
        if name in traced.TIME_LAYERS:
            note = f"{100.0 * value / run.wall:6.2f}% of traced wall"
        elif name in COMPUTED:
            note = "computed"
        elif name == "trace.coverage":
            note = f"{covered:.4f} s inside layer spans of {run.wall:.4f} s traced wall"
        print(f"  {name:<30} {value:>16.6g} {unit:<6} {note}")
    result = {name: {"value": metrics[name], "unit": unit} for name, unit, _ in PER_LAYER}
    return correct, rows, failed, result


def run_workload(name, seed, seconds, trace, root_workdir):
    workdir = os.path.join(root_workdir, name)
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, workdir)
    describe(workload)
    if trace:
        return measure_traced(workload, workdir)
    return measure(workload, seconds, workdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/graphdiff/cli.py", workloads.STAR_CONFIG) if not os.path.isfile(p)]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    print(f"environment: {environment()}")
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    root_workdir = os.path.join(".bench_work", f"run-{os.getpid()}")
    os.makedirs(root_workdir)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, root_workdir)
    finally:
        shutil.rmtree(root_workdir, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass

    if len(names) == 1:
        correct, attempted, failed, metrics = results[names[0]]
    else:
        correct = all(r[0] for r in results.values())
        attempted = sum(r[1] for r in results.values())
        failed = sum(r[2] for r in results.values())
        metrics = {f"{name}/{m}": v for name, r in results.items() for m, v in r[3].items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
