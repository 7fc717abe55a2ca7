"""What each command loads.  The census,
``test_each_command_loads_exactly_its_modules``, runs each command on
the shipped configs, and ``resolvent-check``, once, and pins the rule:
each command loads exactly the ``graphdiff`` modules it computes with,
``numpy.polynomial`` for ``resolvent-check`` only, and no ``numpy.ma``,
scipy, ``dataclasses`` or ``csv`` module; the benchmark's set-up probe
loads neither of the last two either.  Only a sweep whose shifted matrix needs SuperLU loads
scipy, and then the solver stack.  Every check runs in a fresh
interpreter and reads ``sys.modules``; this one has long since imported
everything."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_path, write_config
import graphdiff

ROOT = Path(__file__).resolve().parents[1]
STAR = str(ROOT / "configs" / "star.json")
CHAIN = str(ROOT / "configs" / "chain.json")
PROBE = str(ROOT / "bench" / "probe.py")
SOLVER = {"scipy.sparse.linalg", "scipy.linalg"}
# what loading, validating and gridding a graph needs: the set-up that
# the benchmark's probe times, before any assembly
SETUP = {"graphdiff"} | {f"graphdiff.{name}" for name in ("cli", "graphs", "grids")}
# stdlib modules that no command and no probe loads: the records are
# plain classes and NamedTuples, and the CLI quotes its own CSV cells
UNLOADED = {"dataclasses", "csv"}

# runs one CLI command, then prints its exit code and the modules loaded
# from the top-level packages named in $PACKAGE (comma-separated)
_RUN_CLI = """
import contextlib, io, json, os, sys
from graphdiff.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, [m for m in sys.modules
                         if m.split(".")[0] in os.environ["PACKAGE"].split(",")]]))
"""

# the set-up probe of the benchmark, in-process, its own output swallowed
_RUN_PROBE = """
import contextlib, io, json, os, runpy, sys
probe = runpy.run_path(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = probe["main"](sys.argv[2:])
print(json.dumps([code, [m for m in sys.modules
                         if m.split(".")[0] in os.environ["PACKAGE"].split(",")]]))
"""


def _fresh(script, *args, package="scipy"):
    """Run ``script`` in a new interpreter, ``package`` in $PACKAGE; the
    pair it prints as JSON, the second item (module names) as a set."""
    src = str(Path(graphdiff.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": src, "PACKAGE": package},
        capture_output=True, text=True, check=True,
    )
    first, modules = json.loads(done.stdout)
    return first, set(modules)


@pytest.fixture(scope="module")
def run_once(tmp_path_factory):
    """``_fresh``, with one interpreter per distinct script and argv in
    this module, so tests that read the same command share its run; a CLI
    command that writes a table gets an ``--out`` file."""
    out = ["--out", str(tmp_path_factory.mktemp("census") / "out.csv")]
    run = functools.cache(lambda script, *args: _fresh(
        script, *args, *(out if script is _RUN_CLI and args[0] != "validate" else []),
        package="graphdiff,numpy,scipy,dataclasses,csv"))

    def read(script, *args, package="scipy"):
        code, modules = run(script, *args)
        return code, {m for m in modules if m.split(".")[0] in package.split(",")}
    return read


@pytest.fixture
def invalid_path(tmp_path):
    cfg = json.loads(Path(STAR).read_text())
    cfg["edges"][0]["sigma"] = -1.0
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["sweep", "--graph", STAR],
    ["duality-check", "--graph", STAR, "--levels", "2"],
    ["resolvent-check"],
])
def test_benchmark_setup_probe_loads_no_scipy(argv, run_once):
    assert run_once(_RUN_PROBE, PROBE, *argv) == (0, set())


@pytest.mark.parametrize("script, argv", [
    (_RUN_CLI, ["validate", "--graph", STAR]),
    (_RUN_PROBE, [PROBE, "resolvent-check"]),
    (_RUN_PROBE, [PROBE, "sweep", "--graph", STAR]),
    (_RUN_PROBE, [PROBE, "duality-check", "--graph", STAR, "--levels", "2"]),
], ids=["validate", "probe-resolvent-check", "probe-sweep", "probe-duality-check"])
def test_setup_loads_only_the_setup_modules(script, argv, run_once):
    # the limit chain is assembled by finite_volume, so a chain import in
    # the set-up path would put assembly into what the probe times
    code, modules = run_once(script, *argv, package="graphdiff,dataclasses,csv")
    assert code == 0
    assert not modules & UNLOADED
    assert modules <= SETUP


# the graphdiff modules beyond SETUP that assemble, and that propagate
ASSEMBLY = {"graphdiff._banded", "graphdiff.finite_volume"}
PROPAGATION = ASSEMBLY | {"graphdiff._stepping", "graphdiff.evolution"}
LONG = ["--t", "0,0.1,0.25,0.5,1,2,10"]
LARGE_KAPPA = ["--kappa", "1e4,1e5,1e6,1e7,1e8,1e9", "--t", "1"]

# id, command and flags, and the graphdiff modules beyond SETUP, of each
# command run on a shipped config
_GRAPH_COMMANDS = [
    ("validate", ["validate"], set()),
    ("limit-q", ["limit-q"], ASSEMBLY),
    *((f"sweep-{disc}{suffix}", ["sweep", "--disc", disc, *flags], loaded)
      for disc, loaded in (("fv", PROPAGATION), ("fem", PROPAGATION | {"graphdiff.galerkin"}))
      for suffix, flags in (("", []), ("-long", LONG), ("-large-kappa", LARGE_KAPPA))),
    ("sweep-order2", ["sweep", "--trace-order", "2"], PROPAGATION),
    ("sweep-order2-long", ["sweep", "--trace-order", "2", *LONG], PROPAGATION),
    ("duality-check", ["duality-check", "--trace-order", "1"], ASSEMBLY),
    ("duality-check-order2", ["duality-check", "--trace-order", "2"], ASSEMBLY),
]
# the star's rows carry the bare id, the chain's a -chain suffix
CENSUS = [
    *(pytest.param([command, "--graph", graph, *flags], loaded, id=name + suffix)
      for graph, suffix in ((STAR, ""), (CHAIN, "-chain"))
      for name, (command, *flags), loaded in _GRAPH_COMMANDS),
    pytest.param(["resolvent-check", "--lambdas", "1e-1,1e-2"], {"graphdiff.resolvent"},
                 id="resolvent-check"),
]


@pytest.mark.parametrize("argv, loaded", CENSUS)
def test_each_command_loads_exactly_its_modules(argv, loaded, run_once):
    # the duality cubics are sampled by finite_volume's own Horner pass
    code, modules = run_once(_RUN_CLI, *argv, package="graphdiff,numpy,scipy,dataclasses,csv")
    assert code == 0
    assert not modules & UNLOADED
    assert {m for m in modules if m.split(".")[0] == "graphdiff"} == SETUP | loaded
    assert ("numpy.polynomial" in modules) == (argv[0] == "resolvent-check")
    assert "numpy.ma" not in modules
    assert "scipy" not in modules  # a scipy module loads its package first


# single facts of census rows, each read from the census's own run
@pytest.mark.parametrize("argv, exit_code", [
    (["validate", "--graph", STAR], 0),
    (["resolvent-check", "--lambdas", "1e-1,1e-2"], 0),
])
def test_commands_without_sparse_matrices_load_no_scipy(argv, exit_code, run_once):
    assert run_once(_RUN_CLI, *argv) == (exit_code, set())


@pytest.mark.parametrize("argv", [
    ["limit-q", "--graph", STAR],
    ["duality-check", "--graph", STAR, "--trace-order", "1"],
])
def test_sparse_commands_load_no_solver(argv, run_once):
    # the limit chain and the duality pairing are Banded records too
    assert run_once(_RUN_CLI, *argv) == (0, set())


@pytest.mark.parametrize("graph", [STAR, CHAIN], ids=["star", "chain"])
@pytest.mark.parametrize("disc", ["fv", "fem"])
def test_sweep_loads_no_solver(graph, disc, run_once):
    # a default sweep assembles and factors its shifted matrices in numpy
    assert run_once(_RUN_CLI, "sweep", "--graph", graph, "--disc", disc) == (0, set())


@pytest.mark.parametrize("graph", [STAR, CHAIN], ids=["star", "chain"])
def test_second_order_sweep_loads_no_scipy(graph, run_once):
    # second-order traces rest on the probe solve, not on pivoting
    assert run_once(_RUN_CLI, "sweep", "--graph", graph, "--trace-order", "2") == (0, set())


@pytest.mark.parametrize("graph", [STAR, CHAIN], ids=["star", "chain"])
@pytest.mark.parametrize("flags", [["--disc", "fv"], ["--disc", "fem"], ["--trace-order", "2"]],
                         ids=["fv", "fem", "order2"])
def test_sweep_loads_no_masked_arrays(graph, flags, run_once):
    # np.unique without an index asks numpy.ma whether its input is masked;
    # a sweep calls no np.unique at all (test_sweeps_call_no_numpy_sort)
    code, modules = run_once(_RUN_CLI, "sweep", "--graph", graph, *flags, package="numpy")
    assert code == 0
    assert "numpy.ma" not in modules


@pytest.mark.parametrize("command", ["validate", "limit-q", "sweep", "duality-check"])
def test_invalid_config_exits_before_scipy(command, invalid_path):
    assert _fresh(_RUN_CLI, command, "--graph", invalid_path) == (1, set())


def test_bad_flag_exits_before_scipy():
    assert _fresh(_RUN_CLI, "sweep", "--graph", STAR, "--disc", "fd") == (2, set())


@pytest.mark.parametrize("order, superlu", [("1", False), ("2", True)],
                         ids=["order1", "order2"])
def test_sweep_loads_the_solver_past_the_woodbury_cap(order, superlu, tmp_path):
    # on a 40-edge path the order-2 traces reach into the next edge, 78
    # rows outside the band, more than the numpy factorization takes; at
    # order 1 every coupling lies in the band, and the same sweep stays
    # in numpy
    graph = write_config(make_path(40), tmp_path / "path.json")
    code, modules = _fresh(
        _RUN_CLI, "sweep", "--graph", graph, "--trace-order", order, "--h", "0.1",
        "--kappa", "1,10", "--t", "1", "--out", str(tmp_path / "out.csv"),
    )
    assert code == 0
    assert SOLVER <= modules if superlu else not modules


def test_stepping_loads_no_discretization():
    # the propagator takes any mass form as it is given
    script = """
import json, sys
import graphdiff._stepping
print(json.dumps([None, [m for m in sys.modules if m.startswith("graphdiff.")]]))
"""
    _, modules = _fresh(script)
    assert "graphdiff._stepping" in modules
    assert not modules & {f"graphdiff.{name}" for name in
                          ("finite_volume", "galerkin", "chain", "evolution")}


def test_every_public_name_resolves_and_is_listed():
    script = """
import json, sys
import graphdiff
before = [m for m in sys.modules if m.split(".")[0] == "scipy"]
listed = set(dir(graphdiff))
missing = [name for name in graphdiff.__all__
           if name not in listed or getattr(graphdiff, name, None) is None]
print(json.dumps([missing, before]))
"""
    assert _fresh(script) == ([], set())
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        graphdiff.nope
