"""What each command loads: every operator is a numpy ``Banded`` record,
so no command on the shipped graphs loads any ``scipy`` module, ``sweep``
at both trace orders included.  Only a sweep whose shifted matrix needs
SuperLU loads scipy, and then the solver stack (``scipy.sparse``,
``scipy.sparse.linalg``).  Loading, validating and gridding a graph loads
no ``graphdiff`` module that assembles or propagates, and each command
loads exactly the ``graphdiff`` modules it computes with: only
``resolvent-check`` loads ``graphdiff.resolvent`` and
``numpy.polynomial``.  Every check runs in a fresh interpreter and reads
``sys.modules``; this one has long since imported everything."""

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
print(json.dumps([code, [m for m in sys.modules if m.split(".")[0] == os.environ["PACKAGE"]]]))
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
def test_benchmark_setup_probe_loads_no_scipy(argv):
    code, modules = _fresh(_RUN_PROBE, PROBE, *argv)
    assert code == 0
    assert modules == set()


@pytest.mark.parametrize("script, argv", [
    (_RUN_CLI, ["validate", "--graph", STAR]),
    (_RUN_PROBE, [PROBE, "resolvent-check"]),
    (_RUN_PROBE, [PROBE, "sweep", "--graph", STAR]),
    (_RUN_PROBE, [PROBE, "duality-check", "--graph", STAR, "--levels", "2"]),
], ids=["validate", "probe-resolvent-check", "probe-sweep", "probe-duality-check"])
def test_setup_loads_only_the_setup_modules(script, argv):
    # the limit chain is assembled by finite_volume, so a chain import in
    # the set-up path would put assembly into what the probe times
    code, modules = _fresh(script, *argv, package="graphdiff")
    assert code == 0
    assert modules <= SETUP


# the graphdiff modules beyond SETUP that assemble, and that propagate
ASSEMBLY = {"graphdiff._banded", "graphdiff.finite_volume"}
PROPAGATION = ASSEMBLY | {"graphdiff._stepping", "graphdiff.evolution"}


@pytest.mark.parametrize("argv, loaded, polynomial", [
    (["validate", "--graph", STAR], set(), False),
    (["limit-q", "--graph", STAR], ASSEMBLY | {"graphdiff.chain"}, False),
    (["sweep", "--graph", STAR, "--disc", "fv"], PROPAGATION, False),
    (["sweep", "--graph", STAR, "--disc", "fem"], PROPAGATION | {"graphdiff.galerkin"}, False),
    (["sweep", "--graph", STAR, "--trace-order", "2"], PROPAGATION, False),
    (["duality-check", "--graph", STAR, "--levels", "2"], ASSEMBLY, False),
    (["duality-check", "--graph", STAR, "--levels", "2", "--trace-order", "2"], ASSEMBLY, False),
    (["resolvent-check", "--lambdas", "1e-1,1e-2"], {"graphdiff.resolvent"}, True),
], ids=["validate", "limit-q", "sweep-fv", "sweep-fem", "sweep-order2", "duality-check",
        "duality-check-order2", "resolvent-check"])
def test_each_command_loads_exactly_its_modules(argv, loaded, polynomial, tmp_path):
    # the duality cubics are sampled by finite_volume's own Horner pass
    out = [] if argv[0] == "validate" else ["--out", str(tmp_path / "out.csv")]
    code, modules = _fresh(_RUN_CLI, *argv, *out, package="graphdiff,numpy")
    assert code == 0
    assert {m for m in modules if m.split(".")[0] == "graphdiff"} == SETUP | loaded
    assert ("numpy.polynomial" in modules) == polynomial


@pytest.mark.parametrize("argv, exit_code", [
    (["validate", "--graph", STAR], 0),
    (["resolvent-check", "--lambdas", "1e-1,1e-2"], 0),
])
def test_commands_without_sparse_matrices_load_no_scipy(argv, exit_code):
    assert _fresh(_RUN_CLI, *argv) == (exit_code, set())


@pytest.mark.parametrize("command", ["validate", "limit-q", "sweep", "duality-check"])
def test_invalid_config_exits_before_scipy(command, invalid_path):
    assert _fresh(_RUN_CLI, command, "--graph", invalid_path) == (1, set())


def test_bad_flag_exits_before_scipy():
    assert _fresh(_RUN_CLI, "sweep", "--graph", STAR, "--disc", "fd") == (2, set())


@pytest.mark.parametrize("argv", [
    ["limit-q", "--graph", STAR],
    ["duality-check", "--graph", STAR, "--levels", "2"],
])
def test_sparse_commands_load_no_solver(argv, tmp_path):
    # the limit chain and the duality pairing are Banded records too
    assert _fresh(_RUN_CLI, *argv, "--out", str(tmp_path / "out.csv")) == (0, set())


@pytest.mark.parametrize("graph", [STAR, CHAIN], ids=["star", "chain"])
@pytest.mark.parametrize("disc", ["fv", "fem"])
def test_sweep_loads_no_solver(graph, disc, tmp_path):
    # a default sweep assembles and factors its shifted matrices in numpy
    assert _fresh(
        _RUN_CLI, "sweep", "--graph", graph, "--disc", disc,
        "--out", str(tmp_path / "out.csv"),
    ) == (0, set())


@pytest.mark.parametrize("graph", [STAR, CHAIN], ids=["star", "chain"])
def test_second_order_sweep_loads_no_scipy(graph, tmp_path):
    # second-order traces rest on the probe solve, not on pivoting
    assert _fresh(
        _RUN_CLI, "sweep", "--graph", graph, "--trace-order", "2",
        "--out", str(tmp_path / "out.csv"),
    ) == (0, set())


@pytest.mark.parametrize("graph", [STAR, CHAIN], ids=["star", "chain"])
@pytest.mark.parametrize("flags", [["--disc", "fv"], ["--disc", "fem"], ["--trace-order", "2"]],
                         ids=["fv", "fem", "order2"])
def test_sweep_loads_no_masked_arrays(graph, flags, tmp_path):
    # np.unique without an index asks numpy.ma whether its input is masked
    code, modules = _fresh(
        _RUN_CLI, "sweep", "--graph", graph, *flags, "--out", str(tmp_path / "out.csv"),
        package="numpy",
    )
    assert code == 0
    assert "numpy.ma" not in modules


def test_sweep_loads_the_solver_for_superlu(tmp_path):
    # a 40-edge path at trace order 2 has 78 rows outside the band, more
    # than the numpy factorization takes; the checks above would pass on
    # a sweep that never ran
    graph = write_config(make_path(40), tmp_path / "path.json")
    code, modules = _fresh(
        _RUN_CLI, "sweep", "--graph", graph, "--trace-order", "2", "--h", "0.1",
        "--kappa", "1,10", "--t", "1", "--out", str(tmp_path / "out.csv"),
    )
    assert code == 0
    assert SOLVER <= modules


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
