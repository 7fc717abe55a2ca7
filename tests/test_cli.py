import contextlib
import csv
import io
import json
import os
import shutil
import string
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import graphdiff
from graphdiff import _stepping, chain, cli, evolution, finite_volume, galerkin, graphs
from graphdiff.cli import main

from conftest import make_path, traced_peak, write_config
from reference import convert

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
STAR = CONFIGS / "star.json"


@pytest.fixture
def star_path(tmp_path):
    p = tmp_path / "star.json"
    shutil.copyfile(STAR, p)
    return str(p)


@pytest.fixture
def broken_path(tmp_path):
    cfg = json.loads(STAR.read_text())
    cfg["edges"][0]["r_to"] = {"E2": 0.6, "E3": 9.4}   # oversubscribed
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(cfg))
    return str(p)


def test_validate_ok(star_path, capsys):
    assert main(["validate", "--graph", star_path]) == 0
    out = capsys.readouterr().out
    assert "conservative: true" in out


def test_validate_reports_problems(broken_path, capsys):
    assert main(["validate", "--graph", broken_path]) == 1
    out = capsys.readouterr().out
    assert "problem:" in out
    assert "E1" in out   # the offending edge is named
    assert "conservative: false" in out


def test_missing_file_is_a_usage_error(tmp_path):
    assert main(["validate", "--graph", str(tmp_path / "nope.json")]) == 2


def test_unparseable_file_is_a_usage_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{oops")
    assert main(["validate", "--graph", str(p)]) == 2


def test_limit_q_writes_csv(star_path, tmp_path, capsys):
    out = tmp_path / "q.csv"
    assert main(["limit-q", "--graph", star_path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "variant,edge,E1,E2,E3"
    assert len(lines) == 1 + 3 + 3 + 1   # header, dual rows, primal rows, mass_rate
    assert lines[-1].startswith("mass_rate")
    text = capsys.readouterr().out
    assert "entries differing" in text


def test_limit_q_reads_the_sparse_generators_only(tmp_path, capsys):
    # a dense n_edges^2 copy is 1.3 MB at 400 edges; the listing walks the
    # sparse difference and the CSV one row at a time
    graph = make_path(400, seed=3)
    path = tmp_path / "path.json"
    edges = [e._asdict() for e in graph.edges]
    path.write_text(json.dumps({"edges": edges}))
    out = tmp_path / "q.csv"
    peak = traced_peak(lambda: main(["limit-q", "--graph", str(path), "--out", str(out)]))
    assert peak <= 1.5e6
    dual, primal = (chain.chain_generator(graph, v).toarray()
                    for v in (chain.DUAL, chain.PRIMAL))
    ids = graph.edge_ids
    want = [
        f"variants differ at ({ids[i]}, {ids[j]}): "
        f"dual {cli._fmt(dual[i, j])} vs primal {cli._fmt(primal[i, j])}"
        for i, j in np.argwhere(dual != primal)
    ]
    want.append(f"entries differing between variants: {len(want)}")
    assert capsys.readouterr().out.splitlines() == want
    lines = out.read_text().splitlines()
    assert lines[1] == ",".join(["dual", "E0"] + [cli._fmt(x) for x in dual[0]])


def test_limit_q_formats_only_the_stored_entries(tmp_path, monkeypatch):
    # the CSV writes the literal "0" for each structural zero, so it formats
    # the stored entries of both variants plus the mass_rate row; the
    # listing on stdout then formats two numbers per differing entry
    graph = make_path(400, seed=3)
    config = write_config(graph, tmp_path / "path.json")
    calls = {"all": 0, "csv": 0}
    fmt, write_csv = cli._fmt, cli._write_csv

    def counting_fmt(x):
        calls["all"] += 1
        return fmt(x)

    def counting_write_csv(*args):
        before = calls["all"]
        write_csv(*args)
        calls["csv"] += calls["all"] - before

    monkeypatch.setattr(cli, "_fmt", counting_fmt)
    monkeypatch.setattr(cli, "_write_csv", counting_write_csv)
    assert main(["limit-q", "--graph", config, "--out", str(tmp_path / "q.csv")]) == 0
    dual, primal = (chain.chain_generator(graph, v) for v in (chain.DUAL, chain.PRIMAL))
    assert calls["csv"] <= dual.nnz + primal.nnz + graph.n_edges
    assert calls["all"] == calls["csv"] + 2 * (convert(dual) != convert(primal)).nnz


def test_limit_q_quotes_the_ids_that_need_it(tmp_path):
    # an id that holds a comma, a quote or either line break is quoted,
    # its quotes doubled, so that a csv reader gets every id back whole
    ids = ["A\r1", "B,2", 'C"3', "D\n4"]
    graph = make_path(len(ids))
    new = dict(zip(graph.edge_ids, ids))
    edges = [e._replace(id=new[e.id], l_to={new[k]: c for k, c in e.l_to.items()},
                        r_to={new[k]: c for k, c in e.r_to.items()}) for e in graph.edges]
    config = write_config(graphs.MetricGraph(edges), tmp_path / "ids.json")
    out = tmp_path / "q.csv"
    assert main(["limit-q", "--graph", config, "--out", str(out)]) == 0
    with out.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["variant", "edge", *ids]
    assert [row[1] for row in rows] == [*ids, *ids, ""]
    assert all(len(row) == len(header) for row in rows)


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.lists(st.text(',"\n ' + string.ascii_letters, max_size=4), min_size=2,
                         max_size=5), min_size=1, max_size=4))
def test_csv_writer_writes_what_python_csv_writes(table):
    # rows of at least two cells without a "\r", on which every Python's
    # csv module quotes the same cells
    header, *rows = table
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    with contextlib.redirect_stdout(io.StringIO()) as got:
        cli._write_csv(None, header, rows)
    assert got.getvalue() == want.getvalue()


def test_limit_q_rejects_invalid(broken_path, capsys):
    # every graph-reading command reports one problem line per problem
    for command in ("limit-q", "sweep", "duality-check"):
        assert main([command, "--graph", broken_path]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("problem: edge 'E1': sum of r_to")


def test_duplicate_edge_id_is_a_validation_problem(tmp_path, capsys):
    # parsing checks structure and types only: a repeated edge id parses,
    # and every command reports it as the admissibility fault it is
    cfg = json.loads(STAR.read_text())
    cfg["edges"].append(dict(cfg["edges"][0]))
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--graph", str(path)]) == 1
    assert capsys.readouterr().out == (
        "problem: duplicate edge id 'E1'\nconservative: false\n")
    for command in ("sweep", "limit-q"):
        assert main([command, "--graph", str(path), "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == "problem: duplicate edge id 'E1'\n"


def test_sweep_happy_path(star_path, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--graph", star_path,
        "--kappa", "1,10,100", "--t", "1", "--h", "0.1",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("kappa,t,")
    assert len(lines) == 4
    assert "nonincreasing" in capsys.readouterr().out


def test_sweep_fem_path(star_path, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--graph", star_path, "--disc", "fem",
        "--kappa", "1,10", "--t", "0.5", "--h", "0.1",
        "--out", str(out),
    ])
    assert code == 0


def test_sweep_phi0_by_edge_id(star_path, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--graph", star_path, "--phi0", "indicator:E2",
        "--kappa", "1,10", "--t", "0.5", "--h", "0.1",
        "--out", str(out),
    ])
    assert code == 0


@pytest.mark.parametrize("flag,message", [
    ("indicator:Z9", "--phi0 references unknown edge 'Z9'"),
    ("indicatorE2", "unsupported --phi0 value 'indicatorE2'"),
], ids=["unknown-edge", "no-colon"])
def test_sweep_unknown_phi0_edge(star_path, tmp_path, capsys, flag, message):
    code = main([
        "sweep", "--graph", star_path, "--phi0", flag,
        "--kappa", "1,10", "--t", "0.5", "--h", "0.1",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sweep_fine_grid(star_path, tmp_path):
    # 6000 cells / 6003 nodes: beyond the dense exponential's reach,
    # routine for the sparse propagator on both discretizations
    for disc in ("fv", "fem"):
        out = tmp_path / f"sweep_{disc}.csv"
        code = main([
            "sweep", "--graph", star_path, "--disc", disc, "--h", "0.0005",
            "--kappa", "1,1e4", "--t", "1", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "10000"]


def test_sweep_unconverged_solver_exit(star_path, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise _stepping.StepControlError(
            "Krylov propagator: no convergence to rtol=1e-08 with m=64 "
            "basis vectors at t=0.5 (last estimate 3.2e-05)"
        )

    monkeypatch.setattr(_stepping, "krylov_apply", refuse)
    code = main([
        "sweep", "--graph", star_path,
        "--kappa", "1,10", "--t", "0.5", "--h", "0.1",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 4
    err = capsys.readouterr().err
    assert "did not converge" in err
    assert "m=64" in err and "3.2e-05" in err and "rtol=1e-08" in err


@pytest.mark.parametrize("disc", ["fv", "fem"])
def test_singular_shifted_matrix_exits_unconverged(star_path, tmp_path, disc, capsys):
    # at kappa = 1e14 and the default h, M + K/gamma is singular in floating
    # point: SuperLU's RuntimeError becomes a one-line exit 4, not a crash
    code = main([
        "sweep", "--graph", star_path, "--disc", disc, "--kappa", "1e14", "--t", "1",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: solver did not converge: ")
    assert "M + K/gamma is singular" in err[0] and "gamma=10" in err[0]


@pytest.mark.parametrize("disc,ratio", [("fv", "2.13"), ("fem", "3.2")])
def test_unresolved_mass_exits_unconverged(star_path, tmp_path, disc, ratio, capsys):
    # at kappa = 1e12 and the default h, eps max|K_ii/M_ii| / gamma exceeds 1:
    # the mass is below the rounding of the shifted diagonal, and the sweep
    # stops with exit 4 instead of writing a CSV of round-off
    out = tmp_path / "x.csv"
    code = main([
        "sweep", "--graph", star_path, "--disc", disc, "--kappa", "1e12", "--t", "1",
        "--out", str(out),
    ])
    assert code == 4
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: solver did not converge: ")
    assert f"= {ratio} >= 1" in err[0]
    assert "gamma=10" in err[0] and err[0].endswith("for t=1")


@pytest.mark.parametrize("disc", ["fv", "fem"])
@pytest.mark.parametrize("kappa", ["1e10", "1e11", "3e11"])
def test_drift_dominated_row_exits_unconverged(star_path, tmp_path, disc, kappa, capsys):
    # past the resolved range the error of a row is its own mass drift (a
    # share of 1.000 of err_l1 at 1e10): exit 4 with the numbers, no CSV
    out = tmp_path / "x.csv"
    code = main([
        "sweep", "--graph", star_path, "--disc", disc, "--kappa", kappa, "--t", "1",
        "--out", str(out),
    ])
    assert code == 4
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: solver did not converge: |mass_drift| / err_l1 = ")
    share = float(err[0].split(" = ")[1].split(" >= ")[0])
    assert share >= evolution.DRIFT_SHARE_MAX
    assert "mass_drift -" in err[0] and f"at kappa={float(kappa):g}, t=1:" in err[0]


@pytest.mark.parametrize("disc", ["fv", "fem"])
def test_resolved_row_keeps_its_drift_a_small_share(star_path, tmp_path, disc):
    # the last resolved kappa: the drift is 0.049 (fv) or 0.063 (fem) of
    # err_l1, against the exit-4 share of 0.5 and 1.000 one decade on
    out = tmp_path / "x.csv"
    code = main([
        "sweep", "--graph", star_path, "--disc", disc, "--kappa", "1e9", "--t", "1",
        "--out", str(out),
    ])
    assert code == 0
    (row,) = csv.DictReader(out.open(newline=""))
    assert abs(float(row["mass_drift"])) <= 0.1 * float(row["err_l1"])


@pytest.mark.parametrize("t", ["1e300", "1e-200", "1e-320"])
def test_extreme_time_has_no_pole_and_exits_unconverged(star_path, tmp_path, t, capsys):
    # t_min * t_max overflows or underflows, so gamma = 10 / sqrt(t_min t_max)
    # is 0 or infinite: a one-line exit 4 naming gamma and the time
    code = main([
        "sweep", "--graph", star_path, "--kappa", "1", "--t", t, "--h", "0.1",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: solver did not converge: ")
    assert "gamma=" in err[0] and "for t=" in err[0]


def test_out_of_memory_has_its_own_exit_code(star_path, tmp_path, monkeypatch, capsys):
    # a problem too large for the machine is neither an invalid graph nor
    # an I/O error; the stand-in raises before anything is allocated
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)")

    monkeypatch.setattr(evolution, "kappa_sweep", too_large)
    code = main(["sweep", "--graph", star_path, "--out", str(tmp_path / "x.csv")])
    assert code == cli.OUT_OF_MEMORY == 5
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 7.28 TiB "
        "for an array with shape (1000000, 1000000)\n"
    )


@pytest.mark.parametrize("command, h, length, count", [
    ("sweep", "1e-300", 1.0, "1e+300"),
    ("duality-check", "1e-300", 1.0, "1e+300"),
    ("sweep", "0.5", 1e308, "inf"),
])
def test_grid_too_large_to_index_exits_out_of_memory(
        tmp_path, capsys, command, h, length, count):
    cfg = json.loads(STAR.read_text())
    cfg["edges"][0]["length"] = length
    path = tmp_path / "star.json"
    path.write_text(json.dumps(cfg))
    code = main([command, "--graph", str(path), "--h", h, "--out", str(tmp_path / "x.csv")])
    assert code == cli.OUT_OF_MEMORY
    assert capsys.readouterr().err == (
        f"error: out of memory: edge 'E1' of length {length:g} needs {count} cells "
        f"of width {float(h):g}: the grid is too large to index\n"
    )


def test_bad_kappa_list_is_parse_error(star_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--graph", star_path, "--kappa", "1,zap"])
    assert exc.value.code == 2   # argparse usage failure


@pytest.mark.parametrize("argv", [
    ["sweep", "--t", "nan"],
    ["sweep", "--t", "0.5,inf"],
    ["sweep", "--kappa", "1,inf"],
    ["sweep", "--kappa", "1,-inf"],
    ["sweep", "--h", "inf"],
    ["duality-check", "--kappa", "inf"],
    ["duality-check", "--h", "nan"],
    ["resolvent-check", "--lambdas", "1e-1,nan"],
    ["resolvent-check", "--b", "inf"],
])
def test_non_finite_numbers_are_parse_errors(star_path, argv, capsys):
    if argv[0] != "resolvent-check":
        argv = argv[:1] + ["--graph", star_path] + argv[1:]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "finite" in errors[0] and repr(argv[-1]) in errors[0]


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--h", "0"], "target_width must be positive, got 0"),
    (["sweep", "--h=-0.1"], "target_width must be positive, got -0.1"),
    (["duality-check", "--h", "0"], "target_width must be positive, got 0"),
    (["resolvent-check", "--lambdas", ""], "need at least one lam value"),
], ids=["sweep-zero", "sweep-negative", "duality-check-zero", "no-lambdas"])
def test_nonpositive_width_and_empty_lambda_list_are_usage_errors(star_path, argv, message,
                                                                   capsys):
    if argv[0] != "resolvent-check":
        argv = argv[:1] + ["--graph", star_path] + argv[1:]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("config, message", [
    ([], "top level must be an object"),
    ({**json.loads(STAR.read_text()), "extra": 1}, "unknown top-level keys: ['extra']"),
    ({"edges": ["E1"]}, "edges[0]: expected an object"),
], ids=["not-an-object", "unknown-key", "edge-not-an-object"])
def test_malformed_config_structure_is_a_usage_error(tmp_path, config, message, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main(["validate", "--graph", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_non_finite_polynomial_source_is_usage_error(capsys):
    assert main(["resolvent-check", "--phi", "poly:0,nan"]) == 2
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("disc", ["fv", "fem"])
def test_sweep_csv_is_deterministic(star_path, tmp_path, disc):
    # unsorted times: rows still come out sorted by (kappa, t), and two
    # runs write the same bytes
    outs = [tmp_path / f"run{k}.csv" for k in range(2)]
    for out in outs:
        code = main([
            "sweep", "--graph", star_path, "--disc", disc, "--h", "0.05",
            "--kappa", "1,100", "--t", "2,0.25,0,0.5", "--out", str(out),
        ])
        assert code == 0
    first, second = (out.read_bytes() for out in outs)
    assert first == second
    rows = [line.split(",")[:2] for line in first.decode().splitlines()[1:]]
    assert rows == [[k, t] for k in ("1", "100") for t in ("0", "0.25", "0.5", "2")]


@pytest.mark.parametrize("disc", ["fv", "fem"])
def test_sweep_csv_ignores_the_order_of_the_times(star_path, tmp_path, disc):
    outs = [tmp_path / f"{k}.csv" for k in range(2)]
    for out, ts in zip(outs, ("2,0.5,1,0.25", "0.25,0.5,1,2")):
        code = main(["sweep", "--graph", star_path, "--disc", disc, "--h", "0.05",
                     "--kappa", "1,10,100", "--t", ts, "--out", str(out)])
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("phi0", ["indicator:E2", "uniform"])
@pytest.mark.parametrize("disc", ["fv", "fem"])
def test_sweep_ignores_the_order_of_the_edges(tmp_path, disc, phi0):
    # reversing or rotating the star's edges moves no column of the table
    # by more than round-off; indicator:E2 is resolved by id, not position
    edges = json.loads(STAR.read_text())["edges"]
    tables = []
    for name, listing in [("given", edges), ("reversed", edges[::-1]),
                          ("rotated", edges[1:] + edges[:1])]:
        config, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        config.write_text(json.dumps({"edges": listing}))
        assert main(["sweep", "--graph", str(config), "--disc", disc,
                     "--phi0", phi0, "--out", str(out)]) == 0
        tables.append(np.loadtxt(out, delimiter=",", skiprows=1))
    for table in tables[1:]:
        np.testing.assert_allclose(table, tables[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("disc", ["fv", "fem"])
@pytest.mark.parametrize("ts", ["2,1", "1,2"])
def test_drift_guard_names_the_first_row_in_the_given_order(star_path, tmp_path, disc, ts,
                                                            capsys):
    # both rows at kappa = 1e10 are drift-dominated; the message names the
    # first of them in the order --t gave them
    code = main(["sweep", "--graph", star_path, "--disc", disc, "--kappa", "1e10",
                 "--t", ts, "--out", str(tmp_path / "x.csv")])
    assert code == 4
    (err,) = capsys.readouterr().err.splitlines()
    assert f"at kappa=1e+10, t={ts.split(',')[0]}:" in err


def test_sweep_exits_failed_naming_each_time_that_grows(star_path, tmp_path, monkeypatch,
                                                        capsys):
    # at t = 1 the error grows from kappa 1 to 10: that line says so, and
    # the sweep exits 3 after writing every row
    table = np.array([
        [[1.0, 1.0, 0.5, 0.5, 0.4, 0.0, 0.0], [1.0, 2.0, 0.5, 0.5, 0.4, 0.0, 0.0]],
        [[10.0, 1.0, 0.7, 0.7, 0.6, 0.0, 0.0], [10.0, 2.0, 0.3, 0.3, 0.2, 0.0, 0.0]],
    ])
    monkeypatch.setattr(evolution, "kappa_sweep",
                        lambda *a, **k: evolution.SweepResult(table, "fv"))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--graph", star_path, "--out", str(out)]) == 3
    assert len(out.read_text().splitlines()) == 5
    assert capsys.readouterr().out.splitlines() == [
        "t=1: err 0.5 -> 0.69999999999999996 (NOT nonincreasing)",
        "t=2: err 0.5 -> 0.29999999999999999 (nonincreasing)",
    ]


def test_repeated_time_is_clean_error(star_path, tmp_path, capsys):
    # a repeated time would write two identical rows that read as two
    # kappas in the summary; like a decreasing kappa list it is an input
    # error
    out = tmp_path / "x.csv"
    code = main(["sweep", "--graph", star_path, "--kappa", "1", "--t", "0,0,1",
                 "--h", "0.1", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: t list must not repeat a time, got [0.0, 0.0, 1.0]\n"
    )


@pytest.mark.parametrize("out", [["--out", "-"], []], ids=["dash", "omitted"])
@pytest.mark.parametrize("argv, summary", [
    (["sweep", "--kappa", "1,10", "--t", "0.5,1", "--h", "0.1"], "t=0.5: err "),
    (["sweep", "--disc", "fem", "--kappa", "1,10", "--t", "0.5", "--h", "0.1"], "t=0.5: err "),
    (["limit-q"], "entries differing between variants: "),
    (["duality-check", "--h", "0.1", "--levels", "2"], "h=0.050000000000000003: defect "),
    (["resolvent-check"], "average: 0.5"),
], ids=["sweep-fv", "sweep-fem", "limit-q", "duality-check", "resolvent-check"])
def test_stdout_is_pure_csv_when_the_csv_goes_there(star_path, capsys, argv, summary, out):
    # the summary lines move to stderr, so stdout parses as one table
    if argv[0] != "resolvent-check":
        argv = argv[:1] + ["--graph", star_path] + argv[1:]
    assert main(argv + out) == 0
    captured = capsys.readouterr()
    header, *rows = csv.reader(io.StringIO(captured.out, newline=""))
    assert rows and all(len(row) == len(header) for row in rows)
    assert summary in captured.err


def _counting(counts, key, fn):
    def wrapped(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapped


@pytest.mark.parametrize("disc,module,assembler", [
    ("fv", finite_volume, "dual_generator"),
    ("fem", galerkin, "assemble_forms"),
], ids=["fv", "fem"])
def test_sweep_assembles_once(star_path, tmp_path, monkeypatch, disc, module, assembler):
    # five kappas, one assembly; the graph is validated once, by the
    # exchange matrix that the load builds and every derivation shares
    counts = {"validate": 0, "assemble": 0}
    monkeypatch.setattr(graphs, "validate", _counting(counts, "validate", graphs.validate))
    monkeypatch.setattr(module, assembler, _counting(counts, "assemble", getattr(module, assembler)))
    code = main(["sweep", "--graph", star_path, "--disc", disc, "--h", "0.05",
                 "--out", str(tmp_path / "s.csv")])
    assert code == 0
    assert counts == {"validate": 1, "assemble": 1}


LONG_TIMES = "0,0.1,0.25,0.5,1,2,10"


@pytest.mark.parametrize("h", ["0.005", "0.0005"])
@pytest.mark.parametrize("disc", ["fv", "fem"])
@pytest.mark.parametrize("config", ["star.json", "chain.json"])
def test_long_time_sweep_follows_one_over_kappa(config, disc, h, tmp_path):
    # at t = 10 the error still falls tenfold from kappa = 1e3 to 1e4, and
    # no row drifts by more than 1e-10 of the start's mass: the refined
    # shifted solves keep their round-off below the 1/kappa law
    path = CONFIGS / config
    out = tmp_path / "s.csv"
    code = main(["sweep", "--graph", str(path), "--disc", disc, "--h", h,
                 "--t", LONG_TIMES, "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open(newline="")))
    metric = f"err_{evolution.OWN_NORM[disc]}"
    err = {float(r["kappa"]): float(r[metric]) for r in rows if float(r["t"]) == 10.0}
    assert err[1e4] <= 0.15 * err[1e3]
    # the default start is the first edge's indicator
    mass = graphs.load_graph(path).lengths[0]
    assert max(abs(float(r["mass_drift"])) for r in rows) <= 1e-10 * mass


@pytest.mark.parametrize("disc", ["fv", "fem"])
@pytest.mark.parametrize("config", ["star.json", "chain.json"])
def test_large_kappa_sweep_follows_one_over_kappa(config, disc, tmp_path):
    # up to kappa = 1e9 at t = 1, kappa * err stays within 5% of its value
    # at 1e4 and the mass drift at round-off, for the consistent P1 mass
    # as for the diagonal FV one
    path = CONFIGS / config
    out = tmp_path / "s.csv"
    code = main(["sweep", "--graph", str(path), "--disc", disc,
                 "--kappa", "1e4,1e5,1e6,1e7,1e8,1e9", "--t", "1", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open(newline="")))
    metric = f"err_{evolution.OWN_NORM[disc]}"
    scaled = [float(r["kappa"]) * float(r[metric]) for r in rows]
    assert len(scaled) == 6
    assert all(abs(s - scaled[0]) <= 0.05 * scaled[0] for s in scaled)
    mass = graphs.load_graph(path).lengths[0]
    assert max(abs(float(r["mass_drift"])) for r in rows) <= 1e-10 * mass


@pytest.mark.parametrize("disc", ["fv", "fem"])
def test_star_sweeps_take_one_eigendecomposition_per_krylov_step(
        star_path, tmp_path, monkeypatch, disc):
    # every Arnoldi step of both sides of the sweep evaluates its small
    # exponential from one eigendecomposition; scipy's dense expm and inv
    # (the fallback for a near-defective eigenbasis) are never reached
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep reached the dense expm fallback")

    eigs = {"eig": 0}
    monkeypatch.setattr(np.linalg, "eig", _counting(eigs, "eig", np.linalg.eig))
    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    monkeypatch.setattr(scipy.linalg, "inv", refuse)
    out = str(tmp_path / "s.csv")
    assert main(["sweep", "--graph", star_path, "--disc", disc, "--out", out]) == 0
    assert eigs["eig"] <= 62
    for phi0 in ("indicator", "uniform"):
        code = main(["sweep", "--graph", star_path, "--disc", disc, "--phi0", phi0,
                     "--t", LONG_TIMES, "--out", out])
        assert code == 0


def test_duality_check_shares_one_exchange_matrix(star_path, tmp_path, monkeypatch):
    # both condition fits and every level's assembly share one exchange matrix
    counts = {"validate": 0}
    monkeypatch.setattr(graphs, "validate", _counting(counts, "validate", graphs.validate))
    code = main(["duality-check", "--graph", star_path, "--h", "0.1",
                 "--out", str(tmp_path / "d.csv")])
    assert code == 0
    assert counts == {"validate": 1}


def test_duality_check_forms_no_dense_condition_table(star_path, tmp_path, monkeypatch):
    # the condition fits read the sparse endpoint conditions; the dense
    # (n, 2, n, 2) tables are for inspection only
    def refuse(*args, **kwargs):
        raise AssertionError("a dense condition table was built")

    for module in (graphdiff, graphs, finite_volume):
        for name in ("trace_functionals", "primal_condition_table"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for order in ("1", "2"):
        code = main(["duality-check", "--graph", star_path, "--h", "0.1",
                     "--trace-order", order, "--out", str(tmp_path / "d.csv")])
        assert code == 0


def test_limit_q_validates_once(star_path, tmp_path, monkeypatch):
    # both generator variants share the exchange matrix the load built
    counts = {"validate": 0}
    monkeypatch.setattr(graphs, "validate", _counting(counts, "validate", graphs.validate))
    assert main(["limit-q", "--graph", star_path, "--out", str(tmp_path / "q.csv")]) == 0
    assert counts == {"validate": 1}


def test_limit_q_assembles_each_variant_once(star_path, tmp_path, monkeypatch):
    # the dual listing also gives the mass_rate row: no third assembly.
    # graphdiff.chain binds chain_form at import, so a listing through it
    # is counted too
    calls = []
    real = finite_volume.chain_form

    def counting(graph, adjoint=True):
        calls.append(adjoint)
        return real(graph, adjoint)

    for module in (finite_volume, chain):
        monkeypatch.setattr(module, "chain_form", counting)
    assert main(["limit-q", "--graph", star_path, "--out", str(tmp_path / "q.csv")]) == 0
    assert calls == [True, False]


def test_fem_sweep_rejects_second_order_traces(star_path, tmp_path, capsys):
    # trace order is a finite-volume option; P1 has no traces to extrapolate
    code = main([
        "sweep", "--graph", star_path, "--disc", "fem", "--trace-order", "2",
        "--kappa", "1,10", "--t", "0.5", "--h", "0.1",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "trace_order" in capsys.readouterr().err


def test_decreasing_kappa_list_is_clean_error(star_path, tmp_path, capsys):
    # parses as floats but violates the sweep's ordering precondition;
    # must exit cleanly instead of dumping a traceback
    code = main([
        "sweep", "--graph", star_path,
        "--kappa", "10,1", "--t", "0.5", "--h", "0.1",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_resolvent_check_defaults(capsys):
    assert main(["resolvent-check"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("lambda,l1_distance\n")
    assert "average: 0.5" in captured.err


def test_resolvent_check_failure_exit(capsys):
    # big lambda keeps the scaled resolvent far from the plain average
    assert main(["resolvent-check", "--lambdas", "10,5"]) == 3


def test_resolvent_check_small_lambda_quartic(capsys):
    assert main(["resolvent-check", "--phi", "poly:0.3,-0.5,0.7,0.2,-0.9",
                 "--lambdas", "1e-3,1e-5,1e-6,1e-8"]) == 0
    assert "nonincreasing (5% slack): true" in capsys.readouterr().err


@pytest.mark.parametrize("flags, value, lam", [
    (["--lambdas", "1e-320"], "inf", "9.99989e-321"),
    (["--b", "1e300"], "inf", "0.1"),
    (["--phi", "poly:1e308,1e308"], "inf", "0.1"),
    (["--a", "1e308", "--b", "1.7e308"], "nan", "0.1"),
])
def test_resolvent_check_reports_a_non_finite_distance_in_one_line(
        tmp_path, capsys, flags, value, lam):
    # the overflow is one stderr line naming the first non-finite distance,
    # not numpy's RuntimeWarnings; the table and the exit code stand, and
    # a table without a finite distance is not called nonincreasing
    out = tmp_path / "r.csv"
    assert main(["resolvent-check", *flags, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"non-finite l1 distance {value} at lambda={lam}\n"
    assert "distances nonincreasing (5% slack): false\n" in captured.out
    assert out.read_text().splitlines()[1].endswith(f",{value}")


def test_resolvent_check_bad_interval(capsys):
    assert main(["resolvent-check", "--a", "2", "--b", "1"]) == 2
    assert capsys.readouterr().err == "error: need finite b > a, got (2.0, 1.0)\n"


def test_duality_check(star_path, tmp_path, capsys):
    out = tmp_path / "d.csv"
    code = main([
        "duality-check", "--graph", star_path,
        "--h", "0.1", "--levels", "3", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "h,defect,ratio"
    assert len(lines) == 4
    assert "ratio" in capsys.readouterr().out


def test_duality_check_second_order_traces(star_path, tmp_path):
    code = main([
        "duality-check", "--graph", star_path, "--trace-order", "2",
        "--h", "0.1", "--levels", "2", "--out", str(tmp_path / "d.csv"),
    ])
    assert code == 0


@pytest.mark.parametrize("levels, kappa, defect", [
    pytest.param("1", "1e-300", "inf", id="1"),
    pytest.param("3", "1e-300", "inf", id="3"),
    pytest.param("1", "1e-320", "nan", id="1-nan"),
    pytest.param("3", "1e-320", "nan", id="3-nan"),
])
def test_duality_check_fails_on_infinite_defects(star_path, tmp_path, levels, kappa,
                                                 defect, capsys, recwarn):
    # at kappa = 1e-300 the fitted slopes overflow and every defect is inf
    # (at 1e-320, nan); inf > 0.75 * inf is false, so the ratio rule alone
    # would pass it.  The overflow is reported as one stderr line, not as
    # numpy's RuntimeWarning
    out = tmp_path / "d.csv"
    code = main([
        "duality-check", "--graph", star_path, "--kappa", kappa,
        "--h", "0.1", "--levels", levels, "--out", str(out),
    ])
    assert code == 3
    defects = [line.split(",")[1] for line in out.read_text().splitlines()[1:]]
    assert len(defects) == int(levels) and set(defects) == {defect}
    assert capsys.readouterr().err == (
        f"non-finite duality defect {defect} at h=0.1 (kappa={float(kappa):g})\n"
    )
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_duality_check_zero_defects_print_nan_ratios(sealed_edge, tmp_path, capsys):
    # on a sealed edge at kappa = 4e-324 both defects underflow to 0; the
    # ratio 0/0 is printed as nan in the CSV and the summary, and 0 passes
    out = tmp_path / "d.csv"
    code = main([
        "duality-check", "--graph", write_config(sealed_edge, tmp_path / "sealed.json"),
        "--kappa", "4e-324", "--levels", "2", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text().splitlines() == [
        "h,defect,ratio", "0.040000000000000001,0,", "0.02,0,nan",
    ]
    assert capsys.readouterr() == ("h=0.02: defect 0 (ratio nan)\n", "")


@pytest.mark.parametrize("defects, code, summary", [
    pytest.param([1.0, 0.8, 0.1], 3, [
        "h=0.050000000000000003: defect 0.80000000000000004 (ratio 0.80000000000000004)",
        "h=0.025000000000000001: defect 0.10000000000000001 (ratio 0.125)",
    ], id="slow"),
    pytest.param([1.0, 0.75, 0.5], 0, [
        "h=0.050000000000000003: defect 0.75 (ratio 0.75)",
        "h=0.025000000000000001: defect 0.5 (ratio 0.66666666666666663)",
    ], id="bound-is-strict"),
    pytest.param([1.0, 1e-13, 1e-13], 0, [
        "h=0.050000000000000003: defect 1e-13 (ratio 1e-13)",
        "h=0.025000000000000001: defect 1e-13 (ratio 1)",
    ], id="below-floor"),
])
def test_duality_check_refinement_rule(star_path, tmp_path, monkeypatch, capsys,
                                       defects, code, summary):
    # a finite defect fails when it is above 1e-12 max(1, d0) and above
    # 0.75 times its predecessor
    values = iter(defects)
    monkeypatch.setattr(finite_volume, "duality_defect", lambda *a, **k: next(values))
    assert main(["duality-check", "--graph", star_path, "--h", "0.1",
                 "--out", str(tmp_path / "d.csv")]) == code
    assert capsys.readouterr() == ("\n".join(summary) + "\n", "")


@pytest.mark.parametrize("levels", ["0", "-2", "two"])
def test_duality_check_levels_must_be_positive(star_path, levels, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["duality-check", "--graph", star_path, "--levels", levels])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "positive integer" in errors[0] and repr(levels) in errors[0]


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # every CLI run pays for its imports; these scipy subpackages cost tens
    # of milliseconds each and the program needs none of them
    heavy = ("scipy.special", "scipy.integrate", "scipy.optimize", "scipy.stats")
    src = str(Path(graphdiff.__file__).resolve().parents[1])
    probe = f"import sys, graphdiff.cli; print([m for m in {heavy!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"


def test_module_entry_point_runs_a_command(tmp_path):
    # ``python -m graphdiff.cli`` reaches the same main as the console script
    out = tmp_path / "r.csv"
    src = str(Path(graphdiff.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "graphdiff.cli", "resolvent-check",
         "--lambdas", "1e-1,1e-2", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    header, *rows = out.read_text().splitlines()
    assert header == "lambda,l1_distance"
    assert len(rows) == 2


# Runs each command in one child interpreter under the policy that ships:
# numpy's default errstate ("warn") and Python's warning filters.  Each
# command gets a fresh warnings registry, as a fresh process would.
_RUN_TABLE = """
import contextlib, io, json, sys, traceback, warnings
from graphdiff.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = None
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


def test_extreme_flags_print_one_stderr_line_under_the_shipped_warning_policy(
        star_path, tmp_path):
    # the suite's own errstate raises on overflow, so only a child with
    # the shipped settings can show a raw RuntimeWarning on stderr
    cfg = json.loads(STAR.read_text())
    cfg["edges"][0]["length"] = 1e308
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(cfg))
    table = [
        (["sweep", "--graph", star_path, "--h", "1e-300"], 5),
        (["duality-check", "--graph", star_path, "--h", "1e-300"], 5),
        (["sweep", "--graph", str(huge), "--h", "0.5"], 5),
        (["resolvent-check", "--lambdas", "1e-320"], 3),
        (["resolvent-check", "--b", "1e300"], 3),
        (["resolvent-check", "--phi", "poly:1e308,1e308"], 3),
        (["resolvent-check", "--a", "1e308", "--b", "1.7e308"], 3),
        (["duality-check", "--graph", star_path, "--kappa", "1e-320"], 3),
        (["duality-check", "--graph", star_path, "--kappa", "1e-300"], 3),
        (["sweep", "--graph", star_path, "--t", "1e300"], 4),
    ]
    argvs = [argv + ["--out", str(tmp_path / f"{k}.csv")] for k, (argv, _) in enumerate(table)]
    src = str(Path(graphdiff.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _RUN_TABLE, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    for (argv, code), (got, err) in zip(table, json.loads(done.stdout)):
        assert got == code, (argv, err)
        assert len(err.splitlines()) == 1, (argv, err)
        assert "Traceback" not in err and "Warning" not in err, (argv, err)
