import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from numpy.testing import assert_allclose

from graphdiff import _stepping, chain
from graphdiff.chain import DUAL, chain_generator, propagator
from graphdiff.cli import main
from graphdiff.evolution import (
    CSV_COLUMNS,
    FEM,
    FV,
    SweepResult,
    kappa_sweep,
    norms,
    propagate,
)
from graphdiff.finite_volume import chain_form, dual_generator, primal_generator
from graphdiff.galerkin import assemble_forms, l2_generator
from graphdiff.graphs import EdgeSpec, MetricGraph, load_graph
from graphdiff.grids import CELLS, NODES, EdgeGrid, edge_indicator, make_grid

from conftest import write_config
from reference import convert, crank_nicolson, dense_generator


def test_norms_basics():
    n = norms([1.0, -2.0], [0.5, 0.5])
    assert n.l1 == pytest.approx(1.5)
    assert n.l2 == pytest.approx(np.sqrt(0.5 + 2.0))
    assert n.min == -2.0
    assert n.mass == pytest.approx(-0.5)
    # a stack along the last axis is measured row by row
    stacked = norms([[1.0, -2.0], [3.0, 0.25]], [0.5, 0.5])
    for field, row in zip(stacked, zip(n, norms([3.0, 0.25], [0.5, 0.5]))):
        assert field.tolist() == list(row)
    with pytest.raises(ValueError):
        norms([1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        norms([[1.0, 2.0]], [0.5, 0.5, 0.5])


def test_propagate_zero_time_is_identity(star_graph):
    grid = make_grid(star_graph, 0.1)
    gen = dual_generator(star_graph, grid, kappa=2.0)
    phi0 = grid.sample(edge_indicator(1), CELLS)
    assert_allclose(propagate(gen, phi0, 0.0), phi0)


def test_propagate_validates(star_graph):
    grid = make_grid(star_graph, 0.1)
    gen = dual_generator(star_graph, grid, kappa=2.0)
    phi0 = grid.sample(edge_indicator(1), CELLS)
    with pytest.raises(ValueError):
        propagate(gen, phi0, -1.0)
    with pytest.raises(ValueError):
        propagate(gen, phi0[:-1], 1.0)


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_propagate_rejects_non_finite_time(star_graph, t):
    grid = make_grid(star_graph, 0.1)
    gen = dual_generator(star_graph, grid, kappa=2.0)
    phi0 = grid.sample(edge_indicator(1), CELLS)
    with pytest.raises(ValueError, match="finite"):
        propagate(gen, phi0, t)


def test_sealed_edge_modes_decay_exactly(sealed_edge):
    # the discrete cosine modes evolve by scalar exponentials, which pins
    # the whole propagate pipeline to an analytic answer
    m = 50
    grid = EdgeGrid(lengths=(1.0,), cells=(m,))
    gen = dual_generator(sealed_edge, grid, kappa=1.0)
    h = 1.0 / m
    x = grid.coords(0, CELLS)
    t = 0.37
    for k in (1, 4):
        v = np.cos(k * np.pi * x)
        lam_h = -(2.0 / h**2) * (1.0 - np.cos(k * np.pi * h))
        got = propagate(gen, v, t)
        assert_allclose(got, np.exp(t * lam_h) * v, atol=1e-12)


def test_norms_of_linear_profile():
    m = 400
    grid = EdgeGrid(lengths=(1.0,), cells=(m,))
    n = norms(grid.coords(0, CELLS), grid.weights(CELLS))
    assert n.l1 == pytest.approx(0.5, abs=1e-6)
    assert n.l2 == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-6)


def test_sealed_edge_decay_matches_continuum(sealed_edge):
    # fine-grid check against the continuum answer itself; the mode test
    # above only pins the semidiscrete rate
    m = 200
    grid = EdgeGrid(lengths=(1.0,), cells=(m,))
    gen = dual_generator(sealed_edge, grid, kappa=1.0)
    u0 = np.cos(np.pi * grid.coords(0, CELLS))
    got = propagate(gen, u0, 0.1)
    want = np.exp(-np.pi**2 * 0.1) * u0
    assert norms(got - want, grid.weights(CELLS)).l1 <= 1e-5


def test_long_time_limit_is_flat_for_balanced_membranes(chain_graph):
    # each membrane of the two-edge chain receives exactly what it sends
    # (sigma-weighted), so the invariant density is the flat profile at
    # mass / total length
    grid = make_grid(chain_graph, 0.1)
    gen = dual_generator(chain_graph, grid, kappa=1.0)
    phi0 = grid.sample(edge_indicator(0), CELLS)
    phi_inf = propagate(gen, phi0, 80.0)
    w = grid.weights(CELLS)
    level = norms(phi0, w).mass / w.sum()
    assert_allclose(phi_inf, level, atol=1e-8)
    assert np.abs(gen.matrix @ phi_inf).max() <= 1e-8


def test_long_time_limit_is_stationary_but_not_flat(star_graph):
    # the star's membranes are lopsided (E1 receives more than it sends),
    # so the density settles edge by edge at different levels; mass is
    # still conserved and the profile is a true fixed point
    grid = make_grid(star_graph, 0.1)
    gen = dual_generator(star_graph, grid, kappa=1.0)
    phi0 = grid.sample(edge_indicator(0), CELLS)
    phi_inf = propagate(gen, phi0, 80.0)
    assert np.abs(gen.matrix @ phi_inf).max() <= 1e-8
    w = grid.weights(CELLS)
    assert norms(phi_inf, w).mass == pytest.approx(norms(phi0, w).mass, abs=1e-10)
    assert phi_inf.max() - phi_inf.min() > 0.05


def test_cn_matches_expm_mildly_stiff(star_graph):
    grid = make_grid(star_graph, 0.05)
    gen = dual_generator(star_graph, grid, kappa=20.0)
    phi0 = grid.sample(edge_indicator(0), CELLS)
    a = scipy.linalg.expm(0.8 * gen.matrix.toarray()) @ phi0
    b = crank_nicolson(gen.mass, gen.flux, phi0, 0.8, rtol=1e-9)
    assert np.abs(a - b).max() <= 1e-7


def _directed_cycle(n, p):
    # edge i runs v_i -> v_{i+1} and passes everything that leaves its
    # right end into edge i + 1: conservative, but the limit chain is a
    # pure rotation with complex eigenvalues
    return MetricGraph(tuple(
        EdgeSpec(id=f"C{i}", length=1.0, sigma=1.0, left_vertex=f"v{i}",
                 right_vertex=f"v{(i + 1) % n}", r=p, r_to={f"C{(i + 1) % n}": p})
        for i in range(n)
    ))


# two Krylov windows, {0.1, 0.25} and {2, 10}: one pole serves a bounded
# range of times only (test_krylov_factors_once_per_window)
WIDE_TIMES = (0.1, 0.25, 2.0, 10.0)


def _expm_rows(gen, phi0, ts):
    """The dense reference, one row per time."""
    a = dense_generator(gen)
    return np.array([scipy.linalg.expm(t * a) @ phi0 for t in ts])


def _krylov_rows(gen, phi0, ts):
    """The propagator on the generator's own mass and terms (kappa S, C),
    as ``propagate`` takes them, one row per time."""
    return _stepping.krylov_apply(gen.mass, gen.terms, phi0, ts)


def _expm_power_rows(gen, phi0, ts, step=0.05):
    """The dense reference for nondecreasing times that are multiples of
    ``step``: one ``expm(step A)``, applied t/step times in all."""
    step_map = scipy.linalg.expm(step * gen.matrix.toarray())
    rows, u, done = [], phi0, 0
    for t in ts:
        k = round(t / step)
        assert k >= done and abs(k * step - t) <= 1e-12
        for _ in range(k - done):
            u = step_map @ u
        rows.append(u)
        done = k
    return np.array(rows)


@pytest.mark.parametrize("n,p", [(3, 10.0), (10, 10.0), (20, 5.0)])
def test_krylov_matches_expm_on_directed_cycles(n, p):
    graph = _directed_cycle(n, p)
    grid = make_grid(graph, 1.0 / 50)
    phi0 = grid.sample(edge_indicator(0), CELLS)
    for kappa in (1.0, 1e3):
        gen = dual_generator(graph, grid, kappa=kappa)
        got = _krylov_rows(gen, phi0, WIDE_TIMES)
        want = _expm_power_rows(gen, phi0, WIDE_TIMES)
        assert np.abs(got - want).max() <= 1e-8


def test_krylov_matches_expm_fem(star_graph):
    grid = make_grid(star_graph, 0.05)
    phi0 = grid.sample(edge_indicator(0), NODES)
    # at kappa = 1e4 dense expm's own round-off reaches about 3e-8
    for kappa, bound in ((1.0, 1e-9), (20.0, 1e-9), (1e4, 1e-7)):
        gen = l2_generator(assemble_forms(star_graph, grid, kappa))
        a = _expm_rows(gen, phi0, WIDE_TIMES)
        b = _krylov_rows(gen, phi0, WIDE_TIMES)
        assert np.abs(a - b).max() <= bound


def _counting_factors(monkeypatch):
    """The matrices that ``_stepping`` factors, in call order."""
    calls = []

    def factor(matrix):
        calls.append(matrix)
        return real_factor(matrix)

    real_factor = _stepping.factor_shifted
    monkeypatch.setattr(_stepping, "factor_shifted", factor)
    return calls


def test_krylov_factors_once_per_window(star_graph, monkeypatch):
    assert _stepping.time_windows([10.0, 0.0, 0.25, 2.0, 0.1, 2.0]) == [
        [0.1, 0.25], [2.0, 10.0]
    ]
    grid = make_grid(star_graph, 0.1)
    gen = dual_generator(star_graph, grid, kappa=10.0)
    phi0 = grid.sample(edge_indicator(0), CELLS)
    calls = _counting_factors(monkeypatch)
    _krylov_rows(gen, phi0, WIDE_TIMES)
    assert len(calls) == 2


@pytest.mark.parametrize("build", ["dual", "primal", "p1"])
def test_krylov_row_scales_every_mass(star_graph, monkeypatch, build):
    # every discretization factors D^-1 M + D^-1 K / gamma, D = diag(M)
    # (K given as one term); for FV and FD, D^-1 M is I exactly and
    # D^-1 K is -gen.matrix
    grid = make_grid(star_graph, 0.1)
    if build == "p1":
        gen = assemble_forms(star_graph, grid, 10.0)
    else:
        make = dual_generator if build == "dual" else primal_generator
        gen = make(star_graph, grid, 10.0)
    scale = sp.diags(1.0 / gen.mass.diagonal())
    mass, flux = convert(gen.mass), convert(gen.flux)
    if build != "p1":
        assert np.array_equal((scale @ mass).toarray(), np.eye(gen.n))
        assert (scale @ flux + convert(gen.matrix)).count_nonzero() == 0
    want = scale @ mass + scale @ flux / 10.0
    seen = _counting_factors(monkeypatch)
    _stepping.krylov_apply(gen.mass, [gen.flux], np.ones(gen.n), [1.0])
    assert len(seen) == 1
    assert np.array_equal(seen[0].toarray(), want.toarray())


def test_krylov_zero_start_factors_nothing(star_graph, monkeypatch):
    # ||u0||_M = 0: every row is 0, and no shifted matrix is factored
    grid = make_grid(star_graph, 0.1)
    gen = dual_generator(star_graph, grid, kappa=10.0)
    calls = _counting_factors(monkeypatch)
    got = _krylov_rows(gen, np.zeros(gen.n), [1.0, 0.0, 0.25])
    assert calls == []
    assert np.array_equal(got, np.zeros((3, gen.n)))


def test_sweep_factors_once_per_kappa(star_graph, monkeypatch):
    # the CLI's default times span a ratio of 8: one window, so one PDE
    # factorization per kappa and one of the limit chain's I - Q/gamma
    calls = _counting_factors(monkeypatch)
    grid = make_grid(star_graph, 0.1)
    kappa_sweep(star_graph, grid, [1.0, 10.0, 100.0], [0.25, 0.5, 1.0, 2.0],
                edge_indicator(0))
    n = grid.size(CELLS)
    assert sorted(m.shape for m in calls) == [(3, 3)] + [(n, n)] * 3


def test_krylov_times_come_back_in_input_order(star_graph):
    grid = make_grid(star_graph, 0.1)
    gen = dual_generator(star_graph, grid, kappa=10.0)
    phi0 = grid.sample(edge_indicator(0), CELLS)
    ts = [2.0, 0.0, 0.25, 2.0, 10.0, 0.1]
    got = _krylov_rows(gen, phi0, ts)
    assert got.shape == (len(ts), gen.n)
    assert np.array_equal(got[1], phi0)
    assert np.array_equal(got[0], got[3])
    assert np.abs(got - _expm_rows(gen, phi0, ts)).max() <= 1e-8


def _captured_hessenbergs(monkeypatch, run):
    """``run()`` and the (H_m, taus) pairs that its Krylov windows evaluate."""
    seen = []

    def record(hess, taus):
        seen.append((hess.copy(), np.array(taus)))
        return real(hess, taus)

    real = _stepping._small_exp_e1
    with monkeypatch.context() as patch:
        patch.setattr(_stepping, "_small_exp_e1", record)
        return run(), seen


def _dense_exp_e1(hess, taus):
    core = np.eye(len(hess)) - scipy.linalg.inv(hess)
    return np.array([scipy.linalg.expm(tau * core)[:, 0] for tau in taus]), core


def _star_window(disc, kappa):
    graph = load_graph(Path(__file__).resolve().parents[1] / "configs" / "star.json")
    grid = make_grid(graph, 0.005)
    if disc == FV:
        gen = dual_generator(graph, grid, kappa=kappa)
        phi0 = grid.sample(edge_indicator(0), CELLS)
    else:
        gen = assemble_forms(graph, grid, kappa)
        phi0 = grid.sample(edge_indicator(0), NODES)
    return lambda: _krylov_rows(gen, phi0, [0.25, 0.5, 1.0, 2.0])


def _cycle_window(kappa):
    graph = _directed_cycle(20, 5.0)
    grid = make_grid(graph, 1.0 / 50)
    gen = dual_generator(graph, grid, kappa=kappa)
    phi0 = grid.sample(edge_indicator(0), CELLS)
    return lambda: _krylov_rows(gen, phi0, WIDE_TIMES)


@pytest.mark.parametrize("case", [
    (FV, 1.0), (FV, 1e4), (FEM, 1.0), (FEM, 1e4), ("cycle", 1.0), ("cycle", 1e3),
], ids=lambda c: f"{c[0]}-{c[1]:g}")
def test_small_exp_matches_dense_expm_on_real_windows(case, monkeypatch):
    # the eigen evaluation of exp(tau (I - H^-1)) e1 against the dense expm
    # it replaced, on every Hessenberg of the window.  The dense expm is
    # itself off by up to eps ||tau (I - H^-1)||_1 (2e-10 relative on star
    # at kappa = 1e4, where a 40-digit reference puts the eigen evaluation
    # within 2e-14), so that bound is added to the 1e-12
    disc, kappa = case
    run = _cycle_window(kappa) if disc == "cycle" else _star_window(disc, kappa)
    _, seen = _captured_hessenbergs(monkeypatch, run)
    assert len(seen) >= 8
    eps = np.finfo(float).eps
    for hess, taus in seen:
        want, core = _dense_exp_e1(hess, taus)
        bound = 1e-12 + eps * taus.max() * np.abs(core).sum(axis=0).max()
        got = _stepping._small_exp_e1(hess, taus)
        assert np.abs(got - want).max() <= bound * np.abs(want).max()


def test_small_exp_falls_back_to_expm_on_a_near_defective_hessenberg(monkeypatch):
    # e1 is the generalized eigenvector of a Jordan-like block: its
    # coordinates in the nearly parallel eigenbasis are about 5e6
    calls = []

    def expm(matrix):
        calls.append(matrix.shape)
        return real_expm(matrix)

    real_expm = scipy.linalg.expm
    taus = np.array([0.5, 3.0])
    for eps in (1e-14, 0.0):
        hess = np.array([[0.5, eps], [1.0, 0.5]])
        want, _ = _dense_exp_e1(hess, taus)
        with monkeypatch.context() as patch:
            patch.setattr(scipy.linalg, "expm", expm)
            got = _stepping._small_exp_e1(hess, taus)
        assert_allclose(got, want, rtol=1e-14, atol=0)
    assert calls == [(2, 2)] * 4
    # an eigenbasis with exactly parallel columns cannot be solved at all
    monkeypatch.setattr(np.linalg, "eig", lambda a: (np.full(2, 0.5), np.ones((2, 2))))
    monkeypatch.setattr(scipy.linalg, "expm", expm)
    got = _stepping._small_exp_e1(hess, taus)
    assert_allclose(got, want, rtol=1e-14, atol=0)
    assert len(calls) == 6


def test_krylov_basis_grows_as_rtol_tightens(star_graph, monkeypatch):
    # at kappa = 1 the error against the dense reference falls with rtol;
    # at kappa = 1e4 the basis stops at 9 vectors for every rtol because
    # the iterates agree, and the remaining gap is the dense reference's
    # own round-off, not the stopping rule
    grid = make_grid(star_graph, 0.05)
    phi0 = grid.sample(edge_indicator(0), CELLS)
    ts = [0.25, 0.5, 1.0, 2.0]
    for kappa in (1.0, 1e4):
        gen = dual_generator(star_graph, grid, kappa=kappa)
        want = _expm_rows(gen, phi0, ts)
        sizes, errors = [], []
        for rtol in (1e-6, 1e-8, 1e-10, 1e-11):
            monkeypatch.setattr(_stepping, "KRYLOV_RTOL", rtol)
            got, seen = _captured_hessenbergs(
                monkeypatch, lambda: _krylov_rows(gen, phi0, ts))
            sizes.append(max(len(hess) for hess, _ in seen))
            errors.append(np.abs(got - want).max())
        assert sizes == sorted(sizes)
        if kappa == 1.0:
            assert sizes[-1] > sizes[0]
            assert errors[-1] <= 1e-3 * errors[0]
            assert all(b <= max(a, 5e-13) for a, b in zip(errors, errors[1:]))
        else:
            assert max(errors) <= 1e-9


LONG_TIMES = [0.1, 0.25, 0.5, 1.0, 2.0, 10.0]


def _long_star_sweep(disc, phi0):
    graph = load_graph(Path(__file__).resolve().parents[1] / "configs" / "star.json")
    grid = make_grid(graph, 0.005)
    return lambda: kappa_sweep(
        graph, grid, [1.0, 10.0, 100.0, 1e3, 1e4], LONG_TIMES, phi0, discretization=disc
    )


def test_a_window_reads_every_time_off_one_basis(monkeypatch):
    # every step evaluates every time of its window, the early times that
    # met the tolerance included, so all are read off the last basis; a
    # window's taus are gamma * t, gamma = SHIFT_T / sqrt(t_min t_max)
    windows = {
        tuple(w): _stepping.SHIFT_T / np.sqrt(w[0] * w[-1]) * np.array(w)
        for w in _stepping.time_windows(LONG_TIMES)
    }
    _, seen = _captured_hessenbergs(monkeypatch, _long_star_sweep(FV, edge_indicator(0)))
    visited = set()
    for _, taus in seen:
        (window,) = [w for w, want in windows.items()
                     if want.shape == taus.shape and np.allclose(taus, want)]
        visited.add(window)
    assert visited == set(windows)


@pytest.mark.parametrize("disc", [FV, FEM])
def test_early_times_meet_the_tolerance_of_the_last(disc, monkeypatch):
    # the early times of a window are as accurate as its last: a time read
    # off the smaller basis where its own iterates first agreed is up to
    # 4.8e-10 off in min_value against KRYLOV_RTOL = 1e-12
    sweep = _long_star_sweep(disc, lambda i, x: np.ones_like(np.asarray(x, dtype=float)))
    got = sweep()
    monkeypatch.setattr(_stepping, "KRYLOV_RTOL", 1e-12)
    want = sweep()
    # the same (kappa, t) grid, and every measured column within 1e-10
    assert np.array_equal(got.table[..., :2], want.table[..., :2])
    assert np.max(np.abs(got.table[..., 2:] - want.table[..., 2:])) <= 1e-10


class TestStepping:
    def test_cn_converges_on_scalar_problem(self):
        mass = convert(sp.eye(1, format="csr"))
        stiff = convert(sp.csr_matrix(np.array([[3.0]])))
        out = crank_nicolson(mass, stiff, np.array([2.0]), 1.0, rtol=1e-10)
        assert out[0] == pytest.approx(2.0 * np.exp(-3.0), rel=1e-8)

    def test_krylov_exact_on_invariant_subspace(self):
        mass = convert(sp.eye(1, format="csr"))
        stiff = convert(sp.csr_matrix(np.array([[3.0]])))
        out = _stepping.krylov_apply(mass, [stiff], np.array([2.0]), [1.0])[0]
        assert out[0] == pytest.approx(2.0 * np.exp(-3.0), rel=1e-13)

    @pytest.mark.parametrize("t", [-1.0, np.nan, np.inf])
    def test_krylov_rejects_bad_times(self, t):
        eye = convert(sp.eye(2, format="csr"))
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            _stepping.krylov_apply(eye, [eye], np.ones(2), [1.0, t])

    def test_krylov_rejects_wrong_length_start(self):
        eye = convert(sp.eye(2, format="csr"))
        with pytest.raises(ValueError, match=r"must have shape \(2,\), got \(3,\)"):
            _stepping.krylov_apply(eye, [eye], np.ones(3), [1.0])

    def test_krylov_gives_up_when_capped(self, monkeypatch):
        n = 40
        stiff = convert(sp.diags(np.arange(1.0, n + 1)))
        monkeypatch.setattr(_stepping, "KRYLOV_MAX_DIM", 6)
        with pytest.raises(_stepping.StepControlError, match="m=6"):
            _stepping.krylov_apply(convert(sp.eye(n)), [stiff], np.ones(n), [1.0])

    def test_capped_krylov_window_names_unconverged_time(self, monkeypatch):
        # t = 0.05 converges at m = 13, t = 0.4 of the same window does not
        n = 40
        stiff = convert(sp.diags(np.arange(1.0, n + 1)))
        monkeypatch.setattr(_stepping, "KRYLOV_MAX_DIM", 13)
        with pytest.raises(_stepping.StepControlError) as exc:
            _stepping.krylov_apply(convert(sp.eye(n)), [stiff], np.ones(n), [0.05, 0.4])
        assert "m=13" in str(exc.value)
        assert "t=0.4 " in str(exc.value)
        assert "t=0.05" not in str(exc.value)

    def test_cn_gives_up_when_capped(self):
        mass = convert(sp.eye(1, format="csr"))
        stiff = convert(sp.csr_matrix(np.array([[3.0]])))
        with pytest.raises(_stepping.StepControlError):
            crank_nicolson(
                mass, stiff, np.array([2.0]), 1.0, rtol=1e-14,
                start_steps=1, max_steps=2,
            )


# ---------------------------------------------------------------------------
# sweeps

def _run_small_sweep(graph, disc=FV, **kw):
    grid = make_grid(graph, 0.1)
    return kappa_sweep(
        graph, grid, [1.0, 10.0, 100.0], [0.5, 1.0], edge_indicator(0),
        discretization=disc, **kw
    )


def test_sweep_table_layout(star_graph):
    res = _run_small_sweep(star_graph)
    assert res.discretization == FV
    assert res.table.shape == (3, 2, len(CSV_COLUMNS))
    assert res.times() == [0.5, 1.0]
    assert np.array_equal(res.table[..., 0], [[1.0, 1.0], [10.0, 10.0], [100.0, 100.0]])
    assert np.array_equal(res.table[..., 1], [[0.5, 1.0]] * 3)
    assert not res.table.flags.writeable


@pytest.mark.parametrize("t", [3.0, 0.75])
def test_errors_at_an_unswept_time_raise(star_graph, t):
    res = _run_small_sweep(star_graph)
    with pytest.raises(ValueError, match=rf"t={t:g} .*\[0\.5, 1\.0\]"):
        res.errors(t)


def test_sweep_errors_decrease_with_kappa(star_graph):
    res = _run_small_sweep(star_graph)
    assert res.nonincreasing().tolist() == [True, True]
    for t in res.times():
        e = res.errors(t)
        assert e[0] > e[-1]
        # the limit lives on edge averages, so the projected error is
        # bounded by the full error
        p = res.errors(t, "err_projected")
        assert np.all(p <= e + 1e-12)


def test_sweep_fem_path(star_graph):
    res = _run_small_sweep(star_graph, disc=FEM)
    assert res.nonincreasing().all()
    assert np.all(np.isfinite(res.table[..., CSV_COLUMNS.index("err_l2")]))


def test_sweep_sealed_edge_errors_track_flattening(sealed_edge):
    # no membranes: the limit chain is frozen (Q = 0), so the error is just
    # the distance from the flattened profile, which higher kappa shrinks
    grid = make_grid(sealed_edge, 0.05)
    res = kappa_sweep(sealed_edge, grid, [1.0, 10.0, 100.0], [0.5],
                      lambda e, x: np.cos(np.pi * x))
    e = res.errors(0.5)
    assert e[0] > e[-1]
    assert res.nonincreasing().all()


@pytest.mark.parametrize("disc", [FV, FEM])
def test_sweep_from_zero_is_zero(star_graph, disc):
    # the discrete and the chain state both stay 0: every error, the
    # drift and the minimum read 0
    grid = make_grid(star_graph, 0.1)
    res = kappa_sweep(star_graph, grid, [1.0, 10.0, 100.0], [0.5, 1.0],
                      lambda i, x: np.zeros_like(x), discretization=disc)
    assert np.array_equal(res.table[..., CSV_COLUMNS.index("err_l1"):], np.zeros((3, 2, 5)))


def test_sweep_conserves_mass_when_conservative(star_graph):
    res = _run_small_sweep(star_graph)
    assert np.max(np.abs(res.table[..., CSV_COLUMNS.index("mass_drift")])) <= 1e-10


def test_sweep_validates_arguments(star_graph):
    grid = make_grid(star_graph, 0.1)
    ind = edge_indicator(0)
    with pytest.raises(ValueError):
        kappa_sweep(star_graph, grid, [10.0, 1.0], [1.0], ind)     # not increasing
    with pytest.raises(ValueError):
        kappa_sweep(star_graph, grid, [-1.0, 1.0], [1.0], ind)
    with pytest.raises(ValueError):
        kappa_sweep(star_graph, grid, [1.0], [], ind)
    with pytest.raises(ValueError):
        kappa_sweep(star_graph, grid, [1.0], [-2.0], ind)
    with pytest.raises(ValueError, match="must not repeat a time"):
        kappa_sweep(star_graph, grid, [1.0], [1.0, 0.0, 1.0], ind)
    with pytest.raises(ValueError):
        kappa_sweep(star_graph, grid, [1.0], [1.0], ind, discretization="fdtd")
    with pytest.raises(ValueError, match="trace_order"):
        kappa_sweep(star_graph, grid, [1.0], [1.0], ind, discretization=FEM,
                    trace_order=2)


@pytest.mark.parametrize("kappas,ts", [
    ([1.0], [np.nan]),
    ([1.0], [0.5, np.inf]),
    ([1.0, np.inf], [1.0]),
    ([np.nan], [1.0]),
])
def test_sweep_rejects_non_finite(star_graph, kappas, ts):
    grid = make_grid(star_graph, 0.1)
    with pytest.raises(ValueError, match="finite"):
        kappa_sweep(star_graph, grid, kappas, ts, edge_indicator(0))


def test_sweep_csv_format(star_graph, tmp_path):
    # the grid and sweep of _run_small_sweep, through the command line
    out = tmp_path / "sweep.csv"
    config = write_config(star_graph, tmp_path / "star.json")
    main(["sweep", "--graph", config, "--kappa", "1,10,100", "--t", "0.5,1",
          "--h", "0.1", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "kappa,t,err_l1,err_l2,err_projected,mass_drift,min_value"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "0.5"
    # every numeric field round-trips exactly through 17 significant digits
    for line in lines[1:]:
        for tok in line.split(","):
            assert format(float(tok), ".17g") == tok


def test_nonincreasing_detects_regression():
    # at t = 1 the error grows from kappa 1 to 10; at t = 2 it shrinks
    table = np.array([
        [[1.0, 1.0, 0.5, 0.5, 0.4, 0.0, 0.0], [1.0, 2.0, 0.5, 0.5, 0.4, 0.0, 0.0]],
        [[10.0, 1.0, 0.7, 0.7, 0.6, 0.0, 0.0], [10.0, 2.0, 0.3, 0.3, 0.2, 0.0, 0.0]],
    ])
    res = SweepResult(table=table, discretization=FV)
    assert res.nonincreasing().tolist() == [False, True]


def test_sweep_limit_solution_is_the_projection(star_graph):
    # the sweep's limit side is the chain started from the projection P phi0:
    # at t = 0 it is P phi0 lifted back, so an edgewise-constant start has
    # no error, no projected error and no drift on either discretization
    grid = make_grid(star_graph, 0.1)
    columns = [CSV_COLUMNS.index(c) for c in ("err_l1", "err_l2", "err_projected", "mass_drift")]
    for disc in (FV, FEM):
        res = kappa_sweep(star_graph, grid, [1.0, 10.0, 100.0], [0.0, 1.0], edge_indicator(0),
                          discretization=disc)
        assert np.abs(res.table[:, 0, columns]).max() <= 1e-15
    # and the chain it starts is a semigroup: two steps are one
    q = chain_generator(star_graph, DUAL)
    start = np.array([1.0, 0.0, 0.0])
    direct = propagator(q, 1.0) @ start
    two_step = propagator(q, 0.25) @ (propagator(q, 0.75) @ start)
    assert_allclose(direct, two_step, atol=1e-13)


def test_sweep_never_forms_the_dense_chain_propagator(star_graph, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep formed a dense exp(tQ)")

    expected = _run_small_sweep(star_graph)
    monkeypatch.setattr(chain, "propagator", refuse)
    assert np.array_equal(_run_small_sweep(star_graph).table, expected.table)


SHIPPED_SWEEPS = (["sweep", "--disc", "fv"], ["sweep", "--disc", "fem"],
                  ["sweep", "--trace-order", "2"])


class _Refused:
    """A numpy function that raises when called; a ufunc's methods still
    serve (``np.min`` is ``np.minimum.reduce``)."""

    def __init__(self, real):
        self.real = real

    def __call__(self, *args, **kwargs):
        raise AssertionError(f"a command called numpy's {self.real.__name__}")

    def __getattr__(self, name):
        return getattr(self.real, name)


def _run_refusing(config, monkeypatch, tmp_path, names, commands):
    """Each command on the shipped ``config``, exit 0, with the numpy
    functions ``names`` refused."""
    for name in names:
        monkeypatch.setattr(np, name, _Refused(getattr(np, name)))
    graph = str(Path(__file__).resolve().parents[1] / "configs" / f"{config}.json")
    for command, *flags in commands:
        assert main([command, "--graph", graph, *flags, "--out", str(tmp_path / "s.csv")]) == 0


@pytest.mark.parametrize("config", ["star", "chain"])
def test_sweeps_call_no_numpy_sort(config, monkeypatch, tmp_path):
    # the record keeps its couplings as given and every consumer on the
    # sweep path sums a repeated pair where it applies it, so no sweep
    # orders an array: the canonical listing is for limit-q and checks;
    # duality-check finds a diagonal mass from its stored parts
    _run_refusing(config, monkeypatch, tmp_path, ("sort", "argsort", "lexsort", "unique"),
                  (*SHIPPED_SWEEPS, ["duality-check"]))


@pytest.mark.parametrize("config", ["star", "chain"])
def test_sweeps_call_no_one_off_kernel(config, monkeypatch, tmp_path):
    # the grid check, the band binning and the probe use only kernels that
    # the rest of the path pages in anyway (np.cumsum stays legal: the
    # EdgeGrid offsets take it)
    _run_refusing(config, monkeypatch, tmp_path, ("allclose", "minimum", "cos"), SHIPPED_SWEEPS)


def test_krylov_window_keeps_no_iterate_history(monkeypatch):
    # at KRYLOV_MAX_DIM = 512 the window allocates the basis, the Arnoldi
    # matrix and a few small arrays; a zeroed history of every iterate
    # would add (513 x 4 x 512) doubles, 8.4 MB
    run = _star_window(FV, 1e4)
    expected = run()
    n = expected.shape[1]
    monkeypatch.setattr(_stepping, "KRYLOV_MAX_DIM", 512)
    tracemalloc.start()
    try:
        got = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (513 * n + 513 * 512) * 8 + 2**20
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("graph", ["star", "leaky_star", "chain_config"])
def test_limit_states_match_the_dense_propagator(graph, request):
    if graph == "chain_config":
        g = load_graph(Path(__file__).resolve().parents[1] / "configs" / "chain.json")
    else:
        g = request.getfixturevalue(f"{graph}_graph")
    q = chain_generator(g, DUAL)
    c0 = np.zeros(g.n_edges)
    c0[0] = 1.0
    ts = [0.0, 0.25, 0.5, 1.0, 2.0]
    limit = chain_form(g)
    got = _stepping.krylov_apply(limit.mass, limit.terms, c0, ts)
    for t, row in zip(ts, got):
        assert np.sum(g.lengths * np.abs(row - propagator(q, t) @ c0)) <= 1e-12
