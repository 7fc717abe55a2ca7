"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a PASS line once its assertions clear (visible under
``pytest -s``), so a transcript doubles as a checklist.  Fixtures shared
by the slow convergence checks are module-scoped; the whole file runs in
well under a minute.
"""

from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial import Polynomial
from numpy.testing import assert_allclose

import graphdiff as gd
from graphdiff import evolution, galerkin
from graphdiff.chain import propagator
from graphdiff.finite_volume import chain_form, primal_generator
from graphdiff.graphs import load_graph
from graphdiff.grids import CELLS, NODES, EdgeGrid, edge_indicator, make_grid

from conftest import make_star
from reference import (
    convert, crank_nicolson, dense_generator, growth_rate, interpolate_to_cells, l2_norm,
    resolvent_image_series,
)


ACCEPT_KAPPAS = [1.0, 10.0, 100.0, 1000.0]
ACCEPT_CELLS = 200   # h = 1/200 on unit edges


@pytest.fixture(scope="module")
def star():
    return make_star(conservative=True)


@pytest.fixture(scope="module")
def leaky_star():
    return make_star(conservative=False)


@pytest.fixture(scope="module")
def fine_grid():
    return EdgeGrid(lengths=(1.0, 1.0, 1.0), cells=(ACCEPT_CELLS,) * 3)


@pytest.fixture(scope="module")
def fv_sweep(star, fine_grid):
    return gd.kappa_sweep(
        star, fine_grid, ACCEPT_KAPPAS, [1.0], edge_indicator(0),
        discretization=gd.FV, trace_order=1,
    )


@pytest.fixture(scope="module")
def fem_sweep(star, fine_grid):
    return gd.kappa_sweep(
        star, fine_grid, ACCEPT_KAPPAS, [1.0], edge_indicator(0),
        discretization=gd.FEM,
    )


@pytest.fixture(scope="module")
def paired_solutions(star, fine_grid):
    """FV and FEM states at t = 1 for each kappa, on the cell midpoints."""
    phi0_cells = fine_grid.sample(edge_indicator(0), CELLS)
    phi0_nodes = fine_grid.sample(edge_indicator(0), NODES)
    out = {}
    for kappa in ACCEPT_KAPPAS:
        fv = gd.dual_generator(star, fine_grid, kappa, trace_order=1)
        u_fv = evolution.propagate(fv, phi0_cells, 1.0)
        fem = galerkin.l2_generator(galerkin.assemble_forms(star, fine_grid, kappa))
        u_fem = interpolate_to_cells(
            fine_grid, evolution.propagate(fem, phi0_nodes, 1.0)
        )
        out[kappa] = (u_fv, u_fem)
    return out


def test_criterion_1_interval_resolvent_oracle(sealed_edge):
    lam = 1.0
    phi = Polynomial([0.0, 1.0])
    errs = {}
    for m in (100, 200, 400):
        grid = EdgeGrid(lengths=(1.0,), cells=(m,))
        gen = gd.dual_generator(sealed_edge, grid, kappa=1.0)
        x = grid.coords(0, CELLS)
        mat = (lam * sp.eye(m) - convert(gen.matrix)).tocsc()
        u = spla.spsolve(mat, phi(x))
        errs[m] = float(np.sum(np.abs(u - gd.resolvent_apply(0.0, 1.0, lam, phi, x))) / m)
    assert errs[400] <= 1e-3
    ratio = errs[100] / errs[200]
    assert 3.5 <= ratio <= 4.5
    print(f"criterion 1: PASS (err@1/400 {errs[400]:.2e}, ratio {ratio:.2f})")


def test_criterion_2_image_series_crosscheck():
    sources = [
        Polynomial([1.0]),
        Polynomial([0.0, 1.0]),
        Polynomial([0.0, 0.0, 1.0]),
        Polynomial([1.0, -2.0, 0.0, 3.0]),
    ]
    x = np.linspace(0.0, 1.0, 41)
    worst = 0.0
    for lam in (0.25, 1.0, 4.0, 100.0):
        for phi in sources:
            direct = gd.resolvent_apply(0.0, 1.0, lam, phi, x)
            series = resolvent_image_series(0.0, 1.0, lam, phi, x, tolerance=1e-12)
            worst = max(worst, float(np.abs(direct - series).max()))
    assert worst <= 1e-10
    print(f"criterion 2: PASS (worst deviation {worst:.2e})")


def test_criterion_3_small_lambda_averaging():
    table = gd.averaging_limit_check(
        0.0, 1.0, Polynomial([0.0, 1.0]), [1e-1, 1e-2, 1e-3, 1e-4]
    )
    d = table.distances()
    assert table.average == pytest.approx(0.5)
    assert np.all(np.diff(d) <= 0.0)
    assert d[-1] <= 0.05
    # a degree-4 source down to lam = 1e-8: the distance is linear in lam
    quartic = gd.averaging_limit_check(
        0.0, 1.0, Polynomial([0.3, -0.5, 0.7, 0.2, -0.9]),
        [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8],
    )
    dq = quartic.distances()
    rate = dq / np.array([lam for lam, _ in quartic.rows])
    assert np.all(np.diff(dq) <= 0.0)
    assert dq[-1] <= 0.05
    assert rate.max() <= 1.01 * rate.min()
    print(f"criterion 3: PASS (distances {d[0]:.2e} -> {d[-1]:.2e}; "
          f"quartic distance/lam {rate.min():.5e} to {rate.max():.5e})")


def test_criterion_4_markov_property(star, leaky_star):
    kappa = 25.0
    grid = make_grid(star, 1.0 / 50)
    phi0 = grid.sample(edge_indicator(0), CELLS)

    gen = gd.dual_generator(star, grid, kappa, trace_order=1)
    w = grid.weights(CELLS)
    mass0 = w @ phi0
    worst_drift, worst_min = 0.0, 0.0
    for t in np.linspace(0.0, 2.0, 9):
        u = evolution.propagate(gen, phi0, float(t))
        worst_drift = max(worst_drift, abs(w @ u - mass0))
        worst_min = min(worst_min, float(u.min()))
    assert worst_drift <= 1e-10
    assert worst_min >= -1e-10

    # leaky membranes: mass decays, and the decay rate is exactly the
    # boundary functional w^T A u
    leaky = gd.dual_generator(leaky_star, grid, kappa, trace_order=1)
    a = leaky.matrix.toarray()
    w = grid.weights(CELLS)
    masses = [w @ evolution.propagate(leaky, phi0, float(t))
              for t in np.linspace(0.0, 2.0, 9)]
    assert all(b < a_ for a_, b in zip(masses, masses[1:]))

    delta = 1e-3
    stepper = sla.expm(a * delta)
    u = sla.expm(a * (1.0 - 2 * delta)) @ phi0
    window = [u]
    for _ in range(4):
        window.append(stepper @ window[-1])
    m = [w @ v for v in window]
    rate_fd = (-m[4] + 8 * m[3] - 8 * m[1] + m[0]) / (12 * delta)
    rate_formula = w @ (a @ window[2])
    assert abs(rate_fd - rate_formula) <= 1e-8
    print(
        f"criterion 4: PASS (drift {worst_drift:.1e}, min {worst_min:.1e}, "
        f"rate gap {abs(rate_fd - rate_formula):.1e})"
    )


def test_criterion_5_limit_chain_structure(star, leaky_star, chain_graph):
    worst = 0.0
    for g in (star, leaky_star, chain_graph):
        q = gd.chain_generator(g, gd.DUAL)
        col = g.lengths @ q
        expected = np.array([
            e.sigma * (sum(e.l_to.values()) + sum(e.r_to.values()) - e.l - e.r)
            for e in g.edges
        ])
        worst = max(worst, float(np.abs(col - expected).max()))
    assert worst <= 1e-14

    for g, conservative in ((star, True), (leaky_star, False)):
        q = gd.chain_generator(g, gd.DUAL)
        for t in (0.1, 1.0, 5.0):
            p = propagator(q, t)
            assert p.min() >= -1e-12
            if conservative:
                assert_allclose(g.lengths @ p, g.lengths, atol=1e-10)
    print(f"criterion 5: PASS (column identity gap {worst:.1e})")


def test_criterion_6_fv_convergence_to_chain(fv_sweep):
    errs = fv_sweep.errors(1.0)            # L1 by default on the fv path
    assert np.all(np.diff(errs) < 0.0)     # strictly decreasing in kappa
    assert errs[-1] <= 0.05 * 1.0          # phi0 is an indicator of a unit edge
    print("criterion 6: PASS (L1 errors " +
          " -> ".join(f"{e:.2e}" for e in errs) + ")")


def test_criterion_7_fem_convergence_and_agreement(fv_sweep, fem_sweep, paired_solutions, fine_grid):
    errs = fem_sweep.errors(1.0)           # L2 on the fem path
    assert np.all(np.diff(errs) < 0.0)
    fv_l2 = fv_sweep.errors(1.0, "err_l2")
    assert errs[-1] <= 2.0 * fv_l2[-1]
    assert errs[-1] >= 0.5 * fv_l2[-1]

    w = fine_grid.weights(CELLS)
    h = 1.0 / ACCEPT_CELLS
    bound = max(5e-3, 10.0 * h * h)
    worst = 0.0
    for kappa, (u_fv, u_fem) in paired_solutions.items():
        rel = float(np.sqrt(w @ (u_fv - u_fem) ** 2) / np.sqrt(w @ u_fv**2))
        worst = max(worst, rel)
        assert rel <= bound, f"kappa={kappa}: {rel:.2e} > {bound:.2e}"
    print(f"criterion 7: PASS (worst FV/FEM rel gap {worst:.2e} <= {bound:.1e})")


def test_criterion_8_duality_defect_refinement(star):
    kappa = 1.5
    rng = np.random.default_rng(41)
    worst_ratio = 0.0
    for draw in range(3):
        f = gd.with_primal_conditions(star, kappa, rng.uniform(-1, 1, (3, 4)))
        phi = gd.with_dual_conditions(star, kappa, rng.uniform(-1, 1, (3, 4)))
        order = 2 if draw == 2 else 1
        defects = [
            gd.duality_defect(star, make_grid(star, h), kappa, f, phi,
                              trace_order=order)
            for h in (0.04, 0.02, 0.01)
        ]
        for coarse, fine in zip(defects, defects[1:]):
            worst_ratio = max(worst_ratio, fine / coarse)
    assert worst_ratio <= 0.75
    print(f"criterion 8: PASS (worst halving ratio {worst_ratio:.3f})")


def test_criterion_9_semigroup_law_and_method_agreement(star):
    grid = make_grid(star, 1.0 / 50)
    phi0 = grid.sample(edge_indicator(0), CELLS)

    gen = gd.dual_generator(star, grid, kappa=40.0, trace_order=1)
    one_shot = evolution.propagate(gen, phi0, 1.0)
    for s in (0.25, 0.6):
        split = evolution.propagate(gen, evolution.propagate(gen, phi0, s), 1.0 - s)
        assert np.abs(split - one_shot).max() <= 1e-7

    stiff_gen = gd.dual_generator(star, grid, kappa=1e4, trace_order=1)
    u_expm = sla.expm(stiff_gen.matrix.toarray()) @ phi0
    u_cn = crank_nicolson(stiff_gen.mass, stiff_gen.flux, phi0, 1.0, rtol=1e-9)
    gap = float(np.abs(u_expm - u_cn).max())
    assert gap <= 1e-6
    u_default = evolution.propagate(stiff_gen, phi0, 1.0)
    gap_default = float(np.abs(u_default - u_cn).max())
    assert gap_default <= 1e-6
    print(
        f"criterion 9: PASS (splitting + expm/CN gap {gap:.1e}, "
        f"default/CN gap {gap_default:.1e})"
    )


def test_criterion_10_growth_bound(star):
    kappa = 5.0
    gammas = {}
    for m in (25, 50, 100):
        grid = make_grid(star, 1.0 / m)
        system = galerkin.assemble_forms(star, grid, kappa)
        gammas[m] = growth_rate(system)
    values = list(gammas.values())
    assert all(np.isfinite(g) for g in values)
    for coarse, fine in zip(values, values[1:]):
        assert abs(fine - coarse) <= 0.10 * abs(fine)

    grid = make_grid(star, 1.0 / 50)
    rng = np.random.default_rng(8)
    for kap in (2.0, 40.0):
        system = galerkin.assemble_forms(star, grid, kap)
        gamma = growth_rate(system)
        a = dense_generator(galerkin.l2_generator(system))
        for _ in range(4):
            u0 = rng.normal(size=system.n)
            n0 = l2_norm(system, u0)
            for t in (0.2, 1.0, 3.0):
                u = sla.expm(t * a) @ u0
                nt = l2_norm(system, u)
                assert nt <= np.exp(gamma * t) * n0 * (1.0 + 1e-9)
    print(f"criterion 10: PASS (gamma_emp {values[-1]:.5f}, refinement-stable)")


def test_criterion_11_each_side_converges_to_its_own_chain():
    # forward FD (nodes) tends to Q_primal and adjoint FV (cells) to
    # Q_dual, each at the rate 1/kappa; each stays away from the other chain
    star = load_graph(Path(__file__).resolve().parents[1] / "configs" / "star.json")
    grid = make_grid(star, 0.005)
    t, c0 = 0.5, np.array([1.0, 2.0, 3.0])
    chains = {adjoint: evolution.propagate(chain_form(star, adjoint), c0, t)
              for adjoint in (False, True)}
    sides = {False: (primal_generator, NODES), True: (gd.dual_generator, CELLS)}
    ratios, cross = [], np.inf
    for adjoint, (build, layout) in sides.items():
        start = np.repeat(c0, np.diff(grid.offsets(layout)))
        gaps = []
        for kappa in (1e2, 1e3, 1e4):
            u = evolution.propagate(build(star, grid, kappa), start, t)
            avg = grid.averaging(layout, u)
            gaps.append(float(np.abs(avg - chains[adjoint]).max()))
            cross = min(cross, float(np.abs(avg - chains[not adjoint]).max()))
        ratios += [fine / coarse for coarse, fine in zip(gaps, gaps[1:])]
    assert all(0.09 <= r <= 0.11 for r in ratios)
    assert cross > 0.1
    print(f"criterion 11: PASS (per-decade ratios {min(ratios):.4f} to "
          f"{max(ratios):.4f}, cross distance >= {cross:.3f})")


def test_criterion_12_slow_spectrum_is_the_chain():
    # the collapse as a spectrum: the n_edges slowest eigenvalues of the
    # adjoint FV generator tend to eig(Q_dual) like 1/kappa, the next one
    # escapes like -pi^2 sigma_min kappa / L^2, and 0 stays at round-off
    star = load_graph(Path(__file__).resolve().parents[1] / "configs" / "star.json")
    n, hs, kappas = star.n_edges, (0.05, 0.025, 0.0125), (1e2, 1e3, 1e4)
    mu = np.sort(np.linalg.eigvals(chain_form(star, adjoint=True).matrix.toarray()).real)[::-1]
    assert_allclose(mu, [0.0, -1.2973, -1.7427], atol=1e-4)
    gap = -np.pi**2 * star.sigmas.min() / star.lengths.max()**2

    def spectrum(h, kappa, order):
        a = gd.dual_generator(star, make_grid(star, h), kappa, trace_order=order).matrix.toarray()
        lam = np.linalg.eigvals(a)
        lam = lam[np.argsort(-lam.real)]
        return lam, float(np.abs(lam[:n] - mu).max()), np.abs(a).sum(axis=0).max()

    ratios, constants = [], {}
    for h in hs:
        devs = []
        for kappa in kappas:
            lam, dev, norm1 = spectrum(h, kappa, 1)
            devs.append(dev)
            assert abs(lam[0]) <= 10 * np.finfo(float).eps * norm1
            if h == hs[-1]:
                assert abs(lam[n].real / kappa - gap) <= 0.01 * abs(gap)
        ratios += [fine / coarse for coarse, fine in zip(devs, devs[1:])]
        constants[1, h] = kappas[1] * devs[1]
        constants[2, h] = kappas[1] * spectrum(h, kappas[1], 2)[1]
    assert all(0.09 <= r <= 0.11 for r in ratios)
    shrink = {}
    for order in (1, 2):
        diffs = np.diff([constants[order, h] for h in hs])
        shrink[order] = diffs[1] / diffs[0]
    assert 0.4 <= shrink[1] <= 0.6 and 0.15 <= shrink[2] <= 0.35
    print(f"criterion 12: PASS (per-decade ratios {min(ratios):.4f} to {max(ratios):.4f}, "
          f"h-shrink {shrink[1]:.3f} / {shrink[2]:.3f} at trace order 1 / 2)")
