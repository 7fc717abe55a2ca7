import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from graphdiff.chain import DUAL, PiecewiseConstant, chain_generator, project_averages
from graphdiff.galerkin import assemble_forms, l2_generator
from graphdiff.grids import NODES, EdgeGrid, make_grid

from reference import (
    crank_nicolson,
    dense_generator,
    growth_rate,
    interpolate_to_cells,
    l2_norm,
)


def test_mass_matrix_integrates_one(chain_graph):
    grid = make_grid(chain_graph, 0.25)
    system = assemble_forms(chain_graph, grid, kappa=1.0)
    ones = np.ones(system.n)
    assert ones @ (system.mass @ ones) == pytest.approx(3.0)   # total length


def test_stiffness_annihilates_edge_constants(star_graph):
    grid = make_grid(star_graph, 0.2)
    system = assemble_forms(star_graph, grid, kappa=4.0)
    lifted = PiecewiseConstant([1.0, -2.0, 0.5], grid.lengths).lift(grid, NODES)
    assert np.abs(system.kappa * system.diffusion @ lifted).max() <= 1e-12


def test_coupling_block_two_edges(chain_graph):
    # with unit permeabilities and equal sigma the endpoint pair
    # (right end of E1, left end of E2) couples through [[1,-1],[-1,1]]
    grid = make_grid(chain_graph, 0.5)
    system = assemble_forms(chain_graph, grid, kappa=1.0)
    c = system.coupling.toarray()
    u = grid.block(0, NODES).stop - 1
    v = grid.block(1, NODES).start
    assert_allclose(c[np.ix_([u, v], [u, v])], [[1.0, -1.0], [-1.0, 1.0]])
    # all other rows are empty: coupling lives on endpoint nodes only
    mask = np.ones(system.n, dtype=bool)
    mask[[u, v]] = False
    assert np.abs(c[mask]).max() == 0.0


def test_sealed_edge_generalized_cosine_eigenpairs(sealed_edge):
    # exact discrete identity for the consistent-mass P1 pair (B, M):
    # v_j = cos(k pi j h) satisfies B v = lam_h M v with
    # lam_h = (6/h^2) (1 - c) / (2 + c), c = cos(k pi h)
    m = 32
    grid = EdgeGrid(lengths=(1.0,), cells=(m,))
    system = assemble_forms(sealed_edge, grid, kappa=1.0)
    h = 1.0 / m
    j = np.arange(m + 1)
    for k in (1, 3, 7):
        c = np.cos(k * np.pi * h)
        v = np.cos(k * np.pi * j * h)
        lam_h = (6.0 / h**2) * (1.0 - c) / (2.0 + c)
        assert_allclose(system.diffusion @ v, lam_h * (system.mass @ v),
                        atol=1e-9 * lam_h)


def test_stiffness_is_accretive_and_linear_in_kappa(star_graph, sealed_edge):
    grid = make_grid(star_graph, 0.2)
    s1 = assemble_forms(star_graph, grid, kappa=1.0)
    s5 = assemble_forms(star_graph, grid, kappa=5.0)
    assert_allclose((s5.kappa * s5.diffusion).toarray(),
                    5.0 * (s1.kappa * s1.diffusion).toarray(), rtol=1e-14)
    rng = np.random.default_rng(3)
    for _ in range(8):
        u = rng.normal(size=s1.n)
        assert u @ (s1.diffusion @ u) >= -1e-12
    # no membranes -> no endpoint coupling at all
    sealed = assemble_forms(sealed_edge, make_grid(sealed_edge, 0.2), kappa=1.0)
    assert sealed.coupling.nnz == 0


def test_conservative_chain_preserves_mass(chain_graph):
    grid = make_grid(chain_graph, 0.05)
    system = assemble_forms(chain_graph, grid, kappa=2.0)
    rng = np.random.default_rng(5)
    u0 = rng.uniform(0.0, 1.0, system.n)
    ones = np.ones(system.n)
    m0 = ones @ (system.mass @ u0)
    a = dense_generator(l2_generator(system))
    for t in (0.3, 1.0):
        ut = scipy.linalg.expm(t * a) @ u0
        assert np.isrealobj(ut)
        assert ones @ (system.mass @ ut) == pytest.approx(m0, abs=1e-8)


def test_sealed_edge_cosine_decay_matches_continuum(sealed_edge):
    # the consistent-mass pair shifts the first Neumann mode by O(h^2), so a
    # fine grid tracks e^{-pi^2 t} cos(pi x) itself, not just its own mode
    m = 800
    grid = EdgeGrid(lengths=(1.0,), cells=(m,))
    system = assemble_forms(sealed_edge, grid, kappa=1.0)
    u0 = np.cos(np.pi * np.arange(m + 1) / m)
    ut = scipy.linalg.expm(0.1 * dense_generator(l2_generator(system))) @ u0
    assert np.abs(ut - np.exp(-np.pi**2 * 0.1) * u0).max() <= 1e-6


def test_constant_lift_reproduces_chain_generator(star_graph):
    # restricting -M^{-1} C to edge-wise constants and averaging back gives
    # exactly the limit chain generator; piecewise-linear interpolation of a
    # constant is that constant, so no discretization error enters
    grid = make_grid(star_graph, 0.25)
    system = assemble_forms(star_graph, grid, kappa=2.0)
    q = chain_generator(star_graph, DUAL)
    mass = system.mass.toarray()
    for v in np.eye(3):
        lifted = PiecewiseConstant(v, grid.lengths).lift(grid, NODES)
        acted = -np.linalg.solve(mass, system.coupling @ lifted)
        assert_allclose(project_averages(grid, NODES, acted), q @ v, atol=1e-12)


def test_generator_matches_forms(star_graph):
    grid = make_grid(star_graph, 0.2)
    system = assemble_forms(star_graph, grid, kappa=3.0)
    gen = l2_generator(system)
    assert gen is system
    flux = (system.kappa * system.diffusion + system.coupling).toarray()
    assert_allclose(system.mass.toarray() @ dense_generator(gen), -flux, atol=1e-10)


def test_generator_matrix_refuses_the_consistent_mass(star_graph):
    # -M^-1 K is dense for the P1 mass; the package forms it nowhere
    system = assemble_forms(star_graph, make_grid(star_graph, 0.2), kappa=3.0)
    with pytest.raises(ValueError, match="diagonal mass only"):
        system.matrix


def test_evolve_methods_agree(star_graph):
    grid = make_grid(star_graph, 0.1)
    system = assemble_forms(star_graph, grid, kappa=50.0)
    rng = np.random.default_rng(2)
    u0 = rng.uniform(0.0, 1.0, system.n)
    gen = l2_generator(system)
    a = scipy.linalg.expm(0.5 * dense_generator(gen)) @ u0
    b = crank_nicolson(gen.mass, gen.flux, u0, 0.5, rtol=1e-10)
    assert l2_norm(system, a - b) <= 1e-7 * l2_norm(system, u0)


def test_growth_bound_is_sharp_semidiscretely(star_graph):
    grid = make_grid(star_graph, 0.1)
    system = assemble_forms(star_graph, grid, kappa=5.0)
    gamma = growth_rate(system)
    assert np.isfinite(gamma)
    a = dense_generator(l2_generator(system))
    rng = np.random.default_rng(9)
    for _ in range(5):
        u0 = rng.normal(size=system.n)
        n0 = l2_norm(system, u0)
        for t in (0.1, 0.7, 2.0):
            nt = l2_norm(system, scipy.linalg.expm(t * a) @ u0)
            assert nt <= np.exp(gamma * t) * n0 * (1.0 + 1e-9)


def test_growth_rate_nonpositive_without_membranes(sealed_edge):
    grid = make_grid(sealed_edge, 0.1)
    system = assemble_forms(sealed_edge, grid, kappa=1.0)
    # pure Neumann diffusion never grows; the constant mode makes it 0
    assert growth_rate(system) == pytest.approx(0.0, abs=1e-12)


def test_interpolate_to_cells():
    grid = EdgeGrid(lengths=(1.0, 1.0), cells=(2, 2))
    u = np.array([0.0, 1.0, 2.0, 10.0, 20.0, 30.0])
    mid = interpolate_to_cells(grid, u)
    assert_allclose(mid, [0.5, 1.5, 15.0, 25.0])


def test_assembly_validation(star_graph, chain_graph):
    grid = make_grid(star_graph, 0.2)
    with pytest.raises(ValueError):
        assemble_forms(star_graph, grid, kappa=0.0)
    with pytest.raises(ValueError, match="finite"):
        assemble_forms(star_graph, grid, kappa=np.inf)
    with pytest.raises(ValueError):
        assemble_forms(chain_graph, grid, kappa=1.0)
