"""The closed-form interval resolvent against an independent finite
difference oracle, plus the reflected-image representation of the same
kernel.  Everything here is on a single interval; graph-level behaviour
lives in the finite-volume and evolution tests.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial import Polynomial
from numpy.testing import assert_allclose

from graphdiff.resolvent import EVAL_NODES, averaging_limit_check, resolvent_apply

from reference import image_series_cutoff, resolvent_image_series


def cosine_series_distances(phi, lams, modes=2000):
    """L1 distances of lam psi from mean(phi) on [0, 1] from the Neumann
    cosine series, with the trapezoid rule of ``averaging_limit_check``.

    phi_k = 2 integral_0^1 phi cos(k pi x) dx follows from integrating by
    parts until the polynomial runs out; the terms of the series fall off
    like k^-4, so ``modes`` terms leave about 1 / (3 modes^3) relative.
    """
    omega = np.pi * np.arange(1, modes + 1)
    parity = (-1.0) ** np.arange(1, modes + 1)
    phi_k = np.zeros(modes)
    for order in range(1, phi.degree() + 1, 2):
        d = phi.deriv(order)
        sign = 1.0 if order % 4 == 1 else -1.0
        phi_k += 2.0 * sign * (d(1.0) * parity - d(0.0)) / omega ** (order + 1)
    x = np.linspace(0.0, 1.0, EVAL_NODES)
    weights = lams * phi_k[:, None] / (lams + omega[:, None] ** 2)
    err = np.abs(np.cos(np.outer(x, omega)) @ weights)
    return np.diff(x) @ ((err[:-1] + err[1:]) / 2.0)


def fd_resolvent(a, b, lam, phi, n=20000):
    """Solve (lam - d2/dx2) psi = phi with reflecting ends on a fine
    cell-centred mesh.  Second order, so ~(b-a)^2/n^2 accuracy."""
    h = (b - a) / n
    x = a + (np.arange(n) + 0.5) * h
    main = np.full(n, lam + 2.0 / h**2)
    main[0] -= 1.0 / h**2
    main[-1] -= 1.0 / h**2
    off = np.full(n - 1, -1.0 / h**2)
    mat = sp.diags([off, main, off], [-1, 0, 1], format="csc")
    return x, spla.spsolve(mat, phi(x))


SOURCES = [
    Polynomial([1.0]),
    Polynomial([0.0, 1.0]),
    Polynomial([0.0, 0.0, 1.0]),
    Polynomial([1.0, -2.0, 0.0, 3.0]),
]


@pytest.mark.parametrize("lam", [0.25, 1.0, 4.0, 100.0])
@pytest.mark.parametrize("phi", SOURCES, ids=["1", "x", "x2", "cubic"])
def test_against_fd_oracle(lam, phi):
    x, ref = fd_resolvent(0.0, 1.0, lam, phi)
    psi = resolvent_apply(0.0, 1.0, lam, phi, x)
    assert np.abs(psi - ref).max() <= 2e-8 * max(1.0, np.abs(ref).max())


def test_constant_source_exact():
    x = np.linspace(0.0, 1.0, 17)
    psi = resolvent_apply(0.0, 1.0, 2.5, Polynomial([3.0]), x)
    assert_allclose(psi, 3.0 / 2.5, rtol=1e-14)


def test_nonnegative_source_stays_nonnegative():
    x = np.linspace(0.0, 1.0, 201)
    for phi in SOURCES[:3]:
        for lam in (1e-3, 1.0, 1e3):
            assert resolvent_apply(0.0, 1.0, lam, phi, x).min() >= -1e-12


def test_shifted_interval():
    # same problem translated to (2, 5); answer translates with it
    phi = Polynomial([0.0, 1.0])
    x = np.linspace(0.0, 3.0, 31)
    base = resolvent_apply(0.0, 3.0, 1.5, phi, x)
    shifted_phi = Polynomial([-2.0, 1.0])   # phi(x - 2)
    shifted = resolvent_apply(2.0, 5.0, 1.5, shifted_phi, x + 2.0)
    assert_allclose(shifted, base, rtol=1e-12, atol=1e-14)


def neumann_defect(a, b, lam, phi):
    """|psi'| at both ends via one-sided second-order differences.

    The differences stay inside [a, b]: outside, the formula continues
    as a solution of the homogeneous equation, so straddling an end
    would pick up an O(h) bias proportional to phi at that end.
    """
    h = 1e-5 * (b - a)
    pa, pa1, pa2, pb2, pb1, pb = resolvent_apply(
        a, b, lam, phi, [a, a + h, a + 2 * h, b - 2 * h, b - h, b]
    )
    da = (-3.0 * pa + 4.0 * pa1 - pa2) / (2.0 * h)
    db = (3.0 * pb - 4.0 * pb1 + pb2) / (2.0 * h)
    return abs(da), abs(db)


def test_reflecting_ends():
    for lam in (0.25, 1.0, 4.0, 100.0):
        da, db = neumann_defect(0.0, 1.0, lam, Polynomial([0.0, 1.0]))
        assert max(da, db) <= 1e-8


def test_input_validation():
    phi = Polynomial([1.0])
    with pytest.raises(ValueError):
        resolvent_apply(1.0, 1.0, 1.0, phi, [1.0])
    with pytest.raises(ValueError):
        resolvent_apply(0.0, 1.0, -2.0, phi, [0.5])
    with pytest.raises(ValueError):
        resolvent_apply(0.0, 1.0, 1.0, phi, [1.5])   # outside the interval
    for a, b, lam in ((0.0, 1.0, np.inf), (0.0, np.inf, 1.0), (-np.inf, 1.0, 1.0),
                      (0.0, 1.0, np.nan), (np.nan, 1.0, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            resolvent_apply(a, b, lam, phi, [0.5])
    for not_polynomial in (object(), lambda y: y, np.linspace(0.0, 1.0, 5)):
        with pytest.raises(TypeError):
            resolvent_apply(0.0, 1.0, 1.0, not_polynomial, [0.5])


class TestImageSeries:
    @pytest.mark.parametrize("lam", [0.25, 1.0, 4.0, 100.0])
    @pytest.mark.parametrize("phi", SOURCES, ids=["1", "x", "x2", "cubic"])
    def test_agrees_with_closed_form(self, lam, phi):
        x = np.linspace(0.0, 1.0, 41)
        direct = resolvent_apply(0.0, 1.0, lam, phi, x)
        series = resolvent_image_series(0.0, 1.0, lam, phi, x, tolerance=1e-12)
        assert np.abs(direct - series).max() <= 1e-10

    def test_constant_source(self):
        out = resolvent_image_series(
            0.0, 1.0, 1.0, Polynomial([1.0]), [0.0, 0.3, 1.0], tolerance=1e-13
        )
        assert np.abs(out - 1.0).max() <= 1e-12

    def test_agrees_on_shifted_interval(self):
        phi = Polynomial([0.5, -1.0, 2.0])
        x = np.linspace(-1.0, 1.5, 26)
        direct = resolvent_apply(-1.0, 1.5, 2.0, phi, x)
        series = resolvent_image_series(-1.0, 1.5, 2.0, phi, x)
        assert np.abs(direct - series).max() <= 1e-10

    def test_cutoff_count(self):
        # lam = 100 on a unit interval decays fast: two reflections suffice
        k = image_series_cutoff(0.0, 1.0, 100.0, Polynomial([0.0, 1.0]), 1e-12)
        assert k == 2
        # slow decay needs more terms, and tighter tolerance never fewer
        k_slow = image_series_cutoff(0.0, 1.0, 0.25, Polynomial([0.0, 1.0]), 1e-12)
        assert k_slow > k
        assert image_series_cutoff(
            0.0, 1.0, 100.0, Polynomial([0.0, 1.0]), 1e-15
        ) >= k

    def test_zero_source_short_circuits(self):
        assert image_series_cutoff(0.0, 1.0, 1.0, Polynomial([0.0]), 1e-12) == 0
        out = resolvent_image_series(0.0, 1.0, 1.0, Polynomial([0.0]), [0.25, 0.75])
        assert_allclose(out, 0.0)


class TestAveraging:
    def test_linear_source_table(self):
        tab = averaging_limit_check(
            0.0, 1.0, Polynomial([0.0, 1.0]), [1e-1, 1e-2, 1e-3, 1e-4]
        )
        assert tab.average == pytest.approx(0.5)
        d = tab.distances()
        assert np.all(d[1:] <= d[:-1] + 1e-15)   # nonincreasing with no slack
        assert tab.distances()[-1] <= 0.05

    def test_distance_scales_linearly_in_lambda(self):
        tab = averaging_limit_check(0.0, 1.0, Polynomial([0.0, 1.0]), [1e-2, 1e-3])
        d = tab.distances()
        assert d[0] / d[1] == pytest.approx(10.0, rel=0.05)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_distances_match_cosine_series(self, seed):
        # lam psi - mean(phi) = sum_{k>=1} lam phi_k / (lam + (k pi)^2)
        # cos(k pi x) on [0, 1], which has no cancellation as lam -> 0;
        # the closed form subtracts a rounded average, hence the 4 eps
        # absolute floor
        phi = Polynomial(np.random.default_rng(seed).uniform(-1.0, 1.0, size=5))
        lams = np.geomspace(1e-1, 1e-8, 15)
        tab = averaging_limit_check(0.0, 1.0, phi, lams)
        ref = cosine_series_distances(phi, lams)
        floor = 4.0 * np.finfo(float).eps * abs(tab.average)
        assert np.all(np.abs(tab.distances() - ref) <= 1e-6 * ref + floor)

    def test_lambdas_must_decrease(self):
        with pytest.raises(ValueError):
            averaging_limit_check(0.0, 1.0, Polynomial([1.0]), [1e-3, 1e-2])
        with pytest.raises(ValueError):
            averaging_limit_check(0.0, 1.0, Polynomial([1.0]), [1e-2, -1e-3])
        for b, lams in ((1.0, [np.inf, 1.0]), (1.0, [1.0, np.nan]), (np.inf, [1.0])):
            with pytest.raises(ValueError, match="finite"):
                averaging_limit_check(0.0, b, Polynomial([1.0]), lams)


def test_scaled_resolvent_uniformly_bounded():
    # lam (lam - d2/dx2)^{-1} keeps the L1 norm under 2 ||phi||_1 across
    # the whole lam range (the reflecting resolvent actually contracts;
    # 2 leaves margin for quadrature)
    x = np.linspace(0.0, 1.0, 2001)
    w = np.gradient(x)
    for phi in SOURCES + [Polynomial([1.0, -3.0])]:
        norm_phi = np.trapezoid(np.abs(phi(x)), x)
        for lam in np.logspace(-3.0, 3.0, 7):
            psi = resolvent_apply(0.0, 1.0, lam, phi, x)
            assert lam * np.sum(w * np.abs(psi)) <= 2.0 * norm_phi
