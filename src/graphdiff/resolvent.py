"""Closed-form Neumann resolvent on a single interval.

For lam > 0 and a source phi on (a, b), psi = (lam - d^2/dx^2)^{-1} phi
with reflecting ends is

    psi(x) = J(x) + c * e^{mu x} + d * e^{-mu x},      mu = sqrt(lam),

where J is the free-space convolution

    J(x) = (2 mu)^{-1} * integral_a^b e^{-mu |x - y|} phi(y) dy

and the two constants are fixed by psi'(a) = psi'(b) = 0:

    xi   = (1/2) integral e^{-mu (y - a)} phi(y) dy
    zeta = (1/2) integral e^{-mu (b - y)} phi(y) dy
    c    = (xi e^{-mu b} + zeta e^{-mu a}) / (mu (e^{mu L} - e^{-mu L}))
    d    = (xi e^{mu b}  + zeta e^{mu a})  / (mu (e^{mu L} - e^{-mu L}))

with L = b - a.  The code regroups the homogeneous part so that every
exponent is <= 0 on [a, b] (no overflow, no cancellation blow-up).

Sources are ``numpy.polynomial.Polynomial`` objects.  Every integral
above is one kernel,

    K(c) = integral_a^b phi(y) e^{-mu |y - c|} dy,

so J(x) = K(x) / (2 mu), xi = K(a) / 2 and zeta = K(b) / 2.  ``_kernel``
evaluates it to near full precision for every mu > 0, however small (see
``_moments``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.polynomial import Polynomial

# points of the trapezoid rule behind the averaging distances
EVAL_NODES = 2001
# the averaging check: relative slack between successive distances, bound on the last
AVERAGING_SLACK = 0.05
FINAL_DISTANCE_MAX = 0.05

# for z <= 1 the moment series is truncated after this many terms; the
# first omitted term is below e / 20! ~ 1e-18 of the sum
_SERIES_TERMS = 20
_INV_FACTORIALS = np.array([1.0 / math.factorial(m) for m in range(_SERIES_TERMS)])


def as_source(phi) -> Polynomial:
    """The source in the power basis; only polynomials are accepted."""
    if not isinstance(phi, Polynomial):
        raise TypeError("source must be a numpy.polynomial.Polynomial")
    return phi.convert().trim()


def _moments(mu: float, dist: np.ndarray, n: int) -> np.ndarray:
    """M_k(D) = integral_0^D u^k e^{-mu u} du for k < n, one row per D >= 0.

    For z = mu D <= 1 the series D^{k+1} sum_m (-z)^m / (m! (k+m+1)),
    whose terms shrink from the first.  Above, the upward recurrence
    M_k = (k M_{k-1} - D^k e^{-z}) / mu from M_0 = (1 - e^{-z}) / mu.  It
    amplifies rounding by k! / z^k: ruinous for small z, under k! for z > 1.
    """
    out = np.empty((len(dist), n))
    z = mu * dist
    small = z <= 1.0
    k = np.arange(n)
    coef = _INV_FACTORIALS[:, None] / (k + np.arange(_SERIES_TERMS)[:, None] + 1)
    series = np.polynomial.polynomial.polyval(-z[small], coef).T
    out[small] = dist[small, None] ** (k + 1) * series
    d, zb = dist[~small], z[~small]
    decay = np.exp(-zb)
    moment = -np.expm1(-zb) / mu
    out[~small, 0] = moment
    for j in range(1, n):
        moment = (j * moment - d**j * decay) / mu
        out[~small, j] = moment
    return out


def _kernel(poly: Polynomial, a: float, b: float, mu: float, c) -> np.ndarray:
    """K(c) = integral_a^b p(y) e^{-mu |y - c|} dy at each point c.

    With s = c clipped to [a, b], e^{-mu |y - c|} = e^{-mu |c - s|}
    e^{-mu |y - s|} on [a, b]; p is Taylor-expanded at s, and the pieces
    on each side of s are moments of e^{-mu u} over u = |y - s|.
    """
    c = np.asarray(c, dtype=float)
    s = np.clip(c, a, b)
    n = len(poly.coef)
    taylor = np.stack(
        [poly.deriv(k)(s) / math.factorial(k) for k in range(n)], axis=1
    )
    signs = (-1.0) ** np.arange(n)
    both = _moments(mu, b - s, n) + signs * _moments(mu, s - a, n)
    return np.exp(-mu * np.abs(c - s)) * np.sum(taylor * both, axis=1)


def _check_interval(a: float, b: float, lam: float):
    if not -math.inf < a < b < math.inf:
        raise ValueError(f"need finite b > a, got ({a}, {b})")
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}")


# ---------------------------------------------------------------------------
# closed form

def resolvent_apply(a, b, lam, phi, x) -> np.ndarray:
    """Evaluate the reflecting-end resolvent (lam - d2/dx2)^{-1} phi at
    points x in [a, b]: the free part J(x) plus c e^{mu x} + d e^{-mu x}."""
    _check_interval(a, b, lam)
    src = as_source(phi)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < a) or np.any(x > b):
        raise ValueError("evaluation points must lie in [a, b]")
    mu = math.sqrt(lam)
    xi, zeta = 0.5 * _kernel(src, a, b, mu, [a, b])
    free = _kernel(src, a, b, mu, x) / (2.0 * mu)
    # the homogeneous part, regrouped with nonpositive exponents
    big_l = b - a
    denom = mu * (-math.expm1(-2.0 * mu * big_l))
    up = np.exp(-mu * (b - x))      # e^{mu (x - b)}
    down = np.exp(-mu * (x - a))
    damp = math.exp(-mu * big_l)
    return free + (zeta * (up + damp * down) + xi * (down + damp * up)) / denom


# ---------------------------------------------------------------------------
# small-lam averaging

class AveragingTable(NamedTuple):
    """L1 distances of lam * psi_lam from the flat average of the source."""

    rows: tuple           # ((lam, distance), ...) in the given lam order
    average: float

    def distances(self) -> np.ndarray:
        return np.array([d for (_, d) in self.rows])

    def nonincreasing(self) -> bool:
        d = self.distances()
        if not np.isfinite(d).all():  # inf <= inf * (1 + slack) would hold
            return False
        return bool(np.all(d[1:] <= d[:-1] * (1.0 + AVERAGING_SLACK) + 1e-15))


def averaging_limit_check(a, b, phi, lams) -> AveragingTable:
    """Tabulate ||lam psi_lam - mean(phi)||_{L1} along a decreasing lam run,
    by the trapezoid rule on ``EVAL_NODES`` uniform points.

    The distances must shrink to zero as lam -> 0: the scaled resolvent
    forgets everything about phi except its average.
    """
    lams = [float(v) for v in lams]
    if not lams:
        raise ValueError("need at least one lam value")
    for lam in lams:
        _check_interval(a, b, lam)
    if any(l2 >= l1 for l1, l2 in zip(lams[:-1], lams[1:])):
        raise ValueError("lam values must be strictly decreasing")
    src = as_source(phi)
    anti = src.integ()
    average = float(anti(b) - anti(a)) / (b - a)
    x = np.linspace(a, b, EVAL_NODES)
    dx = np.diff(x)
    rows = []
    for lam in lams:
        psi = resolvent_apply(a, b, lam, src, x)
        err = np.abs(lam * psi - average)
        dist = float(np.sum(dx * (err[:-1] + err[1:]) / 2.0))
        rows.append((lam, dist))
    return AveragingTable(rows=tuple(rows), average=average)
