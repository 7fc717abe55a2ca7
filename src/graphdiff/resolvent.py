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

The same resolvent has a reflection (method of images) form

    psi(x) = (2 mu)^{-1} * sum_k [ integral e^{-mu |2kL + x - y|} phi
                                 + integral e^{-mu |2kL + x + y - 2a|} phi ]

summed over all integers k; the tail past |k| = K is bounded by
e^{-2 mu K L} / (1 - e^{-2 mu L}) * ||phi||_1 / (2 mu), which picks the
truncation order.

Sources can be passed as

* ``numpy.polynomial.Polynomial`` -- integrated exactly (closed-form
  antiderivatives of p(y) e^{alpha y}),
* a callable ``phi(y)`` -- sampled on ``quad_nodes`` uniform points and
  integrated by composite trapezoid (order 2),
* a pair ``(y, values)`` of arrays -- trapezoid on that grid,
* a bare 1-d array -- uniform samples spanning [a, b].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

DEFAULT_QUAD_NODES = 2001


# ---------------------------------------------------------------------------
# sources

class _PolySource:
    """Polynomial source; all integrals are exact."""

    def __init__(self, poly: Polynomial):
        coeffs = np.trim_zeros(np.asarray(poly.convert().coef, dtype=float), "b")
        self.coeffs = coeffs if len(coeffs) else np.zeros(1)

    def kernel_integral(self, alpha: float, shift: float, t0: float, t1: float) -> float:
        """integral_{t0}^{t1} p(y) * e^{alpha (y - shift)} dy, exactly.

        Callers arrange alpha and shift so the exponent stays <= 0.
        """
        if t1 <= t0:
            return 0.0
        if alpha == 0.0:
            return self.plain_integral(t0, t1)
        e0 = math.exp(alpha * (t0 - shift))
        e1 = math.exp(alpha * (t1 - shift))
        # I_k = [y^k e^{alpha(y-shift)}]/alpha - (k/alpha) I_{k-1}
        total = 0.0
        ik = (e1 - e0) / alpha
        total += self.coeffs[0] * ik
        p0, p1 = 1.0, 1.0  # running powers of t0, t1
        for k in range(1, len(self.coeffs)):
            p0 *= t0
            p1 *= t1
            ik = (p1 * e1 - p0 * e0) / alpha - (k / alpha) * ik
            total += self.coeffs[k] * ik
        return total

    def plain_integral(self, t0: float, t1: float) -> float:
        anti = Polynomial(self.coeffs).integ()
        return float(anti(t1) - anti(t0))

    def abs_integral(self, t0: float, t1: float) -> float:
        """integral of |p| by splitting at real roots inside (t0, t1)."""
        if len(self.coeffs) == 1:
            return abs(self.coeffs[0]) * (t1 - t0)
        poly = Polynomial(self.coeffs)
        cuts = sorted(
            float(r.real)
            for r in poly.roots()
            if abs(r.imag) < 1e-12 and t0 < r.real < t1
        )
        total = 0.0
        points = [t0] + cuts + [t1]
        for lo, hi in zip(points[:-1], points[1:]):
            piece = self.plain_integral(lo, hi)
            total += piece if poly((lo + hi) / 2.0) >= 0 else -piece
        return total


class _GridSource:
    """Sampled source; integrals by composite trapezoid on its grid."""

    def __init__(self, y: np.ndarray, values: np.ndarray):
        y = np.asarray(y, dtype=float)
        values = np.asarray(values, dtype=float)
        if y.ndim != 1 or y.shape != values.shape or len(y) < 2:
            raise ValueError("grid source needs matching 1-d arrays, length >= 2")
        if np.any(np.diff(y) <= 0):
            raise ValueError("grid source nodes must be strictly increasing")
        self.y = y
        self.values = values
        # trapezoid weights
        w = np.zeros_like(y)
        dy = np.diff(y)
        w[:-1] += dy / 2.0
        w[1:] += dy / 2.0
        self.w = w

    def kernel_integral(self, alpha: float, shift: float, t0: float, t1: float) -> float:
        if t1 <= t0:
            return 0.0
        mask = (self.y >= t0 - 1e-14) & (self.y <= t1 + 1e-14)
        y = self.y[mask]
        if len(y) < 2:
            return 0.0
        vals = self.values[mask] * np.exp(alpha * (y - shift))
        dy = np.diff(y)
        return float(np.sum(dy * (vals[:-1] + vals[1:]) / 2.0))

    def weighted_abs_kernel(self, x: np.ndarray, mu: float, offset: float, flip: bool) -> np.ndarray:
        """Trapezoid of phi(y) * e^{-mu |offset + x -+ y|} for each x.

        ``flip`` False pairs x - y (difference kernel), True pairs x + y.
        Chunked so the (n_x, n_quad) kernel never gets huge.
        """
        x = np.asarray(x, dtype=float)
        out = np.empty(len(x))
        wv = self.w * self.values
        step = max(1, int(2_000_000 / max(len(self.y), 1)))
        sign = 1.0 if flip else -1.0
        for lo in range(0, len(x), step):
            xs = x[lo : lo + step, None]
            z = offset + xs + sign * self.y[None, :]
            out[lo : lo + step] = np.exp(-mu * np.abs(z)) @ wv
        return out

    def plain_integral(self, t0: float, t1: float) -> float:
        return self.kernel_integral(0.0, 0.0, t0, t1)

    def abs_integral(self, t0: float, t1: float) -> float:
        return float(np.sum(self.w * np.abs(self.values)))


def as_source(phi, a: float, b: float, quad_nodes: int = DEFAULT_QUAD_NODES):
    """Normalize the accepted source forms (see module docstring)."""
    if isinstance(phi, (_PolySource, _GridSource)):
        return phi
    if isinstance(phi, Polynomial):
        return _PolySource(phi)
    if callable(phi):
        y = np.linspace(a, b, quad_nodes)
        return _GridSource(y, np.asarray(phi(y), dtype=float))
    if isinstance(phi, tuple) and len(phi) == 2:
        return _GridSource(np.asarray(phi[0]), np.asarray(phi[1]))
    arr = np.asarray(phi, dtype=float)
    if arr.ndim == 1 and len(arr) >= 2:
        return _GridSource(np.linspace(a, b, len(arr)), arr)
    raise TypeError(
        "source must be a Polynomial, a callable, a (y, values) pair, or a "
        "1-d sample array"
    )


def _check_interval(a: float, b: float, lam: float):
    if not b > a:
        raise ValueError(f"need b > a, got ({a}, {b})")
    if not lam > 0:
        raise ValueError(f"need lam > 0, got {lam}")


# ---------------------------------------------------------------------------
# closed form

@dataclass
class ClosedFormResolvent:
    """Precomputed pieces of the closed form; call it on points in [a, b]."""

    a: float
    b: float
    lam: float
    mu: float
    xi: float
    zeta: float
    source: object

    @classmethod
    def build(cls, a: float, b: float, lam: float, phi, quad_nodes: int = DEFAULT_QUAD_NODES):
        _check_interval(a, b, lam)
        src = as_source(phi, a, b, quad_nodes)
        mu = math.sqrt(lam)
        xi = 0.5 * src.kernel_integral(-mu, a, a, b)   # e^{-mu (y - a)}
        zeta = 0.5 * src.kernel_integral(mu, b, a, b)  # e^{-mu (b - y)}
        return cls(a=a, b=b, lam=lam, mu=mu, xi=xi, zeta=zeta, source=src)

    def free_part(self, x: np.ndarray) -> np.ndarray:
        mu, a, b = self.mu, self.a, self.b
        src = self.source
        if isinstance(src, _PolySource):
            out = np.empty(len(x))
            for i, xv in enumerate(x):
                left = src.kernel_integral(mu, xv, a, min(xv, b))
                right = src.kernel_integral(-mu, xv, max(xv, a), b)
                out[i] = (left + right) / (2.0 * mu)
            return out
        return src.weighted_abs_kernel(x, mu, 0.0, flip=False) / (2.0 * mu)

    def homogeneous_part(self, x: np.ndarray) -> np.ndarray:
        # c e^{mu x} + d e^{-mu x}, regrouped with nonpositive exponents
        mu, a, b = self.mu, self.a, self.b
        big_l = b - a
        denom = mu * (-math.expm1(-2.0 * mu * big_l))
        up = np.exp(-mu * (b - x))      # e^{mu (x - b)}
        down = np.exp(-mu * (x - a))
        damp = math.exp(-mu * big_l)
        return (
            self.zeta * (up + damp * down) + self.xi * (down + damp * up)
        ) / denom

    def __call__(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x < self.a) or np.any(x > self.b):
            raise ValueError("evaluation points must lie in [a, b]")
        return self.free_part(x) + self.homogeneous_part(x)


def resolvent_apply(a, b, lam, phi, x, quad_nodes: int = DEFAULT_QUAD_NODES) -> np.ndarray:
    """Evaluate the reflecting-end resolvent (lam - d2/dx2)^{-1} phi at x."""
    return ClosedFormResolvent.build(a, b, lam, phi, quad_nodes)(x)


# ---------------------------------------------------------------------------
# image series

def image_series_cutoff(a, b, lam, phi, tolerance: float, quad_nodes: int = DEFAULT_QUAD_NODES) -> int:
    """Smallest K with tail bound e^{-2 mu K L}/(1 - e^{-2 mu L}) *
    ||phi||_1 / (2 mu) below ``tolerance``."""
    _check_interval(a, b, lam)
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    src = as_source(phi, a, b, quad_nodes)
    mu = math.sqrt(lam)
    big_l = b - a
    norm1 = src.abs_integral(a, b)
    if norm1 == 0.0:
        return 0
    lead = norm1 / (2.0 * mu * (-math.expm1(-2.0 * mu * big_l)))
    if lead <= tolerance:
        return 0
    return max(0, math.ceil(math.log(lead / tolerance) / (2.0 * mu * big_l)))


def resolvent_image_series(
    a, b, lam, phi, x, tolerance: float = 1e-12, quad_nodes: int = DEFAULT_QUAD_NODES
) -> np.ndarray:
    """Resolvent through reflected copies of the source; must agree with
    ``resolvent_apply`` up to the truncation tolerance."""
    _check_interval(a, b, lam)
    src = as_source(phi, a, b, quad_nodes)
    mu = math.sqrt(lam)
    big_l = b - a
    cutoff = image_series_cutoff(a, b, lam, src, tolerance)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    total = np.zeros(len(x))
    for k in range(-cutoff, cutoff + 1):
        if isinstance(src, _PolySource):
            for i, xv in enumerate(x):
                total[i] += _poly_abs_kernel(src, mu, 2 * k * big_l + xv, a, b, flip=False)
                total[i] += _poly_abs_kernel(
                    src, mu, 2 * k * big_l + xv - 2 * a, a, b, flip=True
                )
        else:
            total += src.weighted_abs_kernel(x, mu, 2 * k * big_l, flip=False)
            total += src.weighted_abs_kernel(x, mu, 2 * k * big_l - 2 * a, flip=True)
    return total / (2.0 * mu)


def _poly_abs_kernel(src: _PolySource, mu: float, c: float, a: float, b: float, flip: bool) -> float:
    """Exact integral of p(y) e^{-mu |c -+ y|} over [a, b].

    flip False: kernel argument c - y; flip True: c + y.
    """
    if flip:
        # |c + y|: kink at y = -c; z >= 0 for y >= -c
        kink = -c
        # for y > kink: e^{-mu (c + y)} = e^{-mu (y - kink)}
        lo_alpha, hi_alpha = mu, -mu
    else:
        # |c - y|: kink at y = c; z >= 0 for y <= c
        kink = c
        # for y < kink: e^{-mu (c - y)} = e^{+mu (y - kink)}
        lo_alpha, hi_alpha = mu, -mu
    if kink <= a:
        lo, hi = 0.0, src.kernel_integral(hi_alpha, kink, a, b)
    elif kink >= b:
        lo, hi = src.kernel_integral(lo_alpha, kink, a, b), 0.0
    else:
        lo = src.kernel_integral(lo_alpha, kink, a, kink)
        hi = src.kernel_integral(hi_alpha, kink, kink, b)
    return lo + hi


# ---------------------------------------------------------------------------
# small-lam averaging

@dataclass(frozen=True)
class AveragingTable:
    """L1 distances of lam * psi_lam from the flat average of the source."""

    rows: tuple           # ((lam, distance), ...) in the given lam order
    average: float

    def distances(self) -> np.ndarray:
        return np.array([d for (_, d) in self.rows])

    def nonincreasing(self, slack: float = 0.05) -> bool:
        d = self.distances()
        return bool(np.all(d[1:] <= d[:-1] * (1.0 + slack) + 1e-15))


def averaging_limit_check(
    a,
    b,
    phi,
    lams,
    eval_nodes: int = 2001,
    quad_nodes: int = DEFAULT_QUAD_NODES,
) -> AveragingTable:
    """Tabulate ||lam psi_lam - mean(phi)||_{L1} along a decreasing lam run.

    The distances must shrink to zero as lam -> 0: the scaled resolvent
    forgets everything about phi except its average.
    """
    lams = [float(v) for v in lams]
    if not lams:
        raise ValueError("need at least one lam value")
    if any(v <= 0 for v in lams):
        raise ValueError("lam values must be positive")
    if any(l2 >= l1 for l1, l2 in zip(lams[:-1], lams[1:])):
        raise ValueError("lam values must be strictly decreasing")
    src = as_source(phi, a, b, quad_nodes)
    average = src.plain_integral(a, b) / (b - a)
    x = np.linspace(a, b, eval_nodes)
    dx = np.diff(x)
    rows = []
    for lam in lams:
        psi = resolvent_apply(a, b, lam, src, x)
        err = np.abs(lam * psi - average)
        dist = float(np.sum(dx * (err[:-1] + err[1:]) / 2.0))
        rows.append((lam, dist))
    return AveragingTable(rows=tuple(rows), average=float(average))
