"""The time stepper for linear systems  M u' = -K u.

``krylov_apply`` takes the mass M and the stiffness K as the
discretization assembles them (``_banded.Banded`` records), K as its
terms (``gen.terms``: kappa S and C), and measures in the M inner
product.  It is the one route behind ``evolution.propagate`` and both
sides of a sweep, the limit chain c' = Q c being finite volumes with
one cell per edge (``finite_volume.chain_form``).

It runs shift-and-invert Arnoldi for a whole list of times.  The
positive times are grouped into windows ``t_max <= KRYLOV_WINDOW *
t_min``; each window factors ``M + K/gamma`` once (``factor_shifted``)
with ``gamma = SHIFT_T / sqrt(t_min t_max)`` and grows one Arnoldi basis
on ``S = (M + K/gamma)^-1 M`` in the M inner product, which gives
``S V_m = V_m H_m + ...``.  ``row_scaled`` factors every mass as
``D^-1 (M + K/gamma)``, D = diag(M): the same S, ``I + W^-1 K/gamma``
for a diagonal M = W.  Since ``-M^-1 K = gamma (I - S^-1)``, the
solution at each time t of the window is ``beta V_m f(H_m) e1`` with
``f(theta) = exp(t gamma (1 - 1/theta))``, from one eigendecomposition
of the m x m ``H_m`` per step (Higham, *Functions of Matrices*, 2008;
``expm`` only for a near-defective ``H_m``).  The rational basis
resolves the stiff diffusion modes at any kappa, and unlike a contour
quadrature it needs no enclosure of the spectrum, so non-normal
membrane couplings with complex eigenvalues are handled the same way.
One pole serves a bounded range of times only (van den Eshof &
Hochbruck, SIAM J. Sci. Comput. 27, 2006; Moret & Novati, BIT 44,
2004), hence the windows.  The basis grows until, for every time of the
window, iterates m - 4 and m agree to KRYLOV_RTOL, and every time is
then read off that last basis.

The factorization is numpy wherever it can be (``factor_shifted``).
M + K/gamma is a tridiagonal band T plus the membrane couplings outside
it, in k rows (3 on the shipped star, none on a consecutively numbered
path at trace order 1), and the record holds the two apart.  For
k <= WOODBURY_MAX_ROWS the band is factored by odd-even cyclic reduction
(Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970), so a solve is
about 2 log2 n array operations, and the k rows enter by the Woodbury
identity with a dense k x k capacitance matrix (none for k = 0).
Neither pivots, and the pivots of D^-1 A are those of A = M + K/gamma,
each divided by its row's D_ii > 0.  At trace order 1 the FV, FD and
chain ``W + K/gamma`` has nonpositive off-diagonal entries and is
diagonally dominant, by columns where mass is conserved (FV, the chain) and by rows where
constants are (FD): a nonsingular M-matrix, as is its band and every
Schur complement that the reduction forms, so every pivot is positive.
The P1 M + K/gamma is strictly diagonally dominant by columns, which
elimination in any symmetric order keeps.  Second-order FV traces and
other graphs have no such argument, so each numpy factorization must
pass a probe solve with a backward error of at most PROBE_MAX_ETA eps.
More rows outside the band (a large tree, or a path of more than 33
edges at trace order 2), a zero pivot, a singular capacitance or a
failed probe hand the matrix to SuperLU, which pivots, and only then is
scipy loaded.  Each solve is refined once (Skeel, Math. Comp. 35, 1980)
with the residual ``b - (M x + sum_i K_i x / gamma)`` taken term by
term: the rounded sum of kappa S and C would put a kappa-sized error
into the edge means, which the term-wise residual leaves out.

It raises ``StepControlError`` with the numbers of its last attempt
when KRYLOV_MAX_DIM vectors do not reach KRYLOV_RTOL, when ``M + K/gamma``
is singular in floating point (kappa = 1e14 on the shipped star), when
``eps max_i |K_ii / M_ii| / gamma >= 1`` puts M below its rounding
(kappa = 1e12 there), or when t_min t_max over- or underflows and leaves
no finite positive pole gamma (t = 1e300 or 1e-200).

The references it is checked against, the dense matrix exponential and
step-doubling Crank-Nicolson, live with the tests in
``tests/reference.py``.
"""

from __future__ import annotations

import math

import numpy as np

# gamma * t for the shift-and-invert pole; iterates at basis sizes
# m - KRYLOV_LAG and m are compared for the stopping rule
SHIFT_T = 10.0
KRYLOV_LAG = 4
# one pole and one basis serve the times t_min <= t <= KRYLOV_WINDOW * t_min
KRYLOV_WINDOW = 8.0
# ||V^-1 e1||_1 beyond which the Arnoldi matrix's eigenbasis is too
# ill-conditioned for its exponential (round-off about eps times this)
EIG_CANCEL_MAX = 1e3
# the stopping rule's relative tolerance; a window fails at this basis size
KRYLOV_RTOL = 1e-8
KRYLOV_MAX_DIM = 64
# the most rows outside the tridiagonal band that the Woodbury identity
# takes: T^-1 P (n x k) is then no larger than the Arnoldi basis
WOODBURY_MAX_ROWS = KRYLOV_MAX_DIM
# the largest normwise backward error, in units of eps, that an unpivoted
# factorization may show on its probe solve
PROBE_MAX_ETA = 100.0
# cyclic reduction stops at 2^6 - 1 unknowns or fewer and inverts them
# densely: the last levels would cost a call each for a few numbers
REDUCED_SIZE = 63


class StepControlError(RuntimeError):
    """The Krylov propagator did not reach its tolerance, or could not
    factor or resolve its shifted matrix."""


def time_windows(ts) -> list:
    """The distinct positive times of ``ts``, ascending, grouped greedily
    into windows with t_max <= KRYLOV_WINDOW * t_min."""
    windows = []
    for t in sorted({t for t in ts if t > 0}):
        if windows and t <= KRYLOV_WINDOW * windows[-1][0]:
            windows[-1].append(t)
        else:
            windows.append([t])
    return windows


def krylov_apply(mass, terms, u0: np.ndarray, ts) -> np.ndarray:
    """Solve M u' = -K u to every time in ``ts`` by shift-and-invert Arnoldi.

    ``terms`` is a sequence of ``Banded`` matrices that sum to K, such as
    ``gen.terms``; ``row_scaled`` scales them and M by diag(M).  Returns
    one row per entry of ``ts`` (finite, >= 0), in input order; ``t = 0``
    gives ``u0``.  Each window of ``time_windows(ts)`` shares one
    factorization and one basis, which grows until, for every time of the
    window, the iterates at sizes m - 4 and m agree to KRYLOV_RTOL
    relative to max(|u(t)|, |u0|) in the M norm, and every time is then
    read off that last basis; a basis of KRYLOV_MAX_DIM vectors without
    it raises StepControlError naming the unconverged times.
    """
    n = mass.n
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (n,):
        raise ValueError(f"phi0 must have shape ({n},), got {u0.shape}")
    ts = [float(t) for t in ts]
    bad = [t for t in ts if not 0 <= t < math.inf]
    if bad:
        raise ValueError(f"t must be finite and >= 0, got {bad[0]}")
    beta = float(np.sqrt(u0 @ (mass @ u0)))
    if beta == 0.0:
        return np.zeros((len(ts), n))
    left, terms = row_scaled(mass, terms)
    solved = {0.0: u0}
    for window in time_windows(ts):
        solved.update(zip(window, _krylov_window(mass, left, terms, u0, beta, window)))
    return np.array([solved[t] for t in ts])


def row_scaled(mass, terms):
    """(D^-1 M, [D^-1 K_i]) as the propagator factors them, D = diag(M)."""
    scale = 1.0 / mass.diagonal()
    return mass.scale_rows(scale), [term.scale_rows(scale) for term in terms]


def _krylov_window(mass, left, terms, u0, beta, window) -> np.ndarray:
    """Rows u(t) for the ascending times of one window, all read off the
    last basis of (left + K/gamma)^-1 left, K the sum of ``terms``:
    (M + K/gamma)^-1 M, row-scaled by diag(M)."""
    times = ", ".join(f"{t:g}" for t in window)
    root = math.sqrt(window[0] * window[-1])  # over- or underflows at extreme t
    gamma = SHIFT_T / root if root > 0 else math.inf
    if not 0 < gamma < math.inf:
        raise StepControlError(
            f"Krylov propagator: no finite positive pole gamma={gamma:g} "
            f"for t={times}"
        )
    try:
        solve = shifted_solver(left, terms, gamma)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise StepControlError(
            f"Krylov propagator: the shifted matrix M + K/gamma is singular "
            f"({exc}) at gamma={gamma:g} with {u0.size} unknowns, for t={times}"
        ) from exc
    # eps max|K_ii/M_ii| / gamma >= 1 (K row-scaled): M is below its rounding
    k_diag = sum(term.diagonal() for term in terms)
    ratio = np.finfo(float).eps * np.abs(k_diag).max() / gamma
    if ratio >= 1.0:
        raise StepControlError(
            f"Krylov propagator: the mass is below the rounding of M + K/gamma "
            f"(eps max|K_ii/M_ii| / gamma = {ratio:.3g} >= 1) at gamma={gamma:g}, "
            f"for t={times}"
        )

    basis = np.empty((KRYLOV_MAX_DIM + 1, u0.size))
    hess = np.zeros((KRYLOV_MAX_DIM + 1, KRYLOV_MAX_DIM))
    basis[0] = u0 / beta
    # coefs[m, i]: time i's iterate on the first m vectors, zero-padded
    coefs = np.zeros((KRYLOV_MAX_DIM + 1, len(window), KRYLOV_MAX_DIM))
    met = np.zeros(len(window), dtype=bool)
    for j in range(KRYLOV_MAX_DIM):
        w = solve(left @ basis[j])
        # Gram-Schmidt twice keeps the basis orthonormal to round-off
        for _ in range(2):
            h = basis[: j + 1] @ (mass @ w)
            w -= h @ basis[: j + 1]
            hess[: j + 1, j] += h
        m = j + 1
        hess[m, j] = np.sqrt(max(float(w @ (mass @ w)), 0.0))
        coefs[m, :, :m] = beta * _small_exp_e1(hess[:m, :m], gamma * np.array(window))
        estimate = np.linalg.norm(coefs[m] - coefs[max(m - KRYLOV_LAG, 0)], axis=1)
        if m > KRYLOV_LAG:
            met |= estimate <= KRYLOV_RTOL * np.maximum(np.linalg.norm(coefs[m], axis=1), beta)
        # an invariant subspace makes the current iterates exact
        if met.all() or hess[m, j] <= 1e-14 * np.abs(hess[:m, j]).max():
            return coefs[m, :, :m] @ basis[:m]
        basis[m] = w / hess[m, j]
    unconverged = ", ".join(
        f"t={t:g} (last estimate {e:.3g})" for t, e, ok in zip(window, estimate, met) if not ok
    )
    raise StepControlError(
        f"Krylov propagator: no convergence to rtol={KRYLOV_RTOL:g} "
        f"with m={KRYLOV_MAX_DIM} basis vectors at {unconverged}"
    )


def _small_exp_e1(hess, taus) -> np.ndarray:
    """Rows expm(tau (I - H^-1)) e1, one per tau, for the m x m Arnoldi
    matrix H, from one eigendecomposition H = V diag(theta) V^-1.  V has
    unit columns, so ||V^-1 e1||_1 bounds the cancellation; past
    EIG_CANCEL_MAX (a near-defective H) the dense expm serves instead."""
    theta, vecs = np.linalg.eig(hess)
    try:
        c = np.linalg.solve(vecs, np.eye(len(theta))[0])
    except np.linalg.LinAlgError:  # exactly parallel eigenvectors
        c = np.full(len(theta), np.inf)
    if np.abs(c).sum() <= EIG_CANCEL_MAX:
        return (np.exp(np.outer(taus, 1.0 - 1.0 / theta)) * c @ vecs.T).real
    import scipy.linalg

    core = np.eye(len(theta)) - scipy.linalg.inv(hess)
    return np.array([scipy.linalg.expm(tau * core)[:, 0] for tau in taus])


def shifted_solver(left, terms, gamma):
    """A solver ``b -> (left + K/gamma)^-1 b``, K the sum of ``terms``: one
    ``factor_shifted`` of the summed matrix, and each solve refined once
    with the residual ``b - (left x + sum_i term_i x / gamma)`` taken term
    by term.  Raises RuntimeError as ``factor_shifted`` does."""
    approx = factor_shifted(left + (1.0 / gamma) * sum(terms[1:], terms[0]))

    def solve(b):
        x = approx(b)
        return x + approx(b - (left @ x + sum(term @ x for term in terms) / gamma))

    return solve


def factor_shifted(matrix):
    """A solver ``b -> A^-1 b``, b (n,) or (n, r), for the ``Banded`` A =
    T + P R: its band T by cyclic reduction (``_band_solver``) and its
    k <= WOODBURY_MAX_ROWS coupling rows R (a repeated pair summed) by
    the Woodbury identity with the capacitance I + R T^-1 P, kept if a
    probe solve's backward error is at most PROBE_MAX_ETA eps; else, or
    for more rows, SuperLU, which raises RuntimeError if A is singular."""
    n = matrix.n
    coupled = np.bincount(matrix.rows, minlength=n) > 0
    rows = np.flatnonzero(coupled)
    if rows.size <= WOODBURY_MAX_ROWS:
        unit = np.zeros((n, rows.size))  # P
        unit[rows, np.arange(rows.size)] = 1.0
        outside = np.zeros((rows.size, n))  # R
        np.add.at(outside, (np.cumsum(coupled)[matrix.rows] - 1, matrix.cols), matrix.vals)
        try:
            band = _band_solver(matrix.lower, matrix.diag, matrix.upper)
            spread = band(unit)  # T^-1 P, no larger than the Arnoldi basis
            spread = spread @ np.linalg.inv(np.eye(rows.size) + outside @ spread)

            def solve(b):
                y = band(b)
                return y - spread @ (outside @ y)

            probe = np.cos(np.arange(n))  # a right-hand side with no structure
            x = solve(probe)
            # the row sums of |A|, each entry of R summed before its modulus
            bound = (np.abs(matrix.diag) + np.r_[0.0, np.abs(matrix.lower)]
                     + np.r_[np.abs(matrix.upper), 0.0] + unit @ np.abs(outside).sum(axis=1))
            size = bound.max() * np.abs(x).max() + np.abs(probe).max()
            eta = np.abs(probe - matrix @ x).max() / size / np.finfo(float).eps
            if eta <= PROBE_MAX_ETA:  # also false for NaN
                return solve
        except np.linalg.LinAlgError:  # a zero pivot or a singular capacitance
            pass
    from scipy.sparse.linalg import splu

    return splu(matrix.tocsc()).solve


def _band_solver(lower, diag, upper):
    """A solver ``d -> T^-1 d`` for the tridiagonal T with these three
    diagonals, by odd-even cyclic reduction: padded with identity rows to
    the least q 2^L - 1 >= n unknowns with q - 1 <= REDUCED_SIZE (fewer
    than n/32 rows), each of the L levels eliminates the even-numbered
    unknowns of an odd count and keeps the odd ones, and the q - 1 left
    are inverted densely."""
    n, step = diag.size, 2 ** (diag.size // (REDUCED_SIZE + 1)).bit_length()  # 2^L
    size = (n // step + 1) * step - 1
    a, b, c = np.zeros(size), np.ones(size), np.zeros(size)
    a[1:n], b[:n], c[: n - 1] = lower, diag, upper
    levels = []
    while b.size > REDUCED_SIZE:
        pivots = b[0::2]
        if not (np.isfinite(pivots).all() and pivots.all()):
            raise np.linalg.LinAlgError("zero or non-finite pivot")
        # the multiples of the previous and next (eliminated) equation that
        # each kept equation takes in
        prev, succ = -a[1::2] / pivots[:-1], -c[1::2] / pivots[1:]
        levels.append((a[0::2], c[0::2], 1.0 / pivots, prev, succ))
        a, b, c = prev * a[:-1:2], b[1::2] + prev * c[:-1:2] + succ * a[2::2], succ * c[2::2]
    inverse = np.linalg.inv(np.diag(b) + np.diag(a[1:], -1) + np.diag(c[:-1], 1))

    def solve(rhs):
        # unknowns on the last axis, so that the coefficients broadcast
        d = np.zeros(rhs.shape[1:] + (size,))
        d[..., :n] = rhs.T
        kept = []
        for _, _, _, prev, succ in levels:
            kept.append(d)
            d = d[..., 1::2] + prev * d[..., :-1:2] + succ * d[..., 2::2]
        x = d @ inverse.T
        for (ea, ec, inv, _, _), d in zip(reversed(levels), reversed(kept)):
            # x on the odd unknowns, at the even slots of a zero border
            full = np.zeros(d.shape[:-1] + (d.shape[-1] + 2,))
            full[..., 2:-2:2] = x
            full[..., 1::2] = (d[..., 0::2] - ea * full[..., :-1:2] - ec * full[..., 2::2]) * inv
            x = full[..., 1:-1]
        return x[..., :n].T

    return solve
