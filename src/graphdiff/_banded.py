"""The band-plus-membrane matrix, the one form of every operator.

Diffusion couples neighbouring unknowns inside an edge, a tridiagonal
band; a membrane couples the end unknowns of edges that meet at a vertex,
inside the band where the two are numbered side by side.  ``Banded``
holds both in numpy: X, the endpoint conditions, M, S and C of every
discretization and the chain's Q.  Only ``tocsc`` (SuperLU) loads scipy.
"""

from __future__ import annotations

import numpy as np


class Banded:
    """The n x n matrix with the diagonals ``lower`` (A[i+1, i]), ``diag``
    and ``upper`` (A[i, i+1]) plus ``vals`` at (``rows``, ``cols``),
    |row - col| > 1, in no order.  A repeated pair sums wherever the
    record is applied; ``triplets`` lists each pair once."""

    __slots__ = ("lower", "diag", "upper", "rows", "cols", "vals")
    __array_ufunc__ = None  # numpy defers x @ A and s * A to the methods below

    def __init__(self, lower, diag, upper, rows, cols, vals):
        self.lower, self.diag, self.upper = lower, diag, upper
        self.rows, self.cols, self.vals = rows, cols, vals

    @classmethod
    def from_triplets(cls, n: int, rows, cols, vals) -> Banded:
        """The entries vals at (rows, cols): those with |row - col| <= 1
        summed into the diagonals (the lower by column; ``astype``: bincount
        of nothing gives ints), the other nonzero ones kept as given."""
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        vals, offset = np.asarray(vals, dtype=float), cols - rows
        lower, diag, upper = offset == -1, offset == 0, offset == 1
        band = [np.bincount(at[k], vals[k], size).astype(float, copy=False)
                for at, k, size in ((cols, lower, n - 1), (rows, diag, n), (rows, upper, n - 1))]
        far = ~(lower | diag | upper) & (vals != 0)
        return cls(*band, rows[far], cols[far], vals[far])

    @property
    def n(self) -> int:
        return self.diag.size

    @property
    def shape(self) -> tuple:
        return self.n, self.n

    @property
    def nnz(self) -> int:
        return self.triplets()[0].size

    @property
    def T(self) -> Banded:
        return Banded(self.upper, self.diag, self.lower, self.cols, self.rows, self.vals)

    def diagonal(self) -> np.ndarray:
        return self.diag

    def scale_rows(self, s) -> Banded:
        """diag(s) A."""
        return Banded(s[1:] * self.lower, s * self.diag, s[:-1] * self.upper,
                      self.rows, self.cols, s[self.rows] * self.vals)

    def __mul__(self, scalar) -> Banded:
        return self.scale_rows(np.full(self.n, float(scalar)))

    __rmul__ = __mul__

    def __add__(self, other: Banded) -> Banded:
        return Banded(self.lower + other.lower, self.diag + other.diag,
                      self.upper + other.upper, *map(np.concatenate, zip(
                          (self.rows, self.cols, self.vals), (other.rows, other.cols, other.vals))))

    def __matmul__(self, x) -> np.ndarray:
        """A x for x of shape (n,) or (n, r): three shifted products, and one
        bincount that puts the couplings of column k in bins k n + row."""
        xt = np.asarray(x, dtype=float).T  # unknowns on the last axis
        y = self.diag * xt
        y[..., 1:] += self.lower * xt[..., :-1]
        y[..., :-1] += self.upper * xt[..., 1:]
        if self.rows.size:
            bins = np.arange(0, y.size, self.n)[:, None] + self.rows
            y += np.bincount(bins.ravel(), (self.vals * xt[..., self.cols]).ravel(),
                             y.size).reshape(y.shape)
        return y.T

    def __rmatmul__(self, x) -> np.ndarray:
        return (self.T @ np.asarray(x, dtype=float).T).T

    def entries(self) -> tuple:
        """(rows, cols, vals) of the nonzero stored entries, as stored."""
        i = np.arange(self.n)
        rows, cols = np.hstack([(i[1:], i[:-1]), (i, i), (i[:-1], i[1:]), (self.rows, self.cols)])
        vals = np.concatenate([self.lower, self.diag, self.upper, self.vals])
        return rows[vals != 0], cols[vals != 0], vals[vals != 0]

    def triplets(self) -> tuple:
        """``entries`` row-major, each pair once: summed, zero sums dropped."""
        rows, cols, vals = self.entries()
        keys, where = np.unique(rows * self.n + cols, return_inverse=True)
        sums = np.bincount(where.ravel(), vals, keys.size).astype(float, copy=False)
        return keys[sums != 0] // self.n, keys[sums != 0] % self.n, sums[sums != 0]

    def toarray(self) -> np.ndarray:
        rows, cols, vals = self.triplets()
        out = np.zeros(self.shape)
        out[rows, cols] = vals
        return out

    def tocsc(self):
        import scipy.sparse as sp

        rows, cols, vals = self.triplets()
        return sp.csc_matrix((vals, (rows, cols)), shape=self.shape)
