"""The band-plus-membrane matrix, the one form of every operator.

Diffusion couples neighbouring unknowns inside an edge, a tridiagonal
band; a membrane couples the end unknowns of edges that meet at a vertex,
inside the band where the two are numbered side by side.  ``Banded``
holds both in numpy: X, the endpoint conditions, M, S and C of every
discretization and the chain's Q.  Only ``tocsc`` (SuperLU) loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Banded:
    """The n x n matrix with the diagonals ``lower`` (A[i+1, i]), ``diag``
    and ``upper`` (A[i, i+1]) plus ``vals`` at (``rows``, ``cols``),
    |row - col| > 1.  A repeated pair sums; ``from_triplets``, ``+`` and
    ``.T`` store each pair once."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    __array_ufunc__ = None  # numpy defers x @ A and s * A to the methods below

    @classmethod
    def from_triplets(cls, n: int, rows, cols, vals) -> Banded:
        """The entries vals at (rows, cols), duplicates summed: those with
        |row - col| <= 1 binned into the diagonals (``astype``: bincount of
        nothing gives ints), the others row-major, zero sums dropped."""
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        vals, offset = np.asarray(vals, dtype=float), cols - rows
        band = [np.bincount(np.minimum(rows, cols)[offset == k], vals[offset == k],
                            n - abs(k)).astype(float, copy=False) for k in (-1, 0, 1)]
        far = np.abs(offset) > 1
        keys, where = np.unique(rows[far] * n + cols[far], return_inverse=True)
        sums = np.bincount(where.ravel(), vals[far], keys.size).astype(float, copy=False)
        keys = keys[sums != 0]
        return cls(*band, keys // n, keys % n, sums[sums != 0])

    @property
    def n(self) -> int:
        return self.diag.size

    @property
    def shape(self) -> tuple:
        return self.n, self.n

    @property
    def nnz(self) -> int:
        return sum(map(np.count_nonzero, (self.lower, self.diag, self.upper, self.vals)))

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

    def __abs__(self) -> Banded:
        return Banded(abs(self.lower), abs(self.diag), abs(self.upper),
                      self.rows, self.cols, abs(self.vals))

    def __add__(self, other: Banded) -> Banded:
        far = Banded.from_triplets(self.n, *map(np.concatenate, zip(
            (self.rows, self.cols, self.vals), (other.rows, other.cols, other.vals))))
        return Banded(self.lower + other.lower, self.diag + other.diag,
                      self.upper + other.upper, far.rows, far.cols, far.vals)

    def __matmul__(self, x) -> np.ndarray:
        """A x for x of shape (n,) or (n, r): three shifted products, and one
        bincount that puts the couplings of column k in bins k n + row."""
        xt = np.asarray(x, dtype=float).T  # unknowns on the last axis
        y = self.diag * xt
        y[..., 1:] += self.lower * xt[..., :-1]
        y[..., :-1] += self.upper * xt[..., 1:]
        if self.rows.size and y.ndim == 1:
            y += np.bincount(self.rows, self.vals * xt[self.cols], self.n)
        elif self.rows.size:
            bins = np.arange(0, y.size, self.n)[:, None] + self.rows
            y += np.bincount(bins.ravel(), (self.vals * xt[..., self.cols]).ravel(),
                             y.size).reshape(y.shape)
        return y.T

    def __rmatmul__(self, x) -> np.ndarray:
        return (self.T @ np.asarray(x, dtype=float).T).T

    def triplets(self) -> tuple:
        """(rows, cols, vals) of the nonzero stored entries, row-major."""
        i = np.arange(self.n)
        rows = np.concatenate([i[1:], i, i[:-1], self.rows])
        cols = np.concatenate([i[:-1], i, i[1:], self.cols])
        vals = np.concatenate([self.lower, self.diag, self.upper, self.vals])
        order = np.lexsort((cols, rows))
        order = order[vals[order] != 0]
        return rows[order], cols[order], vals[order]

    def toarray(self) -> np.ndarray:
        rows, cols, vals = self.triplets()
        out = np.zeros(self.shape)
        np.add.at(out, (rows, cols), vals)
        return out

    def tocsc(self):
        import scipy.sparse as sp

        rows, cols, vals = self.triplets()
        return sp.csc_matrix((vals, (rows, cols)), shape=self.shape)
