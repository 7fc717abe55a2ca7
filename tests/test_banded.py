"""The band-plus-membrane record against dense numpy.

Entries are small integers, so that every sum of duplicates is exact in
any order: the record's arrays can then be compared with the dense
matrix bit for bit, cancellations to zero included.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdiff import _stepping
from graphdiff._banded import Banded

EPS = np.finfo(float).eps
SIZES = st.integers(1, 9)


@st.composite
def triplets(draw, n, band_only=False):
    """(rows, cols, vals) of an n x n matrix: entries anywhere, beside the
    band (|row - col| = 2) or in it, some repeated; with ``band_only``
    none outside the band."""
    index, value = st.integers(0, n - 1), st.integers(-4, 4).map(float)
    entries = draw(st.lists(st.tuples(index, index, value), max_size=30))
    if n > 2:
        beside = draw(st.lists(st.tuples(st.integers(0, n - 3), st.booleans(), value),
                               max_size=4))
        entries += [(r, r + 2, v) if up else (r + 2, r, v) for r, up, v in beside]
    if entries:
        entries += draw(st.lists(st.sampled_from(entries), max_size=10))
    if band_only:
        entries = [(r, c, v) for r, c, v in entries if abs(r - c) <= 1]
    rows, cols, vals = zip(*entries) if entries else ((), (), ())
    return np.array(rows, dtype=int), np.array(cols, dtype=int), np.array(vals, dtype=float)


def _dense(n, rows, cols, vals):
    out = np.zeros((n, n))
    np.add.at(out, (rows, cols), vals)
    return out


@settings(max_examples=200, deadline=None)
@given(st.data(), SIZES, st.integers(-3, 3), st.integers(0, 2**32 - 1))
def test_record_matches_dense(data, n, scalar, seed):
    entries = data.draw(triplets(n))
    record, dense = Banded.from_triplets(n, *entries), _dense(n, *entries)
    assert np.array_equal(record.toarray(), dense)
    assert all(a.dtype == float for a in (record.lower, record.diag, record.upper, record.vals))
    assert record.n == n and record.shape == (n, n)
    assert record.nnz == np.count_nonzero(dense)
    assert np.array_equal(record.diagonal(), np.diag(dense))
    assert np.array_equal(record.T.toarray(), dense.T)
    assert np.array_equal((scalar * record).toarray(), scalar * dense)
    assert np.array_equal((record * np.float64(scalar)).toarray(), dense * scalar)
    scale = np.arange(1.0, n + 1)
    assert np.array_equal(record.scale_rows(scale).toarray(), scale[:, None] * dense)
    # the couplings stored outside the band as given, explicit zeros
    # dropped; the listing has each pair once, row-major, with a nonzero sum
    assert np.all(np.abs(record.rows - record.cols) > 1) and np.all(record.vals != 0)
    rows, cols, vals = record.triplets()
    assert np.all(np.diff(rows * n + cols) > 0) and np.all(vals != 0)
    assert np.array_equal(_dense(n, rows, cols, vals), dense)
    assert np.array_equal(record.tocsc().toarray(), dense)

    # products with x of shape (n,) and (n, 3), from the right and the left
    rng = np.random.default_rng(seed)
    for x in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        # each side against its own bound: |A| |x| from the right, |x|^T |A| from the left
        right = 2 * n * EPS * (np.abs(dense) @ np.abs(x)).max()
        left = 2 * n * EPS * (np.abs(x).T @ np.abs(dense)).max()
        assert np.abs(record @ x - dense @ x).max() <= right
        assert np.abs(x.T @ record - x.T @ dense).max() <= left

    # a sum of two records, exact cancellations dropped
    other = data.draw(triplets(n))
    total = record + Banded.from_triplets(n, *other)
    assert np.array_equal(total.toarray(), dense + _dense(n, *other))
    assert total.nnz == np.count_nonzero(dense + _dense(n, *other))


@settings(max_examples=50, deadline=None)
@given(st.data(), SIZES)
def test_band_only_record_stores_no_couplings(data, n):
    entries = data.draw(triplets(n, band_only=True))
    record = Banded.from_triplets(n, *entries)
    assert record.rows.size == record.cols.size == record.vals.size == 0
    assert np.array_equal(record.toarray(), _dense(n, *entries))


@pytest.fixture(scope="module")
def superlu_refused():
    patch = pytest.MonkeyPatch()

    def refuse(*args, **kwargs):
        raise AssertionError("factor_shifted handed the matrix to SuperLU")

    patch.setattr(scipy.sparse.linalg, "splu", refuse)
    yield
    patch.undo()


@settings(max_examples=50, deadline=None)
@given(st.integers(12, 60), st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59), st.integers(1, 4)),
                min_size=1, max_size=8))
def test_factor_shifted_sums_repeated_couplings(superlu_refused, n, seed, pairs):
    # a diagonally dominant band plus couplings, each stored as 1-4 parts
    # of one entry (at most 3.2 per row against a diagonal of 6 or more):
    # the numpy route must sum the parts, or its probe fails and hands the
    # matrix to SuperLU, which is refused here
    rng = np.random.default_rng(seed)
    pairs = [(r % n, c % n, parts) for r, c, parts in pairs if abs(r % n - c % n) > 1]
    parts = [p for _, _, p in pairs]
    rows = np.repeat([r for r, _, _ in pairs], parts).astype(int)
    cols = np.repeat([c for _, c, _ in pairs], parts).astype(int)
    record = Banded(rng.uniform(-1.0, 0.0, n - 1), rng.uniform(6.0, 8.0, n),
                    rng.uniform(-1.0, 0.0, n - 1), rows, cols,
                    rng.uniform(-0.1, 0.1, rows.size))
    dense = record.toarray()
    b = rng.standard_normal(n)
    x = _stepping.factor_shifted(record)(b)
    size = np.abs(dense).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
    assert np.abs(b - dense @ x).max() / size / EPS <= _stepping.PROBE_MAX_ETA


# every size to 130, and 2^k - 1, 2^k and 2^k + 1 up to 4097: the sizes
# at which the padding to q 2^L - 1 and the number of levels change
SOLVER_SIZES = sorted({*range(1, 131), *(2**k + j for k in range(1, 13) for j in (-1, 0, 1))})


def test_band_solver_at_every_padding():
    rng = np.random.default_rng(7)
    for n in SOLVER_SIZES:
        lower, upper = rng.uniform(-1.0, 1.0, n - 1), rng.uniform(-1.0, 1.0, n - 1)
        diag = rng.uniform(2.5, 3.0, n) * rng.choice([-1.0, 1.0], n)
        matrix = sp.diags([lower, diag, upper], [-1, 0, 1], format="csr")
        norm = abs(matrix).sum(axis=1).max()
        solve = _stepping._band_solver(lower, diag, upper)
        for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            x = solve(b)
            assert x.shape == b.shape
            size = norm * np.abs(x).max() + np.abs(b).max()
            assert np.abs(b - matrix @ x).max() / size / EPS <= _stepping.PROBE_MAX_ETA


def test_band_solver_refuses_a_zero_pivot_deep_down():
    # unknown 7 uncoupled, with a zero diagonal: its pivot is met only at
    # the fourth level of 1000 unknowns, where 125 remain
    rng = np.random.default_rng(8)
    lower, upper = rng.uniform(-1.0, 1.0, 999), rng.uniform(-1.0, 1.0, 999)
    diag = rng.uniform(2.5, 3.0, 1000)
    lower[6:8] = upper[6:8] = diag[7] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        _stepping._band_solver(lower, diag, upper)
