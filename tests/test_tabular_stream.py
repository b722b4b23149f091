"""Tests for the out-of-core tabular layer: ChunkedDataset + streamed edges.

Covers the chunked reader both arrays-backed and ``.npy``-memmap-backed
(identical chunk streams), its sharding/pickling contracts (the units of
row-parallel work), and ``streamed_quantile_edges`` — whose
``sketch="exact"`` mode must be bit-identical to the in-memory
:func:`equal_frequency_edges` per column.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DataError
from repro.tabular.binning import equal_frequency_edges, streamed_quantile_edges
from repro.tabular.io import ChunkedDataset


def _data(n=103, k=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, k))
    X[rng.random(size=(n, k)) < 0.04] = np.nan
    y = (rng.random(n) < 0.5).astype(np.float64)
    names = tuple(f"f{i}" for i in range(k))
    return X, y, names


def _file_backed(tmp_path, X, y, names, chunk_rows):
    xp, yp = tmp_path / "X.npy", tmp_path / "y.npy"
    np.save(xp, X)
    np.save(yp, y)
    return ChunkedDataset(names, chunk_rows, x_path=xp, y_path=yp)


class TestChunkedDataset:
    def test_iter_chunks_covers_rows_in_order(self):
        X, y, names = _data()
        data = ChunkedDataset(names, 17, X=X, y=y)
        seen = 0
        for rows, X_chunk, y_chunk in data.iter_chunks():
            assert rows.start == seen
            assert X_chunk.shape == (len(rows), 4)
            np.testing.assert_array_equal(
                X_chunk, X[rows.start : rows.stop], err_msg="chunk content"
            )
            np.testing.assert_array_equal(y_chunk, y[rows.start : rows.stop])
            seen = rows.stop
        assert seen == data.n_rows == 103
        assert data.n_cols == 4 and data.has_labels

    def test_reiterable(self):
        X, y, names = _data()
        data = ChunkedDataset(names, 29, X=X, y=y)
        first = [np.asarray(c) for _, c, _ in data.iter_chunks()]
        second = [np.asarray(c) for _, c, _ in data.iter_chunks()]
        assert len(first) == len(second)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_file_backing_matches_arrays(self, tmp_path):
        X, y, names = _data()
        mem = ChunkedDataset(names, 17, X=X, y=y)
        mapped = _file_backed(tmp_path, X, y, names, 17)
        for (ra, Xa, ya), (rb, Xb, yb) in zip(
            mem.iter_chunks(), mapped.iter_chunks()
        ):
            assert ra == rb
            np.testing.assert_array_equal(Xa, Xb)
            np.testing.assert_array_equal(ya, yb)

    def test_file_backed_dataset_is_picklable_without_matrix(self, tmp_path):
        X, y, names = _data(n=2000)
        mapped = _file_backed(tmp_path, X, y, names, 250)
        next(mapped.iter_chunks())  # opens the memory maps
        blob = pickle.dumps(mapped)
        assert len(blob) < X.nbytes // 4  # paths only, never the matrix
        clone = pickle.loads(blob)
        for (ra, Xa, ya), (rb, Xb, yb) in zip(
            mapped.iter_chunks(), clone.iter_chunks()
        ):
            assert ra == rb
            np.testing.assert_array_equal(Xa, Xb)
            np.testing.assert_array_equal(ya, yb)

    def test_materialize_round_trip(self, tmp_path):
        X, y, names = _data()
        mapped = _file_backed(tmp_path, X, y, names, 30)
        ds = mapped.materialize()
        np.testing.assert_array_equal(ds.X, X)
        np.testing.assert_array_equal(ds.y, y)
        assert ds.names == names

    def test_errors(self, tmp_path):
        X, y, names = _data()
        with pytest.raises(DataError):
            ChunkedDataset(names, 10)  # neither backing
        with pytest.raises(DataError):
            ChunkedDataset(names, 0, X=X, y=y)
        with pytest.raises(DataError):
            ChunkedDataset(("a",), 10, X=X, y=y)  # 1 name, 4 columns
        with pytest.raises(DataError):
            ChunkedDataset(names, 10, X=X, y=y[:-1])
        xp = tmp_path / "X.npy"
        np.save(xp, X)
        with pytest.raises(DataError):
            ChunkedDataset(names, 10, x_path=xp, y=y)


class TestStreamedQuantileEdges:
    def _chunks(self, X, sizes):
        def iterate():
            lo = 0
            for size in sizes:
                yield range(lo, lo + size), X[lo : lo + size], None
                lo += size
        return iterate

    def test_exact_mode_bit_identical_to_in_memory(self):
        X, _, _ = _data(n=257, k=5, seed=3)
        X[:, 2] = 7.25  # constant column
        chunks = self._chunks(X, [64, 1, 100, 92])
        edges, n_finite, col_min, col_max = streamed_quantile_edges(
            chunks, 5, 8, sketch="exact", exact_batch_cols=2
        )
        for j in range(5):
            np.testing.assert_array_equal(
                edges[j], equal_frequency_edges(X[:, j], 8)
            )
            col = X[:, j][np.isfinite(X[:, j])]
            assert n_finite[j] == col.size
            assert col_min[j] == col.min() and col_max[j] == col.max()

    def test_merge_mode_side_statistics_are_exact(self):
        X, _, _ = _data(n=400, k=3, seed=4)
        chunks = self._chunks(X, [150, 150, 100])
        _, n_finite, col_min, col_max = streamed_quantile_edges(
            chunks, 3, 8, sketch="merge", capacity=32
        )
        for j in range(3):
            col = X[:, j][np.isfinite(X[:, j])]
            assert n_finite[j] == col.size
            assert col_min[j] == col.min() and col_max[j] == col.max()

    def test_merge_mode_edges_are_close_for_ample_capacity(self):
        X, _, _ = _data(n=500, k=2, seed=5)
        chunks = self._chunks(X, [123, 377])
        edges, _, _, _ = streamed_quantile_edges(
            chunks, 2, 6, sketch="merge", capacity=10_000
        )
        for j in range(2):
            np.testing.assert_array_equal(
                edges[j], equal_frequency_edges(X[:, j], 6)
            )

    def test_unknown_sketch_mode_rejected(self):
        X, _, _ = _data()
        with pytest.raises(ConfigurationError):
            streamed_quantile_edges(self._chunks(X, [103]), 4, 8, sketch="bogus")
