"""Tests for repro.boosting.histogram split finding."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.boosting import best_split_for_feature, feature_histogram, split_gain
from repro.exceptions import DataError


class TestFeatureHistogram:
    def test_sums_match(self):
        codes = np.array([0, 1, 1, 2])
        grad = np.array([1.0, 2.0, 3.0, 4.0])
        hess = np.ones(4)
        g, h, c = feature_histogram(codes, grad, hess, n_bins=4)
        assert g.tolist() == [1.0, 5.0, 4.0, 0.0]
        assert h.tolist() == [1.0, 2.0, 1.0, 0.0]
        assert c.tolist() == [1, 2, 1, 0]

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            feature_histogram(np.zeros(3, dtype=int), np.zeros(2), np.zeros(3), 2)


class TestSplitGain:
    def test_zero_gain_for_homogeneous_gradient(self):
        # If left/right have proportional grad/hess the gain is ~0.
        gl = np.array([5.0])
        hl = np.array([5.0])
        gain = split_gain(gl, hl, g_total=10.0, h_total=10.0, reg_lambda=0.0, gamma=0.0)
        assert gain[0] == pytest.approx(0.0, abs=1e-12)

    def test_opposite_gradients_give_positive_gain(self):
        gain = split_gain(
            np.array([-5.0]), np.array([5.0]),
            g_total=0.0, h_total=10.0, reg_lambda=1.0, gamma=0.0,
        )
        assert gain[0] > 0

    def test_gamma_subtracts(self):
        args = (np.array([-5.0]), np.array([5.0]), 0.0, 10.0, 1.0)
        g0 = split_gain(*args, gamma=0.0)[0]
        g1 = split_gain(*args, gamma=1.0)[0]
        assert g1 == pytest.approx(g0 - 1.0)


class TestBestSplitForFeature:
    def test_finds_informative_boundary(self):
        # Gradients flip sign exactly between code 4 and 5.
        codes = np.repeat(np.arange(10), 20)
        grad = np.where(codes < 5, -1.0, 1.0)
        hess = np.ones_like(grad)
        cand = best_split_for_feature(
            codes, grad, hess, n_bins=11,
            reg_lambda=1.0, gamma=0.0, min_child_weight=0.0, min_samples_leaf=1,
        )
        assert cand is not None
        assert cand.bin_index == 4
        assert cand.n_left == 100
        assert cand.n_right == 100

    def test_no_split_when_pure(self):
        codes = np.repeat(np.arange(4), 10)
        grad = np.ones(40)
        hess = np.ones(40)
        cand = best_split_for_feature(
            codes, grad, hess, n_bins=5,
            reg_lambda=1.0, gamma=0.0, min_child_weight=0.0, min_samples_leaf=1,
        )
        assert cand is None

    def test_min_samples_leaf_respected(self):
        codes = np.array([0] * 2 + [1] * 98)
        grad = np.where(codes == 0, -10.0, 1.0)
        hess = np.ones(100)
        cand = best_split_for_feature(
            codes, grad, hess, n_bins=3,
            reg_lambda=1.0, gamma=0.0, min_child_weight=0.0, min_samples_leaf=5,
        )
        assert cand is None  # the only useful split isolates 2 < 5 rows

    def test_min_child_weight_respected(self):
        codes = np.array([0] * 50 + [1] * 50)
        grad = np.where(codes == 0, -1.0, 1.0)
        hess = np.full(100, 0.001)
        cand = best_split_for_feature(
            codes, grad, hess, n_bins=3,
            reg_lambda=1.0, gamma=0.0, min_child_weight=1.0, min_samples_leaf=1,
        )
        assert cand is None

    def test_single_bin_returns_none(self):
        cand = best_split_for_feature(
            np.zeros(10, dtype=int), np.ones(10), np.ones(10), n_bins=1,
            reg_lambda=1.0, gamma=0.0, min_child_weight=0.0, min_samples_leaf=1,
        )
        assert cand is None

    def test_child_stats_add_up(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 8, size=200)
        grad = rng.normal(size=200)
        hess = np.abs(rng.normal(size=200)) + 0.1
        cand = best_split_for_feature(
            codes, grad, hess, n_bins=9,
            reg_lambda=1.0, gamma=0.0, min_child_weight=0.0, min_samples_leaf=1,
        )
        if cand is not None:
            assert cand.grad_left + cand.grad_right == pytest.approx(grad.sum())
            assert cand.hess_left + cand.hess_right == pytest.approx(hess.sum())
            assert cand.n_left + cand.n_right == 200


class TestNodeHistogramBuilder:
    def _setup(self, rng, n=300, n_cols=4, n_bins=8):
        from repro.tabular.binning import quantile_codes_matrix

        X = rng.normal(size=(n, n_cols))
        codes, edges = quantile_codes_matrix(X, max_bins=n_bins)
        stride = max(len(e) for e in edges) + 2
        grad = rng.normal(size=n)
        hess = rng.random(n) + 0.5
        return codes, stride, grad, hess

    def test_build_level_matches_per_node_bincounts(self):
        from repro.boosting.histogram import NodeHistogramBuilder

        rng = np.random.default_rng(0)
        codes, stride, grad, hess = self._setup(rng)
        builder = NodeHistogramBuilder(codes, stride, grad, hess)
        idx_a = np.arange(0, 150)
        idx_b = np.arange(150, 300)
        block = builder.build_level([idx_a, idx_b])
        assert block.shape == (3, 2, codes.shape[1], stride)
        for pos, idx in enumerate([idx_a, idx_b]):
            for j in range(codes.shape[1]):
                col = np.asarray(codes[idx, j], dtype=np.int64)
                g, h, c = feature_histogram(col, grad[idx], hess[idx], stride)
                assert np.array_equal(block[0, pos, j], g)
                assert np.array_equal(block[1, pos, j], h)
                assert np.array_equal(block[2, pos, j], c)

    def test_subtraction_recovers_counts_exactly(self):
        from repro.boosting.histogram import NodeHistogramBuilder

        rng = np.random.default_rng(1)
        codes, stride, grad, hess = self._setup(rng)
        builder = NodeHistogramBuilder(codes, stride, grad, hess)
        parent = np.arange(300)
        left = np.arange(0, 120)
        right = np.arange(120, 300)
        blocks = builder.build_level([parent, left, right])
        # Count channel: parent - left == right bit-exactly (integer floats).
        assert np.array_equal(blocks[2, 0] - blocks[2, 1], blocks[2, 2])

    def test_without_counts_channel(self):
        from repro.boosting.histogram import NodeHistogramBuilder

        rng = np.random.default_rng(2)
        codes, stride, grad, hess = self._setup(rng)
        builder = NodeHistogramBuilder(codes, stride, grad, hess, with_counts=False)
        block = builder.build_level([np.arange(300)])
        assert block.shape == (2, 1, codes.shape[1], stride)

    def test_all_rows_handle_matches_an_explicit_index(self):
        from repro.boosting.histogram import NodeHistogramBuilder

        rng = np.random.default_rng(3)
        codes, stride, grad, hess = self._setup(rng)
        builder = NodeHistogramBuilder(codes, stride, grad, hess)
        every = np.arange(codes.shape[0])
        assert np.array_equal(builder.build_level([None]), builder.build_level([every]))

    def test_all_rows_root_gathers_no_rows(self):
        # An unsubsampled root reads column slices and the weight vectors
        # as they are. Beyond the returned block, its peak is one or two
        # int64 bincount keys, far below gathered copies of the row index
        # and both weight vectors.
        from repro.boosting.histogram import NodeHistogramBuilder

        rng = np.random.default_rng(4)
        n = 200_000
        codes = rng.integers(0, 64, size=(n, 8), dtype=np.uint8)
        builder = NodeHistogramBuilder(codes, 64, rng.normal(size=n), rng.random(n))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            block = builder.build_level([None])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        extra = peak - block.nbytes
        assert extra < 2.5 * 8 * n, f"peak beyond the block {extra / 1e6:.2f} MB"

    def test_shape_validation(self):
        from repro.boosting.histogram import NodeHistogramBuilder

        with pytest.raises(DataError):
            NodeHistogramBuilder(np.zeros(5, dtype=np.int64), 4, np.zeros(5), np.zeros(5))
        with pytest.raises(DataError):
            NodeHistogramBuilder(
                np.zeros((5, 2), dtype=np.int64), 4, np.zeros(4), np.zeros(4)
            )


class TestLevelHistogramRowsParity:
    """``level_histogram_partial`` with ``rows`` against per-node
    ``feature_histogram`` over ``codes[rows]``, bit for bit."""

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("subset", ["sorted", "empty"])
    @pytest.mark.parametrize("dtype,stride", [(np.uint8, 40), (np.uint16, 300)])
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_matches_per_node_feature_histogram(self, m, subset, dtype, stride, order):
        from repro.boosting.histogram import level_histogram_partial

        rng = np.random.default_rng(5)
        n, n_cols = 500, 3
        codes = np.asarray(
            rng.integers(0, stride, size=(n, n_cols)), dtype=dtype, order=order
        )
        grad = rng.normal(size=n)
        hess = rng.random(n) + 0.5
        if subset == "sorted":
            rows = np.sort(rng.choice(n, size=n // 2, replace=False))
        else:
            rows = np.empty(0, dtype=np.int64)
        node = rng.integers(0, m, size=rows.size)
        slots = None if m == 1 else node * stride
        block = level_histogram_partial(
            codes, slots, grad[rows], hess[rows], m, stride, rows=rows
        )
        assert block.shape == (3, m, n_cols, stride)
        for k in range(m):
            node_rows = rows[node == k]
            for j in range(n_cols):
                g, h, c = feature_histogram(
                    codes[node_rows, j].astype(np.int64),
                    grad[node_rows],
                    hess[node_rows],
                    stride,
                )
                assert np.array_equal(block[0, k, j], g)
                assert np.array_equal(block[1, k, j], h)
                assert np.array_equal(block[2, k, j], c)
