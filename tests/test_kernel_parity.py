"""Kernel ↔ oracle parity tests required by the kernel-parity lint rule.

Every ``@batched_kernel(oracle=...)`` function must appear in some test
module together with its oracle (``python -m repro lint`` enforces this
statically). This module holds the parity checks for the kernels whose
oracle comparisons are not already exercised elsewhere:

* ``standardize_columns``   vs ``pearson_matrix``
* ``max_abs_correlation``   vs ``pearson_matrix``
* ``gain_ratio_from_labeled_cells`` vs ``information_gain_ratio``
* ``batch_populate_cache``  vs ``evaluate_expressions``
* ``bin_codes``             vs ``codes_from_edges`` / ``np.searchsorted``
* ``edges_from_sorted``     vs ``equal_frequency_edges``
* ``IntervalCodeCache``     vs ``cells_from_split_values`` (NaN rows,
  ``+inf`` split values)
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generation import Combination
from repro.core.redundancy import max_abs_correlation, standardize_columns
from repro.core.scoring import IntervalCodeCache
from repro.metrics.batched import gain_ratio_from_labeled_cells
from repro.metrics.information import (
    cells_from_split_values,
    entropy,
    information_gain_ratio,
    pearson_matrix,
)
from repro.operators import Applied, Var, evaluate_expressions
from repro.operators.engine import EvalCache, batch_populate_cache
from repro.tabular.binning import (
    bin_codes,
    codes_from_edges,
    edges_from_sorted,
    equal_frequency_edges,
    quantile_codes_matrix,
    sorted_finite,
)


def _corner_matrix(rng: np.random.Generator) -> np.ndarray:
    """Random columns plus the corners the kernels guard against."""
    X = rng.normal(size=(200, 7))
    X[:, 2] = 3.25                      # exactly constant
    X[:, 4] = 0.1                       # numerically constant (std ~1e-17)
    X[:, 5] = 2.0 * X[:, 0] - 1.0       # perfectly correlated with x0
    return X


class TestStandardizeColumnsParity:
    def test_gram_of_standardized_block_matches_pearson_matrix(self, rng):
        X = _corner_matrix(rng)
        Z, constant = standardize_columns(X.copy())
        C = Z.T @ Z
        C[constant, :] = 0.0
        C[:, constant] = 0.0
        np.fill_diagonal(C, 1.0)
        C = np.clip(C, -1.0, 1.0)
        np.testing.assert_allclose(C, pearson_matrix(X), atol=1e-10)

    def test_constant_mask_matches_pearson_noise_floor(self, rng):
        X = _corner_matrix(rng)
        _, constant = standardize_columns(X.copy())
        assert constant.tolist() == [False, False, True, False, True, False, False]

    def test_nan_column_propagates_like_pearson(self, rng):
        X = _corner_matrix(rng)
        X[0, 1] = np.nan
        Z, constant = standardize_columns(X.copy())
        C = Z.T @ Z
        C[constant, :] = 0.0
        C[:, constant] = 0.0
        np.fill_diagonal(C, 1.0)
        np.testing.assert_allclose(
            np.clip(C, -1.0, 1.0), pearson_matrix(X), atol=1e-10, equal_nan=True
        )


class TestMaxAbsCorrelationParity:
    def test_matches_pearson_matrix_block_maximum(self, rng):
        X = _corner_matrix(rng)
        full = pearson_matrix(X)
        n_cand = 3
        Zc, cand_constant = standardize_columns(X[:, :n_cand].copy())
        Zp, kept_constant = standardize_columns(X[:, n_cand:].copy())
        # chunk=2 forces the chunked-GEMM reduction through multiple passes.
        got = max_abs_correlation(Zc, Zp, cand_constant, kept_constant, chunk=2)
        expected = np.abs(full[:n_cand, n_cand:]).max(axis=1)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_constant_candidate_scores_zero_like_pearson_row(self, rng):
        X = _corner_matrix(rng)
        full = pearson_matrix(X)
        Zc, cand_constant = standardize_columns(X[:, [2, 4]].copy())
        Zp, kept_constant = standardize_columns(X[:, [0, 1]].copy())
        got = max_abs_correlation(Zc, Zp, cand_constant, kept_constant)
        expected = np.abs(full[np.ix_([2, 4], [0, 1])]).max(axis=1)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        assert got.tolist() == [0.0, 0.0]


class TestGainRatioFromLabeledCellsParity:
    def test_matches_information_gain_ratio(self, rng):
        y = rng.integers(0, 2, size=400)
        cells = rng.integers(0, 9, size=400)
        labeled = cells.astype(np.int64) * 2 + (y == 1)
        got = gain_ratio_from_labeled_cells(labeled, 18, y.size, entropy(y))
        assert got == pytest.approx(information_gain_ratio(y, cells), abs=1e-12)

    def test_sparse_cell_ids_match_after_remap(self, rng):
        # Huge, sparse cell ids (the np.unique fallback path of callers).
        y = rng.integers(0, 2, size=300)
        raw = rng.choice(np.array([7, 1000, 52341, 9]), size=300)
        _, inverse = np.unique(raw, return_inverse=True)
        labeled = inverse.astype(np.int64) * 2 + (y == 1)
        got = gain_ratio_from_labeled_cells(labeled, 8, y.size, entropy(y))
        assert got == pytest.approx(information_gain_ratio(y, raw), abs=1e-12)

    def test_single_cell_partition_is_zero_both_ways(self, rng):
        y = rng.integers(0, 2, size=100)
        cells = np.zeros(100, dtype=np.int64)
        labeled = cells * 2 + (y == 1)
        assert gain_ratio_from_labeled_cells(labeled, 2, 100, entropy(y)) == 0.0
        assert information_gain_ratio(y, cells) == 0.0


class TestBatchPopulateCacheParity:
    def test_batched_columns_bit_identical_to_evaluate_expressions(self, rng):
        X = rng.normal(size=(64, 5))
        X[3, 4] = 0.0  # exercise DivOp's protected-zero branch in batch
        shared = Applied("add", (Var(0), Var(1)))
        expressions = [
            shared,
            Applied("mul", (Var(2), Var(3))),
            Applied("sigmoid", (shared,)),
            Applied("div", (Var(1), Var(4))),
            Applied("cond", (Var(0), Var(1), Var(2))),
        ]
        cache = EvalCache(X)
        batch_populate_cache(cache, expressions)
        reference = evaluate_expressions(expressions, X)
        for j, expr in enumerate(expressions):
            np.testing.assert_array_equal(cache.column(expr), reference[:, j])

    def test_stateful_and_cached_nodes_are_left_alone(self, rng):
        X = rng.normal(size=(32, 3))
        expr = Applied("add", (Var(0), Var(1)))
        cache = EvalCache(X)
        cached = cache.column(expr)
        batch_populate_cache(cache, [expr])
        assert cache.column(expr) is cached


#: Heavy ties, interleaved signed zeros and every non-finite value.
_RAW_VALUES = st.sampled_from(
    [-0.0, 0.0, -0.0, 0.0, 1.0, -1.0, 2.5, np.nan, np.inf, -np.inf]
)
_COLUMN = st.lists(
    st.one_of(_RAW_VALUES, st.floats(-1e3, 1e3)), min_size=1, max_size=400
)


def _column(values: list, constant: bool) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    return np.full(x.size, x[0]) if constant else x


def _edges(x: np.ndarray, n_edges: int, seed: int, low: bool, high: bool) -> np.ndarray:
    """``n_edges`` sorted distinct NaN-free edges, many of them column
    values (so rows tie with edges), optionally with ±inf at the ends."""
    rng = np.random.default_rng(seed)
    finite = x[np.isfinite(x)]
    grid = np.round(rng.normal(size=2 * n_edges), 1)
    pool = np.unique(np.concatenate([finite, grid]))
    while pool.size < n_edges:
        pool = np.unique(np.concatenate([pool, rng.normal(size=n_edges)]))
    edges = np.sort(rng.choice(pool, size=n_edges, replace=False))
    if n_edges and low:
        edges[0] = -np.inf
    if n_edges > 1 and high:
        edges[-1] = np.inf
    return edges


class TestBinCodesParity:
    """The comparison-count kernel is the binary search, for every float."""

    @settings(max_examples=80, deadline=None)
    @given(
        values=_COLUMN,
        constant=st.booleans(),
        n_edges=st.sampled_from([0, 1, 9, 63, 254, 255, 300]),
        seed=st.integers(0, 2**32 - 1),
        low=st.booleans(),
        high=st.booleans(),
    )
    def test_matches_searchsorted_and_codes_from_edges(
        self, values, constant, n_edges, seed, low, high
    ):
        x = _column(values, constant)
        edges = _edges(x, n_edges, seed, low, high)
        codes = bin_codes(x, edges)
        # The counter holds the missing code len(edges) + 1: uint8 up to
        # 254 edges, uint16 past that.
        assert codes.dtype == (np.uint8 if n_edges <= 254 else np.uint16)
        assert np.array_equal(codes, np.searchsorted(edges, x, side="left"))
        assert np.array_equal(
            bin_codes(x, edges, missing=True), codes_from_edges(x, edges)
        )

    def test_nan_sorts_last_and_signed_zeros_tie(self):
        edges = np.array([-np.inf, -0.0, 1.0, np.inf])
        x = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 0.5, 2.0])
        assert bin_codes(x, edges).tolist() == [4, 3, 0, 1, 1, 2, 2, 3]
        assert np.array_equal(bin_codes(x, edges), np.searchsorted(edges, x))


class TestEdgesFromSortedParity:
    """Sort-picked edges are the np.quantile edges, value for value."""

    @settings(max_examples=80, deadline=None)
    @given(
        values=_COLUMN,
        constant=st.booleans(),
        n_bins=st.sampled_from([2, 10, 64, 256]),
    )
    def test_matches_equal_frequency_edges(self, values, constant, n_bins):
        x = _column(values, constant)
        ref = equal_frequency_edges(x, n_bins)
        edges = edges_from_sorted(sorted_finite(x), n_bins)
        # Value equality: a zero edge may carry the other sign (np.quantile
        # partitions, the helper sorts), which no comparison can see.
        assert np.array_equal(edges, ref)
        assert np.array_equal(
            bin_codes(x, edges, missing=True), codes_from_edges(x, ref)
        )
        codes, (matrix_edges,) = quantile_codes_matrix(x[:, None], max_bins=n_bins)
        assert np.array_equal(matrix_edges, ref)
        assert np.array_equal(codes[:, 0], codes_from_edges(x, ref))

    def test_sorted_finite_drops_every_non_finite_value(self):
        x = np.array([np.nan, 3.0, -np.inf, 1.0, np.inf, -2.0, np.nan])
        assert sorted_finite(x).tolist() == [-2.0, 1.0, 3.0]
        assert sorted_finite(np.array([np.nan, np.inf])).size == 0


class TestIntervalCodeCacheParity:
    """Fine codes are raw bin codes: NaN rows take the last interval and a
    +inf split value (the mining trees' missing-vs-value threshold) is an
    ordinary edge, exactly as ``cells_from_split_values`` searches."""

    @settings(max_examples=60, deadline=None)
    @given(values=_COLUMN, seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_cells_match_cells_from_split_values(self, values, seed, data):
        rng = np.random.default_rng(seed)
        x = np.asarray(values, dtype=np.float64)
        X = np.column_stack([x, rng.permutation(x)])
        X[rng.random(x.size) < 0.2, 1] = np.nan

        def split_values(f):
            n_values = data.draw(st.integers(1, 12), label="split values")
            values = _edges(X[:, f], n_values, int(rng.integers(2**32)), False, False)
            if data.draw(st.booleans(), label="+inf threshold"):
                values = np.append(values[:-1], np.inf)
            return tuple(values.tolist())

        combos = [
            Combination(features=(0,), split_values=(split_values(0),)),
            Combination(features=(1,), split_values=(split_values(1),)),
        ]
        # A subset of each pooled union: coarse codes come from the lookup
        # table over the fine codes, +inf threshold included.
        combos.append(
            Combination(
                features=(0, 1),
                split_values=(
                    combos[0].split_values[0][1::2],
                    combos[1].split_values[0][::2],
                ),
            )
        )
        label = rng.integers(0, 2, size=x.size)
        caches = (IntervalCodeCache(X, combos), IntervalCodeCache(X, combos, label))
        for cache in caches:
            for combo in combos:
                ref = cells_from_split_values(
                    X,
                    list(combo.features),
                    [np.asarray(v) for v in combo.split_values],
                )
                got, n_cells = cache.cells(combo.features, combo.split_values)
                assert np.array_equal(got, ref)
                assert got.max() < n_cells
