"""Tests for the three-stage feature selection (§IV-C)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    filter_by_information_value,
    rank_by_importance,
    remove_redundant_features,
    remove_redundant_features_blocked,
    select_features,
)
from repro.exceptions import DataError
from repro.metrics import pearson_matrix


def full_matrix_reference_kept(X: np.ndarray, ivs: np.ndarray, theta: float) -> np.ndarray:
    """The pre-blocked Algorithm 4 greedy: full k x k matrix, then scan.

    Kept as the audited oracle for the blocked incremental kernel — a
    faithful copy of the seed implementation (``benchmarks/run_perf.py``
    carries an intentionally independent twin for the perf gate).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] == 0:
        return np.empty(0, dtype=np.int64)
    corr = np.abs(pearson_matrix(X))
    order = np.lexsort((np.arange(ivs.size), -ivs))
    kept: list[int] = []
    for j in order:
        if not kept or corr[j, kept].max() <= theta:
            kept.append(int(j))
    kept.sort()
    return np.asarray(kept, dtype=np.int64)


class TestIVFilter:
    def test_drops_noise_keeps_signal(self, rng):
        X = rng.normal(size=(3000, 4))
        y = (X[:, 1] > 0).astype(float)
        kept, ivs = filter_by_information_value(X, y, alpha=0.1, n_bins=10)
        assert 1 in kept
        assert ivs[1] > 0.5
        # Pure-noise columns should be gone.
        assert all(ivs[k] > 0.1 for k in kept)

    def test_never_returns_empty(self, rng):
        X = rng.normal(size=(500, 3))
        y = rng.integers(0, 2, size=500).astype(float)  # nothing informative
        kept, __ = filter_by_information_value(X, y, alpha=0.1, n_bins=10)
        assert kept.size >= 1

    def test_min_keep_honoured(self, rng):
        X = rng.normal(size=(500, 5))
        y = rng.integers(0, 2, size=500).astype(float)
        kept, __ = filter_by_information_value(X, y, alpha=10.0, n_bins=10, min_keep=3)
        assert kept.size == 3

    def test_constant_column_scores_zero(self, rng):
        X = np.column_stack([np.full(400, 7.0), rng.normal(size=400)])
        y = (X[:, 1] > 0).astype(float)
        kept, ivs = filter_by_information_value(X, y, alpha=0.1, n_bins=10)
        assert ivs[0] == 0.0
        assert 0 not in kept

    def test_rejects_empty_matrix(self):
        with pytest.raises(DataError):
            filter_by_information_value(np.ones((3, 0)), np.ones(3), 0.1, 10)


class TestRedundancyRemoval:
    def test_keeps_higher_iv_of_correlated_pair(self, rng):
        x = rng.normal(size=500)
        X = np.column_stack([x, 2 * x + 0.001 * rng.normal(size=500)])
        ivs = np.array([0.5, 0.3])
        kept = remove_redundant_features(X, ivs, theta=0.8)
        assert kept.tolist() == [0]

    def test_lower_iv_wins_when_higher(self, rng):
        x = rng.normal(size=500)
        X = np.column_stack([x, 2 * x])
        ivs = np.array([0.3, 0.5])
        kept = remove_redundant_features(X, ivs, theta=0.8)
        assert kept.tolist() == [1]

    def test_uncorrelated_features_all_kept(self, rng):
        X = rng.normal(size=(500, 4))
        ivs = np.array([0.4, 0.3, 0.2, 0.1])
        kept = remove_redundant_features(X, ivs, theta=0.8)
        assert kept.tolist() == [0, 1, 2, 3]

    def test_negative_correlation_counts(self, rng):
        x = rng.normal(size=500)
        X = np.column_stack([x, -x])
        kept = remove_redundant_features(X, np.array([0.5, 0.4]), theta=0.8)
        assert kept.tolist() == [0]

    def test_chain_of_correlation(self, rng):
        # a ~ b ~ c all mutually correlated: only the best survives.
        x = rng.normal(size=500)
        X = np.column_stack([x, x + 0.01 * rng.normal(size=500),
                             x - 0.01 * rng.normal(size=500)])
        kept = remove_redundant_features(X, np.array([0.2, 0.9, 0.5]), theta=0.8)
        assert kept.tolist() == [1]

    def test_empty_matrix(self):
        kept = remove_redundant_features(np.empty((5, 0)), np.empty(0), 0.8)
        assert kept.size == 0

    def test_iv_length_mismatch(self, rng):
        with pytest.raises(DataError):
            remove_redundant_features(rng.normal(size=(10, 3)), np.ones(2), 0.8)


class TestBlockedRedundancyEquivalence:
    """The blocked incremental kernel must return *identical* kept indices
    to the full-matrix greedy on every input class the pipeline can
    produce — including the pathological ones."""

    def _assert_equivalent(self, X, ivs, theta, block_sizes=(1, 3, 7, 64)):
        ref = full_matrix_reference_kept(X, ivs, theta)
        for bs in block_sizes:
            got = remove_redundant_features_blocked(X, ivs, theta, block_size=bs)
            assert got.tolist() == ref.tolist(), f"block_size={bs}"
        assert remove_redundant_features(X, ivs, theta).tolist() == ref.tolist()

    def test_randomized_correlated_pools(self, rng):
        for trial in range(15):
            n = int(rng.integers(20, 80))
            k = int(rng.integers(2, 40))
            n_groups = max(1, k // 3)
            factors = rng.normal(size=(n, n_groups))
            X = factors[:, rng.integers(0, n_groups, size=k)]
            X = X + rng.uniform(0.05, 1.5) * rng.normal(size=(n, k))
            ivs = rng.uniform(0, 1, size=k)
            self._assert_equivalent(X, ivs, float(rng.uniform(0.1, 0.95)))

    def test_nan_and_inf_columns(self, rng):
        X = rng.normal(size=(60, 8))
        X[3, 1] = np.nan
        X[:, 4] = X[:, 0]
        X[7, 5] = np.inf
        X[9, 6] = -np.inf
        ivs = rng.uniform(0, 1, size=8)
        # Exercise both orders: NaN column visited first and last.
        for nan_iv in (2.0, -1.0):
            ivs[1] = nan_iv
            self._assert_equivalent(X, ivs, 0.8)

    def test_constant_and_near_constant_columns(self, rng):
        X = rng.normal(size=(50, 7))
        X[:, 2] = 3.25  # exactly constant
        X[:, 5] = 1e8 + 1e-7 * rng.normal(size=50)  # noise-floor constant
        X[:, 6] = 2.0 * X[:, 1]  # redundant duplicate
        ivs = rng.uniform(0, 1, size=7)
        # Constant visited first, middle, and after a NaN keeper.
        for const_iv in (2.0, 0.5, -1.0):
            ivs[2] = const_iv
            self._assert_equivalent(X, ivs, 0.8)

    def test_constant_against_nan_keeper(self, rng):
        # The corner the post-product zeroing creates: the kept set holds a
        # NaN column (kept because it was visited first), and a constant
        # column is visited later — the full path keeps it (its corr row is
        # zeroed), so the blocked path must too.
        X = rng.normal(size=(40, 4))
        X[5, 0] = np.nan
        X[:, 2] = 7.0
        ivs = np.array([3.0, 1.0, 0.5, 0.2])
        self._assert_equivalent(X, ivs, 0.8)

    def test_duplicate_columns_and_iv_ties(self, rng):
        x = rng.normal(size=70)
        X = np.column_stack([x, x, -x, rng.normal(size=70), x * 2])
        ivs = np.array([0.5, 0.5, 0.5, 0.5, 0.2])  # ties break by index
        self._assert_equivalent(X, ivs, 0.8)

    def test_theta_extremes(self, rng):
        X = rng.normal(size=(40, 6))
        ivs = rng.uniform(0, 1, size=6)
        for theta in (0.0, 1.0):
            self._assert_equivalent(X, ivs, theta)

    def test_columns_subset_matches_gathered_submatrix(self, rng):
        X = rng.normal(size=(50, 12))
        X[:, 7] = X[:, 1] * 3
        ivs_all = rng.uniform(0, 1, size=12)
        cols = np.array([1, 3, 4, 7, 10], dtype=np.int64)
        ref = cols[full_matrix_reference_kept(X[:, cols], ivs_all[cols], 0.8)]
        got = remove_redundant_features_blocked(
            X, ivs_all[cols], 0.8, columns=cols, block_size=2
        )
        assert got.tolist() == ref.tolist()

    def test_kernel_validates_input(self, rng):
        with pytest.raises(DataError):
            remove_redundant_features_blocked(rng.normal(size=(10, 3)), np.ones(2), 0.8)
        with pytest.raises(DataError):
            remove_redundant_features_blocked(
                rng.normal(size=(10, 3)), np.ones(3), 0.8, block_size=0
            )

    def test_empty_columns(self):
        out = remove_redundant_features_blocked(
            np.empty((5, 0)), np.empty(0), 0.8
        )
        assert out.size == 0

    def test_peak_memory_stays_subquadratic(self, rng):
        """A wide pool whose full correlation matrix (k^2 floats = 128 MB,
        before pearson_matrix's centered/normalized twins) would dwarf the
        blocked path's O((block + kept) * n) working set."""
        n, k = 64, 4000
        X = rng.normal(size=(n, k))
        ivs = rng.uniform(0.1, 1.0, size=k)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            kept = remove_redundant_features(X, ivs, theta=0.8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept.size > 0
        # Kept panel (<= 64 * 4000 * 8 = 2 MB) + per-block slabs; leave
        # generous slack while staying far below the 128 MB k x k matrix.
        assert peak < 32 * 1024 * 1024, f"peak {peak / 1e6:.1f} MB"


class TestImportanceRanking:
    def test_informative_first(self, rng):
        X = rng.normal(size=(2000, 4))
        y = (X[:, 2] > 0).astype(float)
        order, _ = rank_by_importance(
            X, y, None, n_estimators=10, max_depth=3, top_k=None, random_state=0
        )
        assert order[0] == 2

    def test_top_k_truncates(self, rng):
        X = rng.normal(size=(500, 6))
        y = (X[:, 0] > 0).astype(float)
        order, _ = rank_by_importance(
            X, y, None, n_estimators=5, max_depth=3, top_k=2, random_state=0
        )
        assert order.size == 2


class TestFullSelection:
    def test_pipeline_composition(self, rng):
        n = 2000
        signal = rng.normal(size=n)
        X = np.column_stack([
            signal,                                  # informative
            signal * 3 + 0.01 * rng.normal(size=n),  # redundant copy
            rng.normal(size=n),                      # noise
            -signal + 0.5 * rng.normal(size=n),      # weaker informative
        ])
        y = (signal + 0.3 * rng.normal(size=n) > 0).astype(float)
        report = select_features(
            X, y, None,
            alpha=0.1, iv_bins=10, theta=0.8,
            ranking_n_estimators=10, ranking_max_depth=3,
            max_output=4, random_state=0,
        )
        final = set(report.final_order)
        # Noise dropped by IV stage; exactly one of {0, 1} survives Pearson.
        assert 2 not in final
        assert len(final & {0, 1}) == 1
        assert report.n_candidates == 4
        assert set(report.kept_after_redundancy) <= set(report.kept_after_iv)
        assert final <= set(report.kept_after_redundancy)

    def test_max_output_budget(self, rng):
        X = rng.normal(size=(1000, 10))
        y = (X[:, :5].sum(axis=1) > 0).astype(float)
        report = select_features(
            X, y, None,
            alpha=0.0, iv_bins=10, theta=0.99,
            ranking_n_estimators=5, ranking_max_depth=3,
            max_output=3, random_state=0,
        )
        assert len(report.final_order) <= 3
