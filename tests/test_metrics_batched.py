"""Equivalence tests: batched scoring engine vs the scalar references.

The batched kernels (``metrics.batched``, ``core.scoring``) must be
numerically indistinguishable (≤ 1e-9) from the scalar implementations
they replace, across the awkward column types the pipeline actually
produces: NaN-bearing, constant, all-missing, ±inf, heavy-duplicate, and
single-split-value features.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.generation import Combination
from repro.core.scoring import IntervalCodeCache, score_combinations
from repro.core.selection import information_values_safe
from repro.exceptions import ConfigurationError, DataError
from repro.metrics.batched import (
    gain_ratio_from_cells,
    information_values_matrix,
)
from repro.metrics.information import (
    cells_from_split_values,
    information_gain_ratio,
    information_value,
    information_values,
)

TOL = 1e-9


def awkward_matrix(n: int = 900, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """A matrix exercising every guard: NaN, constant, inf, duplicates."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 10))
    X[:, 2] = np.round(X[:, 2] * 2)  # heavy duplicates
    X[:, 3] = 5.0  # constant
    X[:, 4] = np.nan  # all missing
    X[rng.random(size=n) < 0.15, 5] = np.nan  # sprinkled NaN
    X[0, 7] = np.inf
    X[1, 7] = -np.inf
    X[:, 8] = rng.integers(0, 3, size=n).astype(float)  # tiny cardinality
    y = (X[:, 0] + X[:, 1] > 0).astype(float)
    return X, y


def scalar_safe_ivs(X: np.ndarray, y: np.ndarray, n_bins: int) -> np.ndarray:
    """The pre-batching per-column loop: guard, then scalar IV."""
    ivs = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        col = X[:, j]
        finite = col[np.isfinite(col)]
        if finite.size == 0 or np.all(finite == finite[0]):
            continue
        ivs[j] = information_value(col, y, n_bins=n_bins)
    return ivs


def random_combinations(
    rng: np.random.Generator, n_features: int, n_combos: int
) -> list[Combination]:
    combos = []
    for __ in range(n_combos):
        k = int(rng.integers(1, 4))
        feats = tuple(
            sorted(rng.choice(n_features, size=k, replace=False).tolist())
        )
        split_values = tuple(
            tuple(
                sorted(
                    set(
                        np.round(
                            rng.normal(size=int(rng.integers(1, 7))), 2
                        ).tolist()
                    )
                )
            )
            for __ in feats
        )
        combos.append(Combination(features=feats, split_values=split_values))
    return combos


class TestBatchedIV:
    @pytest.mark.parametrize("n_bins", [2, 5, 10])
    def test_matches_scalar_on_awkward_columns(self, n_bins):
        X, y = awkward_matrix()
        ref = scalar_safe_ivs(X, y, n_bins)
        got = information_values_matrix(X, y, n_bins=n_bins)
        assert np.abs(ref - got).max() <= TOL

    def test_shared_implementation_used_by_both_call_sites(self):
        X, y = awkward_matrix(seed=11)
        matrix = information_values_matrix(X, y, n_bins=10)
        assert np.array_equal(information_values(X, y, n_bins=10), matrix)
        assert np.array_equal(information_values_safe(X, y, 10), matrix)

    def test_unscorable_columns_are_zero(self):
        X, y = awkward_matrix()
        ivs = information_values_matrix(X, y, n_bins=10)
        assert ivs[3] == 0.0  # constant
        assert ivs[4] == 0.0  # all-NaN

    def test_requires_both_classes(self):
        X = np.random.default_rng(0).normal(size=(50, 3))
        with pytest.raises(DataError):
            information_values_matrix(X, np.ones(50), n_bins=10)

    def test_empty_matrix(self):
        assert information_values_matrix(np.ones((4, 0)), np.array([0, 1, 0, 1])).size == 0

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError):
            information_values_matrix(np.ones((4, 2)), np.array([0, 1]))

    def test_scratch_memory_is_per_column(self):
        """Column at a time, the kernel's scratch is O(rows): on a 30.5 MB
        Fortran-ordered candidate matrix it allocates under 4 MB at peak
        beyond its input (no masked, sorted or key copy of the matrix)."""
        import tracemalloc

        rng = np.random.default_rng(13)
        X = np.asfortranarray(rng.normal(size=(20_000, 200)))
        X[rng.random(X.shape) < 0.01] = np.nan
        y = (rng.random(20_000) < 0.5).astype(float)
        tracemalloc.start()
        try:
            information_values_matrix(X, y, n_bins=10)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestIntervalCodeCache:
    def test_cells_match_scalar_reference(self):
        X, y = awkward_matrix()
        rng = np.random.default_rng(3)
        combos = random_combinations(rng, X.shape[1], 40)
        # Include the degenerate shapes the miner can emit: a single
        # split value, a duplicated split value, and a constant feature.
        combos.append(Combination(features=(5,), split_values=((0.0,),)))
        combos.append(Combination(features=(3, 5), split_values=((5.0,), (0.0, 1.0))))
        cache = IntervalCodeCache(X, combos)
        labeled_cache = IntervalCodeCache(
            X, combos, label=(y == 1).astype(np.int64)
        )
        for combo in combos:
            ref = cells_from_split_values(
                X,
                list(combo.features),
                [np.asarray(v) for v in combo.split_values],
            )
            for c in (cache, labeled_cache):
                got, n_cells = c.cells(combo.features, combo.split_values)
                assert np.array_equal(ref, got)
                assert got.max() < n_cells

    def test_duplicate_split_values_collapse(self):
        X = np.arange(12.0).reshape(-1, 1)
        cache = IntervalCodeCache(
            X, [Combination(features=(0,), split_values=((3.0, 3.0),))]
        )
        codes, n_values = cache.interval_codes(0, (3.0, 3.0))
        assert n_values == 1
        # side="left" semantics: a row equal to the split value stays in
        # the left interval.
        assert np.array_equal(codes, (X[:, 0] > 3.0).astype(np.int64))

    def test_rejects_mismatched_lengths(self):
        X = np.ones((4, 2))
        cache = IntervalCodeCache(X, [])
        with pytest.raises(ConfigurationError):
            cache.cells((0, 1), ((1.0,),))
        with pytest.raises(ConfigurationError):
            cache.cells((), ())

    def test_rejects_values_outside_pooled_union(self):
        X = np.array([[0.5], [1.5], [2.5]])
        cache = IntervalCodeCache(
            X, [Combination(features=(0,), split_values=((1.0,),))]
        )
        with pytest.raises(ConfigurationError):
            cache.interval_codes(0, (2.0,))  # same size as union, not equal
        with pytest.raises(ConfigurationError):
            cache.interval_codes(0, (1.0, 2.0))  # not a subset


class TestBatchedGainRatio:
    def test_matches_scalar_reference(self):
        X, y = awkward_matrix()
        rng = np.random.default_rng(5)
        combos = random_combinations(rng, X.shape[1], 50)
        ratios = score_combinations(X, y, combos)
        for combo, got in zip(combos, ratios):
            cells = cells_from_split_values(
                X,
                list(combo.features),
                [np.asarray(v) for v in combo.split_values],
            )
            assert abs(information_gain_ratio(y, cells) - got) <= TOL

    def test_dense_and_sparse_paths_agree(self):
        rng = np.random.default_rng(9)
        y = rng.integers(0, 2, size=400).astype(float)
        cells = rng.integers(0, 17, size=400)
        dense = gain_ratio_from_cells(y, cells, n_cells=17)
        sparse = gain_ratio_from_cells(y, cells, n_cells=None)
        assert dense == pytest.approx(sparse, abs=TOL)
        assert dense == pytest.approx(information_gain_ratio(y, cells), abs=TOL)

    def test_single_cell_partition_scores_zero(self):
        y = np.array([0.0, 1.0, 1.0, 0.0])
        assert gain_ratio_from_cells(y, np.zeros(4, dtype=np.int64), n_cells=1) == 0.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError):
            gain_ratio_from_cells(np.zeros(3), np.zeros(2, dtype=np.int64))
