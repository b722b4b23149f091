"""Tests for repro.boosting.tree (regression tree + path extraction).

Includes the equivalence suite for the histogram-subtraction fast path:
``_reference_grow`` is a faithful copy of the seed's depth-first grower
(direct per-node histograms, no subtraction), and the level-order
subtraction trees must match it node-for-node on NaN/inf/constant/
duplicate-heavy data.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.boosting import Tree
from repro.exceptions import ConfigurationError, NotFittedError
from repro.tabular import quantile_codes_matrix
from repro.tabular.binning import codes_from_edges_matrix


def _grow(X, grad, hess=None, **kwargs):
    codes, edges = quantile_codes_matrix(X, max_bins=32)
    if hess is None:
        hess = np.ones_like(grad)
    defaults = {"max_depth": 4, "min_samples_leaf": 1, "min_child_weight": 0.0}
    defaults.update(kwargs)
    return Tree(**defaults).fit(codes, edges, grad, hess)


def _reference_grow(codes, edges, grad, hess, *, max_depth, min_samples_leaf,
                    min_child_weight, reg_lambda=1.0, gamma=0.0):
    """The seed's depth-first direct-histogram grower (the audited oracle).

    Returns the tree as a nested tuple from the root: internal nodes are
    ``(feature, bin, threshold, left, right)``, leaves are
    ``("leaf", value, n_samples)``. ``benchmarks/run_perf.py::SeedTree``
    is a deliberately independent copy of the same seed semantics; a
    change to the reference semantics must be mirrored there.
    """
    codes = np.ascontiguousarray(codes)
    n_rows, n_cols = codes.shape
    stride = max(len(e) for e in edges) + 2 if edges else 2
    offsets = (np.arange(n_cols, dtype=np.int64) * stride)[None, :]
    codes_offset = codes + offsets
    n_edges = np.array([len(e) for e in edges], dtype=np.int64)

    def grow(depth, idx):
        g_sum = float(grad[idx].sum())
        h_sum = float(hess[idx].sum())
        value = -g_sum / (h_sum + reg_lambda)
        if (
            depth >= max_depth
            or idx.size < 2 * min_samples_leaf
            or h_sum < 2 * min_child_weight
        ):
            return ("leaf", value, idx.size)
        flat = codes_offset[idx].ravel()
        length = n_cols * stride
        g_hist = np.bincount(
            flat, weights=np.repeat(grad[idx], n_cols), minlength=length
        ).reshape(n_cols, stride)
        h_hist = np.bincount(
            flat, weights=np.repeat(hess[idx], n_cols), minlength=length
        ).reshape(n_cols, stride)
        c_hist = np.bincount(flat, minlength=length).reshape(n_cols, stride)
        gl = np.cumsum(g_hist, axis=1)[:, :-1]
        hl = np.cumsum(h_hist, axis=1)[:, :-1]
        cl = np.cumsum(c_hist, axis=1)[:, :-1]
        gr = g_sum - gl
        hr = h_sum - hl
        cr = idx.size - cl
        parent_term = g_sum * g_sum / (h_sum + reg_lambda)
        gains = 0.5 * (
            gl * gl / (hl + reg_lambda) + gr * gr / (hr + reg_lambda) - parent_term
        ) - gamma
        valid = (
            (cl >= min_samples_leaf)
            & (cr >= min_samples_leaf)
            & (hl >= min_child_weight)
            & (hr >= min_child_weight)
            & (np.arange(stride - 1)[None, :] <= n_edges[:, None])
        )
        gains = np.where(valid, gains, -np.inf)
        best = int(np.argmax(gains))
        j, b = divmod(best, stride - 1)
        if not np.isfinite(gains[j, b]) or gains[j, b] <= 0:
            return ("leaf", value, idx.size)
        threshold = float(edges[j][b]) if b < len(edges[j]) else np.inf
        go_left = codes[idx, j] <= b
        left_idx, right_idx = idx[go_left], idx[~go_left]
        if left_idx.size == 0 or right_idx.size == 0:
            return ("leaf", value, idx.size)
        return (
            j, b, threshold,
            grow(depth + 1, left_idx),
            grow(depth + 1, right_idx),
        )

    return grow(0, np.arange(n_rows))


def _canonical(tree, nid=0):
    """Node-id-independent nested-tuple form of a fitted :class:`Tree`."""
    if tree.feature[nid] < 0:
        return ("leaf", float(tree.value[nid]), int(tree.n_samples[nid]))
    return (
        int(tree.feature[nid]),
        int(tree.threshold_bin[nid]),
        float(tree.threshold[nid]),
        _canonical(tree, int(tree.left[nid])),
        _canonical(tree, int(tree.right[nid])),
    )


def _awkward_matrices(rng):
    """NaN / ±inf / constant / duplicate-heavy training matrices."""
    n = 800
    base = rng.normal(size=(n, 6))
    nanful = base.copy()
    nanful[rng.random(size=n) < 0.2, 0] = np.nan
    nanful[rng.random(size=n) < 0.2, 1] = np.nan
    infful = base.copy()
    infful[rng.random(size=n) < 0.15, 0] = np.inf
    infful[rng.random(size=n) < 0.15, 1] = -np.inf
    constant = base.copy()
    constant[:, 2] = 1.5
    constant[:, 3] = 0.0
    dupes = np.round(base * 2.0) / 2.0  # few distinct values per column
    return {"nan": nanful, "inf": infful, "constant": constant, "dupes": dupes}


class TestSubtractionEquivalence:
    """Histogram-subtraction level growth == the seed's direct DFS growth."""

    @pytest.mark.parametrize("kind", ["nan", "inf", "constant", "dupes"])
    def test_trees_bit_identical_to_direct_path(self, rng, kind):
        X = _awkward_matrices(rng)[kind]
        target = np.nan_to_num(X[:, 4]) + 0.7 * np.nan_to_num(X[:, 5])
        grad = -target + 0.05 * rng.normal(size=X.shape[0])
        hess = np.full(X.shape[0], 0.25) + 0.1 * rng.random(X.shape[0])
        codes, edges = quantile_codes_matrix(X, max_bins=32)
        params = {"max_depth": 5, "min_samples_leaf": 3, "min_child_weight": 1e-3}
        tree = Tree(**params).fit(codes, edges, grad, hess)
        ref = _reference_grow(codes, edges, grad, hess, **params)
        assert _canonical(tree) == ref

    @pytest.mark.parametrize("kind", ["nan", "inf", "constant", "dupes"])
    def test_binned_descent_bit_identical_to_raw(self, rng, kind):
        """predict_codes on matrices binned with the training edges must
        equal raw-float predict exactly — including on non-finite probes."""
        X = _awkward_matrices(rng)[kind]
        grad = np.where(np.nan_to_num(X[:, 4]) > 0, 1.0, -1.0)
        codes, edges = quantile_codes_matrix(X, max_bins=32)
        tree = Tree(max_depth=5, min_samples_leaf=2, min_child_weight=0.0).fit(
            codes, edges, grad, np.ones_like(grad)
        )
        X_new = _awkward_matrices(np.random.default_rng(99))[kind]
        new_codes = codes_from_edges_matrix(X_new, edges)
        assert np.array_equal(tree.predict_codes(new_codes), tree.predict(X_new))
        assert np.array_equal(tree.predict_codes(codes), tree.predict(X))

    def test_count_free_path_matches_reference(self, rng):
        """min_samples_leaf=0 (no count channel) still matches the oracle."""
        X = _awkward_matrices(rng)["dupes"]
        grad = rng.normal(size=X.shape[0])
        codes, edges = quantile_codes_matrix(X, max_bins=32)
        params = {"max_depth": 4, "min_samples_leaf": 0, "min_child_weight": 1e-3}
        tree = Tree(**params).fit(codes, edges, grad, np.ones_like(grad))
        ref = _reference_grow(codes, edges, grad, np.ones_like(grad), **params)
        assert _canonical(tree) == ref

    @pytest.mark.parametrize("kind", ["nan", "inf", "constant", "dupes"])
    @pytest.mark.parametrize("min_samples_leaf", [0, 3])
    def test_all_rows_root_matches_an_explicit_index(self, rng, kind, min_samples_leaf):
        """No ``rows=`` (the root built from column slices) grows the same
        tree as ``rows=np.arange(n)`` (the root gathered by index)."""
        X = _awkward_matrices(rng)[kind]
        grad = rng.normal(size=X.shape[0])
        hess = 0.25 + 0.1 * rng.random(X.shape[0])
        codes, edges = quantile_codes_matrix(X, max_bins=32)
        params = {"max_depth": 5, "min_samples_leaf": min_samples_leaf}
        whole = Tree(**params).fit(codes, edges, grad, hess)
        indexed = Tree(**params).fit(
            codes, edges, grad, hess, rows=np.arange(X.shape[0])
        )
        for name in ("feature", "threshold_bin", "value", "gain", "n_samples"):
            assert np.array_equal(getattr(whole, name), getattr(indexed, name)), name


class TestFitLeafIds:
    def test_full_fit_assigns_every_row(self, rng):
        X = rng.normal(size=(500, 4))
        grad = np.where(X[:, 0] > 0, 1.0, -1.0)
        codes, edges = quantile_codes_matrix(X, max_bins=32)
        tree = Tree(max_depth=3, min_samples_leaf=1, min_child_weight=0.0).fit(
            codes, edges, grad, np.ones_like(grad)
        )
        assert np.array_equal(tree.fit_leaf_ids_, tree.apply(X))

    def test_rows_subset_marks_excluded_rows(self, rng):
        X = rng.normal(size=(600, 4))
        grad = np.where(X[:, 0] > 0, 1.0, -1.0)
        codes, edges = quantile_codes_matrix(X, max_bins=32)
        rows = np.flatnonzero(rng.random(600) < 0.5)
        tree = Tree(max_depth=3, min_samples_leaf=1, min_child_weight=0.0).fit(
            codes, edges, grad, np.ones_like(grad), rows=rows
        )
        leaf_ids = tree.fit_leaf_ids_
        mask = np.zeros(600, dtype=bool)
        mask[rows] = True
        assert (leaf_ids[~mask] == -1).all()
        assert (leaf_ids[mask] >= 0).all()
        assert np.array_equal(leaf_ids[rows], tree.apply(X[rows]))
        assert int(tree.n_samples[0]) == rows.size


class TestGrowth:
    def test_single_informative_feature(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 3))
        grad = np.where(X[:, 1] > 0, 1.0, -1.0)
        tree = _grow(X, grad, max_depth=2)
        assert 1 in tree.split_features()
        assert tree.n_leaves >= 2

    def test_pure_gradient_gives_single_leaf(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 2))
        tree = _grow(X, np.ones(100))
        assert tree.n_nodes == 1
        assert tree.n_leaves == 1

    def test_max_depth_respected(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(1000, 4))
        grad = rng.normal(size=1000)
        tree = _grow(X, grad, max_depth=2)
        # Depth-2 tree has at most 7 nodes.
        assert tree.n_nodes <= 7

    def test_invalid_depth(self):
        with pytest.raises(ConfigurationError):
            _grow(np.ones((10, 1)), np.ones(10), max_depth=0)

    def test_leaf_value_is_newton_step(self):
        X = np.array([[0.0], [0.0], [0.0]])
        grad = np.array([1.0, 2.0, 3.0])
        hess = np.array([1.0, 1.0, 1.0])
        tree = _grow(X, grad, hess, reg_lambda=1.0)
        # Single leaf: value = -G/(H+lambda) = -6/4.
        assert tree.value[0] == pytest.approx(-1.5)


class TestPredict:
    def test_prediction_reduces_gradient_objective(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(600, 3))
        target = np.sin(X[:, 0]) + 0.5 * X[:, 2]
        grad = -target  # squared-loss gradient at margin 0
        tree = _grow(X, grad, max_depth=4)
        pred = tree.predict(X)
        # The tree should approximate the target (correlation well above 0).
        corr = np.corrcoef(pred, target)[0, 1]
        assert corr > 0.7

    def test_nan_goes_right(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]] * 50, dtype=float)
        grad = np.where(X[:, 0] <= 1.0, -1.0, 1.0)
        tree = _grow(X, grad, max_depth=1)
        pred_nan = tree.predict(np.array([[np.nan]]))
        pred_big = tree.predict(np.array([[99.0]]))
        assert pred_nan[0] == pred_big[0]

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            Tree().predict(np.ones((2, 2)))

    def test_apply_returns_leaves(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 2))
        grad = np.where(X[:, 0] > 0, 1.0, -1.0)
        tree = _grow(X, grad, max_depth=2)
        leaves = tree.apply(X)
        assert (tree.feature[leaves] == -1).all()


class TestPaths:
    def test_stump_has_single_path(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(400, 3))
        grad = np.where(X[:, 2] > 0, 1.0, -1.0)
        tree = _grow(X, grad, max_depth=1)
        paths = tree.paths()
        assert len(paths) == 1
        assert paths[0].features == (2,)
        assert len(paths[0].split_values[2]) == 1

    def test_single_leaf_tree_has_no_paths(self):
        tree = _grow(np.ones((50, 2)), np.ones(50))
        assert tree.paths() == []

    def test_path_features_are_distinct_and_ordered(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(2000, 4))
        grad = np.where(X[:, 0] * X[:, 1] > 0, 1.0, -1.0)
        tree = _grow(X, grad, max_depth=4)
        for path in tree.paths():
            assert len(set(path.features)) == len(path.features)
            for f in path.features:
                assert f in path.split_values
                assert len(path.split_values[f]) >= 1

    def test_repeated_feature_pools_split_values(self):
        # A single very informative feature should be split repeatedly on
        # one path; its split_values must collect multiple thresholds.
        X = np.linspace(0, 1, 800).reshape(-1, 1)
        grad = np.sin(6 * X[:, 0])
        tree = _grow(X, grad, max_depth=3)
        paths = tree.paths()
        assert paths, "expected at least one path"
        assert any(len(p.split_values.get(0, ())) > 1 for p in paths)

    def test_interaction_appears_on_same_path(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(3000, 5))
        grad = np.where(X[:, 0] * X[:, 1] > 0, 1.0, -1.0)
        tree = _grow(X, grad, max_depth=3)
        assert any(
            {0, 1} <= set(p.features) for p in tree.paths()
        ), "interacting features should co-occur on a path"


class TestFeatureGains:
    def test_gains_positive_and_counted(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(500, 3))
        grad = np.where(X[:, 0] > 0, 1.0, -1.0)
        tree = _grow(X, grad, max_depth=3)
        gains = tree.feature_gains()
        assert 0 in gains
        total, count = gains[0]
        assert total > 0
        assert count >= 1

    def test_empty_for_single_leaf(self):
        tree = _grow(np.ones((50, 2)), np.ones(50))
        assert tree.feature_gains() == {}
