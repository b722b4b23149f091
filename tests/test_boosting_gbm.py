"""Tests for repro.boosting.gbm (the XGBoost stand-in)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.boosting import GradientBoostingClassifier, GradientBoostingRegressor
from repro.boosting.tree import RowStore, Tree
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.metrics import roc_auc_score
from repro.tabular.binning import codes_from_edges_matrix, quantile_codes_matrix


@pytest.fixture
def xor_like(rng):
    X = rng.normal(size=(2000, 6))
    y = ((X[:, 0] * X[:, 1]) > 0).astype(float)
    return X, y


class TestFit:
    def test_learns_interaction(self, xor_like):
        X, y = xor_like
        model = GradientBoostingClassifier(n_estimators=40, max_depth=3).fit(
            X[:1500], y[:1500]
        )
        auc = roc_auc_score(y[1500:], model.predict_proba(X[1500:])[:, 1])
        assert auc > 0.9

    def test_more_trees_fit_train_better(self, rng):
        X = rng.normal(size=(800, 4))
        y = (X[:, 0] + 0.5 * rng.normal(size=800) > 0).astype(float)
        small = GradientBoostingClassifier(n_estimators=2).fit(X, y)
        big = GradientBoostingClassifier(n_estimators=50).fit(X, y)
        auc_small = roc_auc_score(y, small.predict_proba(X)[:, 1])
        auc_big = roc_auc_score(y, big.predict_proba(X)[:, 1])
        assert auc_big >= auc_small

    def test_deterministic_given_seed(self, xor_like):
        X, y = xor_like
        a = GradientBoostingClassifier(n_estimators=5, random_state=3).fit(X, y)
        b = GradientBoostingClassifier(n_estimators=5, random_state=3).fit(X, y)
        assert np.allclose(a.decision_function(X), b.decision_function(X))

    def test_subsample_and_colsample(self, xor_like):
        X, y = xor_like
        model = GradientBoostingClassifier(
            n_estimators=20, subsample=0.5, colsample=0.5
        ).fit(X, y)
        auc = roc_auc_score(y, model.predict_proba(X)[:, 1])
        assert auc > 0.8

    def test_nonbinary_labels_rejected(self, rng):
        X = rng.normal(size=(10, 2))
        with pytest.raises(DataError):
            GradientBoostingClassifier().fit(X, np.arange(10))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            GradientBoostingClassifier(n_estimators=0)
        with pytest.raises(ConfigurationError):
            GradientBoostingClassifier(learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            GradientBoostingClassifier(subsample=0.0)
        with pytest.raises(ConfigurationError):
            GradientBoostingClassifier(max_bins=1)


class TestEarlyStopping:
    def test_stops_before_budget(self, rng):
        X = rng.normal(size=(1200, 3))
        y = (X[:, 0] > 0).astype(float)
        model = GradientBoostingClassifier(
            n_estimators=200, early_stopping_rounds=3
        ).fit(X[:800], y[:800], eval_set=(X[800:], y[800:]))
        assert len(model.trees_) < 200
        assert model.best_iteration_ is not None

    def test_truncates_to_best_iteration(self, rng):
        """Regression: predictions must not include the trees grown after
        the best validation loss (the early_stopping_rounds overshoot)."""
        X = rng.normal(size=(1500, 4))
        y = ((X[:, 0] + 0.3 * rng.normal(size=1500)) > 0).astype(float)
        model = GradientBoostingClassifier(
            n_estimators=300, learning_rate=0.5, early_stopping_rounds=5
        ).fit(X[:1000], y[:1000], eval_set=(X[1000:], y[1000:]))
        assert len(model.trees_) == model.best_iteration_ + 1
        assert len(model.staged_decision_function(X[:20])) == len(model.trees_)

    def test_truncated_model_equals_shorter_fit(self, rng):
        """The early-stopped model predicts exactly like a fresh fit with
        n_estimators == best_iteration_ + 1 (no trailing trees linger)."""
        X = rng.normal(size=(1500, 4))
        y = ((X[:, 0] + 0.3 * rng.normal(size=1500)) > 0).astype(float)
        stopped = GradientBoostingClassifier(
            n_estimators=300, learning_rate=0.5, early_stopping_rounds=5
        ).fit(X[:1000], y[:1000], eval_set=(X[1000:], y[1000:]))
        assert len(stopped.trees_) < 300
        refit = GradientBoostingClassifier(
            n_estimators=stopped.best_iteration_ + 1, learning_rate=0.5
        ).fit(X[:1000], y[:1000])
        assert np.array_equal(
            stopped.decision_function(X), refit.decision_function(X)
        )

    def test_no_truncation_without_early_stopping(self, rng):
        X = rng.normal(size=(600, 3))
        y = (X[:, 0] > 0).astype(float)
        model = GradientBoostingClassifier(n_estimators=30).fit(
            X[:400], y[:400], eval_set=(X[400:], y[400:])
        )
        assert len(model.trees_) == 30
        assert model.best_iteration_ is not None

    def test_eval_set_shape_checked(self, rng):
        X = rng.normal(size=(100, 3))
        y = (X[:, 0] > 0).astype(float)
        with pytest.raises(DataError):
            GradientBoostingClassifier().fit(X, y, eval_set=(X[:, :2], y))


class TestBoostLoop:
    """``_boost`` is the one boosting loop: ``fit`` is its one-piece case,
    and over a store whose pieces (7 rows) do not divide the rows it
    grows the same model, subsampled or early-stopped."""

    N, K = 603, 5

    def _data(self, rng):
        n, k = self.N, self.K
        X = rng.normal(size=(n + 300, k))
        X[rng.random(size=n + 300) < 0.1, 2] = np.nan
        y = (X[:, 0] * X[:, 1] + 0.8 * rng.normal(size=n + 300) > 0).astype(float)
        return X[:n], X[n:], y[:n], y[n:]

    @staticmethod
    def _assert_same_model(ref, boosted, rows):
        assert boosted.best_iteration_ == ref.best_iteration_
        assert boosted.base_score_.hex() == ref.base_score_.hex()
        assert len(boosted.trees_) == len(ref.trees_)
        for a, b in zip(ref.trees_, boosted.trees_):
            for f in dataclasses.fields(Tree):
                va, vb = (np.asarray(getattr(t, f.name)) for t in (a, b))
                assert va.dtype == vb.dtype, f.name
                assert np.array_equal(va, vb, equal_nan=va.dtype.kind == "f"), f.name
        for X in rows:
            assert np.array_equal(ref.predict_proba(X), boosted.predict_proba(X))

    @pytest.mark.parametrize(
        "params",
        [dict(subsample=0.5), dict(early_stopping_rounds=3)],
        ids=["subsample", "early-stopping"],
    )
    def test_piecewise_rounds_equal_fit(self, rng, params):
        X, X_eval, y, y_eval = self._data(rng)

        def model():
            return GradientBoostingClassifier(
                n_estimators=40, max_depth=3, max_bins=32, random_state=3, **params
            )

        ref = model().fit(X, y, eval_set=(X_eval, y_eval))
        codes, edges = quantile_codes_matrix(X, max_bins=32)
        eval_codes = codes_from_edges_matrix(X_eval, edges)
        boosted = model()
        boosted.n_features_ = self.K
        boosted._boost(
            codes,
            edges,
            y,
            RowStore(self.N, piece_rows=7),
            eval_set=(eval_codes, y_eval),
        )
        if "early_stopping_rounds" in params:
            assert len(ref.trees_) == ref.best_iteration_ + 1 < 40
        assert ref.best_iteration_ is not None
        self._assert_same_model(ref, boosted, (X, X_eval))

    def test_replayed_rounds_resume_the_fit(self, rng):
        """Handed the first rounds' trees (a resumed streamed fit), the loop
        replays them over the codes and grows the rest bit for bit."""
        X, _, y, _ = self._data(rng)
        ref = GradientBoostingClassifier(n_estimators=6, max_depth=3).fit(X, y)
        codes, edges = quantile_codes_matrix(X, max_bins=ref.max_bins)
        resumed = GradientBoostingClassifier(n_estimators=6, max_depth=3)
        resumed.n_features_ = self.K
        grown = []
        resumed._boost(
            codes,
            edges,
            y,
            RowStore(self.N, piece_rows=7),
            trees=ref.trees_[:3],
            on_tree=lambda t, tree: grown.append(t),
        )
        assert grown == [3, 4, 5]
        self._assert_same_model(ref, resumed, (X,))


class TestMissingValueRouting:
    def _specials_matrix(self, rng, n=1200, d=5):
        X = rng.normal(size=(n, d))
        X[rng.random(size=n) < 0.1, 0] = np.inf
        X[rng.random(size=n) < 0.1, 1] = -np.inf
        X[rng.random(size=n) < 0.1, 2] = np.nan
        y = (np.nan_to_num(X[:, 3]) + 0.5 * np.nan_to_num(X[:, 4]) > 0).astype(float)
        return X, y

    def test_inf_train_predict_parity(self, rng):
        """Regression: raw-float descent must route ±inf exactly like the
        training partition did (to the missing side), so fit-time margins
        and decision_function agree bit-for-bit on ±inf data."""
        from repro.tabular.binning import quantile_codes_matrix

        X, y = self._specials_matrix(rng)
        model = GradientBoostingClassifier(n_estimators=8, max_depth=4).fit(X, y)
        codes, __ = quantile_codes_matrix(X, max_bins=model.max_bins)
        margin = np.full(X.shape[0], model.base_score_)
        for tree in model.trees_:
            margin += model.learning_rate * tree.predict_codes(codes)
        assert np.array_equal(margin, model.decision_function(X))

    def test_nonfinite_rows_follow_missing_branch(self, rng):
        X, y = self._specials_matrix(rng)
        model = GradientBoostingClassifier(n_estimators=8, max_depth=4).fit(X, y)
        probe = np.zeros((3, X.shape[1]))
        probe[0], probe[1], probe[2] = np.nan, np.inf, -np.inf
        preds = model.decision_function(probe)
        # All-non-finite rows always take the right branch, so every kind
        # of non-finite row lands in the same leaf path.
        assert preds[0] == preds[1] == preds[2]


class TestSubsamplePartitions:
    def test_dropped_rows_leave_the_partition(self, rng):
        """Regression: subsampled-away rows no longer count toward node
        sizes (they used to be zero-weighted but kept, inflating
        ``n_samples`` and ``min_samples_leaf`` checks with phantom rows)."""
        X = rng.normal(size=(2000, 5))
        y = (X[:, 0] > 0).astype(float)
        model = GradientBoostingClassifier(
            n_estimators=10, subsample=0.5, max_depth=3
        ).fit(X, y)
        for tree in model.trees_:
            root_n = int(tree.n_samples[0])
            assert root_n < 2000
            assert 700 < root_n < 1300  # ~Binomial(2000, 0.5)
            leaves = tree.feature == -1
            assert int(tree.n_samples[leaves].sum()) == root_n

    def test_leaf_sizes_respect_min_samples_leaf_on_real_rows(self, rng):
        X = rng.normal(size=(1500, 4))
        y = (X[:, 0] * X[:, 1] > 0).astype(float)
        msl = 20
        model = GradientBoostingClassifier(
            n_estimators=8, subsample=0.5, min_samples_leaf=msl, max_depth=4
        ).fit(X, y)
        for tree in model.trees_:
            leaves = (tree.feature == -1) & (tree.n_samples < tree.n_samples[0])
            # Every non-root leaf holds >= msl *actually trained* rows.
            assert (tree.n_samples[leaves] >= msl).all()

    def test_subsampled_fit_still_learns(self, rng):
        from repro.metrics import roc_auc_score

        X = rng.normal(size=(2000, 6))
        y = ((X[:, 0] * X[:, 1]) > 0).astype(float)
        model = GradientBoostingClassifier(
            n_estimators=30, max_depth=3, subsample=0.6
        ).fit(X[:1500], y[:1500])
        assert roc_auc_score(y[1500:], model.predict_proba(X[1500:])[:, 1]) > 0.85


class TestPredict:
    def test_proba_shape_and_range(self, xor_like):
        X, y = xor_like
        model = GradientBoostingClassifier(n_estimators=10).fit(X, y)
        proba = model.predict_proba(X[:50])
        assert proba.shape == (50, 2)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all() and (proba <= 1).all()

    def test_predict_is_thresholded_proba(self, xor_like):
        X, y = xor_like
        model = GradientBoostingClassifier(n_estimators=10).fit(X, y)
        proba = model.predict_proba(X[:100])[:, 1]
        assert np.array_equal(model.predict(X[:100]), (proba >= 0.5).astype(float))

    def test_wrong_width_rejected(self, xor_like):
        X, y = xor_like
        model = GradientBoostingClassifier(n_estimators=2).fit(X, y)
        with pytest.raises(DataError):
            model.predict_proba(X[:, :3])

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            GradientBoostingClassifier().predict_proba(np.ones((2, 2)))


class TestStructure:
    def test_paths_come_from_all_trees(self, xor_like):
        X, y = xor_like
        model = GradientBoostingClassifier(n_estimators=8, max_depth=3).fit(X, y)
        paths = model.paths()
        per_tree = [len(t.paths()) for t in model.trees_]
        assert len(paths) == sum(per_tree)

    def test_split_features_identify_informative(self, rng):
        X = rng.normal(size=(2000, 8))
        y = ((X[:, 2] + X[:, 5]) > 0).astype(float)
        model = GradientBoostingClassifier(n_estimators=10, max_depth=3).fit(X, y)
        split = model.split_features()
        assert 2 in split and 5 in split

    def test_importance_ranks_informative_features(self, rng):
        X = rng.normal(size=(3000, 6))
        y = (2 * X[:, 3] + 0.1 * rng.normal(size=3000) > 0).astype(float)
        model = GradientBoostingClassifier(n_estimators=20, max_depth=3).fit(X, y)
        imp = model.feature_importances_
        assert imp.shape == (6,)
        assert np.argmax(imp) == 3

    def test_importance_zero_for_unused(self, rng):
        X = rng.normal(size=(500, 3))
        X[:, 2] = 0.0  # constant, never splittable
        y = (X[:, 0] > 0).astype(float)
        model = GradientBoostingClassifier(n_estimators=5).fit(X, y)
        assert model.feature_importances_[2] == 0.0


class TestRegressor:
    def test_fits_linear_target(self, rng):
        X = rng.normal(size=(1000, 3))
        target = 2.0 * X[:, 0] - X[:, 1]
        model = GradientBoostingRegressor(n_estimators=50, max_depth=3).fit(X, target)
        pred = model.predict(X)
        resid = target - pred
        assert np.var(resid) < 0.5 * np.var(target)

    def test_accepts_continuous_targets(self, rng):
        X = rng.normal(size=(100, 2))
        target = rng.normal(size=100)  # not 0/1 labels
        model = GradientBoostingRegressor(n_estimators=3).fit(X, target)
        assert model.predict(X).shape == (100,)
