"""Carrying a fitted SAFE miner's trees over to a refit on a column subset.

Covers the near-tie flag of ``level_split_search`` and the per-node
``Tree.tie_in_feature`` both growers record, the ``tie_rtol`` every tree
reports, and ``repro.boosting.carry.carried_paths``: whenever it returns
paths, a fresh fit on the surviving columns must grow exactly those
paths, with bit-identical trees. The property test feeds it duplicate
columns, monotone copies (``2x + 1`` bins exactly like ``x``), constant
columns and NaN-heavy columns, so that it also has to refuse.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.boosting import GradientBoostingClassifier
from repro.boosting import stream as boosting_stream
from repro.boosting.carry import carried_paths, hyperparameters
from repro.boosting.stream import fit_gbm_streaming
from repro.boosting.tree import GAIN_TIE_RTOL, TreePath, level_split_search
from repro.runtime.checkpoint import StatsCheckpointStore
from repro.tabular.io import ChunkedDataset

# ----------------------------------------------------------------------
# level_split_search: the near-tie flag
# ----------------------------------------------------------------------

#: Per-bin (grad, hess, count) of one column: 3 interior edges, so bins
#: 0-3 hold values and bin 4 is the missing bin (stride 5).
STRONG = ([-4.0, -1.0, 3.0, 2.0, 0.0], [1.0, 1.0, 1.0, 1.0, 0.0], [10, 10, 10, 10, 0])
WEAK = ([-1.0, 1.0, -1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0, 0.0], [10, 10, 10, 10, 0])


def _search(*columns, tie_rtol=GAIN_TIE_RTOL, min_samples_leaf=1):
    """One-node split search over per-column ``(grad, hess, count)`` bins."""
    block = np.array(columns, dtype=np.float64).transpose(1, 0, 2)[:, None]
    g_sums = block[0, :, 0].sum(axis=-1)
    h_sums = block[1, :, 0].sum(axis=-1)
    sizes = block[2, :, 0].sum(axis=-1)
    stride = block.shape[-1]
    boundary_ok = np.ones((len(columns), stride), dtype=bool)
    boundary_ok[:, -1] = False
    return level_split_search(
        block, g_sums, h_sums, sizes, boundary_ok,
        1e-3, min_samples_leaf, 1.0, 0.0, True, tie_rtol=tie_rtol,
    )


class TestTieFlag:
    def test_unique_maximum_lies_in_its_feature(self):
        flat, gains, flags = _search(WEAK, STRONG)
        assert divmod(int(flat[0]), 5) == (1, 1)
        assert gains[0] > 0
        assert flags.tolist() == [True]

    def test_ties_among_one_features_bins_stay_inside_it(self):
        # An empty bin between bins 1 and 3: boundaries 1 and 2 see the
        # same prefix sums, so they tie exactly inside the one feature.
        gapped = (
            [-4.0, -1.0, 0.0, 3.0, 0.0],
            [1.0, 1.0, 0.0, 1.0, 0.0],
            [10, 10, 0, 10, 0],
        )
        # The same totals, with no gain anywhere (a constant grad/hess ratio).
        flat_col = ([-0.5] * 4 + [0.0], [0.75] * 4 + [0.0], [7, 8, 7, 8, 0])
        flat, _, flags = _search(flat_col, gapped)
        assert divmod(int(flat[0]), 5) == (1, 2)  # the last tied bin wins
        assert flags.tolist() == [True]

    def test_exact_tie_across_two_features(self):
        flat, _, flags = _search(STRONG, STRONG)
        assert divmod(int(flat[0]), 5) == (1, 1)  # the last tied feature wins
        assert flags.tolist() == [False]

    def test_near_tie_within_tie_rtol_across_features(self):
        # Move 2**-40 of gradient across the best boundary (every sum
        # stays exact): the second column's best gain differs from the
        # first's, but only by far less than GAIN_TIE_RTOL relative.
        eps = 2.0**-40
        nudged = ([-4.0, -1.0 + eps, 3.0 - eps, 2.0, 0.0],) + STRONG[1:]
        gain_a = _search(STRONG, tie_rtol=0.0)[1][0]
        gain_b = _search(nudged, tie_rtol=0.0)[1][0]
        assert gain_a != gain_b
        assert abs(gain_a - gain_b) < GAIN_TIE_RTOL * gain_a
        for columns in ((STRONG, nudged), (nudged, STRONG)):
            flat, _, flags = _search(*columns)
            assert divmod(int(flat[0]), 5)[0] == 1
            assert flags.tolist() == [False]

    def test_node_that_cannot_split(self):
        flat, gains, flags = _search(STRONG, WEAK, min_samples_leaf=25)
        assert gains[0] == -np.inf
        assert flags.tolist() == [False]
        pure = ([1.0] * 4 + [0.0], [1.0] * 4 + [0.0], [10, 10, 10, 10, 0])
        _, gains, flags = _search(pure, pure)
        assert gains[0] <= 0
        assert flags.tolist() == [False]

    def test_zero_tie_rtol_never_flags(self):
        _, _, flags = _search(WEAK, STRONG, tie_rtol=0.0)
        assert flags.tolist() == [False]


# ----------------------------------------------------------------------
# Trees: the per-node flag and the model's tie_rtol
# ----------------------------------------------------------------------

def _classification_data(seed, n=600, k=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, k))
    signal = X[:, 0] + 0.7 * X[:, 1] * X[:, 2] + 0.4 * rng.normal(size=n)
    return X, (signal > 0).astype(np.float64)


def _miner(**overrides):
    params = dict(
        n_estimators=4, max_depth=3, random_state=0, tie_rtol=GAIN_TIE_RTOL
    )
    params.update(overrides)
    return GradientBoostingClassifier(**params)


def _chunks(X, y, chunk_rows):
    names = tuple(f"c{j}" for j in range(X.shape[1]))
    return ChunkedDataset(names, chunk_rows, X=X, y=y).iter_chunks


class TestTreeFlags:
    def test_flags_cover_every_node_and_only_splits_are_set(self):
        X, y = _classification_data(0)
        model = _miner().fit(X, y)
        for tree in model.trees_:
            assert tree.tie_in_feature.shape == tree.feature.shape
            assert not tree.tie_in_feature[tree.feature < 0].any()
            assert tree.tie_in_feature[tree.feature >= 0].all()

    def test_duplicate_column_splits_are_not_flagged(self):
        X, y = _classification_data(1)
        X = np.column_stack([X, X[:, 0]])
        model = _miner().fit(X, y)
        root = model.trees_[0]
        assert root.feature[0] == X.shape[1] - 1  # the last duplicate wins
        assert not root.tie_in_feature[0]

    def test_zero_tie_rtol_tree_has_no_flags(self):
        X, y = _classification_data(2)
        model = _miner(tie_rtol=0.0).fit(X, y)
        assert not any(tree.tie_in_feature.any() for tree in model.trees_)

    def test_streamed_flags_match_in_memory_flags(self):
        X, y = _classification_data(3)
        ref = _miner().fit(X, y)
        streamed = _miner()
        fit_gbm_streaming(streamed, _chunks(X, y, 250), *X.shape, sketch="exact")
        for a, b in zip(ref.trees_, streamed.trees_):
            assert np.array_equal(a.tie_in_feature, b.tie_in_feature)

    def test_every_tree_reports_the_models_tie_rtol(self, tmp_path):
        """Streamed trees, fresh or restored from stats snapshots, carry the
        model's ``tie_rtol``, as in-memory trees do."""
        X, y = _classification_data(4)
        ref = _miner().fit(X, y)
        store = StatsCheckpointStore(tmp_path / "stats", "fingerprint")
        fresh = _miner()
        fit_gbm_streaming(
            fresh, _chunks(X, y, 250), *X.shape, stats=store.scoped("gbm")
        )
        resumed = _miner()
        fit_gbm_streaming(
            resumed, _chunks(X, y, 250), *X.shape, stats=store.scoped("gbm")
        )
        assert len(store.resumed) == 2 + resumed.n_estimators  # edges, codes, trees
        for model in (ref, fresh, resumed):
            assert [t.tie_rtol for t in model.trees_] == [GAIN_TIE_RTOL] * 4
        # Snapshots persist the flags: a restored tree carries like a fresh one.
        for a, b in zip(fresh.trees_, resumed.trees_):
            assert np.array_equal(a.tie_in_feature, b.tie_in_feature)
        survivors = range(X.shape[1])
        assert carried_paths(fresh, survivors) is not None
        assert carried_paths(resumed, survivors) == carried_paths(fresh, survivors)


# ----------------------------------------------------------------------
# carried_paths
# ----------------------------------------------------------------------

def _remapped(paths, survivors):
    position = {old: new for new, old in enumerate(survivors)}
    return [
        TreePath(
            features=tuple(position[f] for f in p.features),
            split_values={position[f]: v for f, v in p.split_values.items()},
        )
        for p in paths
    ]


def _assert_refit_matches(model, refit, survivors, paths):
    """The refit grew ``paths`` and trees bit-identical to ``model``'s,
    re-indexed onto ``survivors``."""
    assert refit.paths() == paths
    # Old feature index -> new one; the extra last slot maps a leaf's -1
    # to -1.
    lookup = np.full(model.n_features_ + 1, -1, dtype=np.int64)
    lookup[np.asarray(survivors)] = np.arange(len(survivors))
    assert len(refit.trees_) == len(model.trees_)
    for old, new in zip(model.trees_, refit.trees_):
        assert np.array_equal(lookup[old.feature], new.feature)
        for name in ("threshold_bin", "left", "right", "n_samples"):
            assert np.array_equal(getattr(old, name), getattr(new, name)), name
        for name in ("threshold", "value", "gain"):
            assert getattr(old, name).tobytes() == getattr(new, name).tobytes(), name


class TestCarriedPaths:
    def test_permuted_full_column_set_carries(self):
        X, y = _classification_data(5)
        model = _miner().fit(X, y)
        survivors = [3, 1, 0, 2]
        paths = carried_paths(model, survivors)
        assert paths == _remapped(model.paths(), survivors)
        _assert_refit_matches(model, _miner().fit(X[:, survivors], y), survivors, paths)

    def test_dropping_a_split_feature_refuses(self):
        X, y = _classification_data(6)
        model = _miner().fit(X, y)
        used = sorted(model.split_features())
        assert carried_paths(model, used) is not None
        assert carried_paths(model, used[1:]) is None

    @pytest.mark.parametrize(
        "overrides",
        [
            {"tie_rtol": 0.0},
            {"subsample": 0.8},
            {"colsample": 0.75},
            {"min_samples_leaf": 0},
        ],
    )
    def test_models_whose_refit_could_differ_refuse(self, overrides):
        X, y = _classification_data(7)
        model = _miner(**overrides).fit(X, y)
        assert carried_paths(model, range(X.shape[1])) is None

    @pytest.mark.parametrize(
        "survivors", [[0, 0, 1, 2, 3], [0, 1, 2, 3, 4], [-1, 0, 1, 2, 3]]
    )
    def test_invalid_survivor_positions_refuse(self, survivors):
        X, y = _classification_data(8)
        model = _miner().fit(X, y)
        assert carried_paths(model, survivors) is None

    def test_hyperparameters_ignore_fitted_state(self):
        X, y = _classification_data(9)
        fitted = _miner().fit(X, y)
        assert hyperparameters(fitted) == hyperparameters(_miner())
        assert "trees_" not in hyperparameters(fitted)
        assert hyperparameters(_miner(learning_rate=0.2)) != hyperparameters(_miner())


#: Extra column kinds the property test appends to its base columns.
KINDS = ("duplicate", "monotone", "constant", "nan_heavy", "noise")


def _property_data(seed: int, extras) -> "tuple[np.ndarray, np.ndarray]":
    rng = np.random.default_rng(seed)
    n = 400
    base = rng.normal(size=(n, 3))
    y = (
        base[:, 0] + 0.8 * base[:, 1] * base[:, 2] + 0.5 * rng.normal(size=n) > 0
    ).astype(np.float64)
    columns = [base[:, j] for j in range(3)]
    for kind, source in extras:
        src = base[:, source]
        if kind == "duplicate":
            columns.append(src.copy())
        elif kind == "monotone":
            columns.append(2.0 * src + 1.0)
        elif kind == "constant":
            columns.append(np.full(n, 1.5))
        elif kind == "nan_heavy":
            col = src.copy()
            col[rng.random(n) < 0.7] = np.nan
            columns.append(col)
        else:
            columns.append(rng.normal(size=n))
    return np.column_stack(columns), y


def _survivors(n_cols: int, subset_seed: int) -> "list[int]":
    rng = np.random.default_rng(subset_seed)
    size = int(rng.integers(1, n_cols + 1))
    return [int(j) for j in rng.permutation(n_cols)[:size]]


def _fit_in_memory(X, y):
    return _miner().fit(X, y)


def _property_case(seed, extras, subset_seed, fit):
    X, y = _property_data(seed, extras)
    model = fit(X, y)
    survivors = _survivors(X.shape[1], subset_seed)
    paths = carried_paths(model, survivors)
    if paths is not None:
        refit = fit(np.ascontiguousarray(X[:, survivors]), y)
        _assert_refit_matches(model, refit, survivors, paths)
    return paths


EXTRAS = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 2)), min_size=0, max_size=4
)


class TestCarryProperty:
    """Whenever the helper carries, a fresh fit on the survivors agrees."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        extras=EXTRAS,
        subset_seed=st.integers(0, 2**16),
    )
    # A monotone copy of the strongest column ties with the original, so
    # it must stop the carry when the survivors swap the two ([2, 1, 3, 0]).
    @example(seed=0, extras=[("monotone", 0)], subset_seed=2)
    # Survivors [0, 1] drop the split feature 2.
    @example(seed=0, extras=[], subset_seed=1)
    def test_in_memory_grower(self, seed, extras, subset_seed):
        _property_case(seed, extras, subset_seed, _fit_in_memory)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        extras=EXTRAS,
        subset_seed=st.integers(0, 2**16),
        chunk_rows=st.sampled_from([400, 97]),
    )
    @example(seed=0, extras=[("monotone", 0)], subset_seed=2, chunk_rows=97)
    @example(seed=0, extras=[], subset_seed=1, chunk_rows=400)
    def test_streamed_grower(self, seed, extras, subset_seed, chunk_rows):
        """One input chunk or several, and several scratch chunks in the
        latter case, so histograms also merge across chunks."""

        def fit(X, y):
            model = _miner()
            fit_gbm_streaming(model, _chunks(X, y, chunk_rows), *X.shape)
            return model

        with pytest.MonkeyPatch.context() as mp:
            if chunk_rows < 400:
                mp.setattr(boosting_stream, "_SCRATCH_ROWS", 131)
            _property_case(seed, extras, subset_seed, fit)

    def test_the_property_data_both_carries_and_refuses(self):
        """The generated data is not vacuous: some cases carry, and the
        duplicate and monotone copies make others refuse."""
        outcomes = {
            _property_case(seed, extras, subset_seed, _fit_in_memory) is not None
            for seed, extras, subset_seed in [
                (0, [], 3),
                (0, [("noise", 0)], 0),
                (0, [("monotone", 0)], 2),
                (1, [("duplicate", 0), ("constant", 1)], 0),
            ]
        }
        assert outcomes == {True, False}
