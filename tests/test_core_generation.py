"""Tests for the feature generation stage (§IV-B)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.boosting.tree import TreePath
from repro.core import (
    Combination,
    combinations_from_paths,
    fit_mining_model,
    generate_features,
    mined_search_space_size,
    rank_combinations,
    search_space_size,
)
from repro.operators import Var


def make_path(features, values=None):
    values = values or {f: (0.0,) for f in features}
    return TreePath(features=tuple(features), split_values=values)


class TestCombinationsFromPaths:
    def test_singletons_and_pairs(self):
        combos = combinations_from_paths([make_path([0, 1])], max_size=2)
        keys = {c.features for c in combos}
        assert keys == {(0,), (1,), (0, 1)}

    def test_merges_duplicate_combos_across_paths(self):
        p1 = make_path([0, 1], {0: (1.0,), 1: (2.0,)})
        p2 = make_path([1, 0], {0: (3.0,), 1: (2.0,)})
        combos = combinations_from_paths([p1, p2], max_size=2)
        pair = next(c for c in combos if c.features == (0, 1))
        # Split values for feature 0 pooled from both paths.
        assert set(pair.split_values[0]) == {1.0, 3.0}
        assert set(pair.split_values[1]) == {2.0}

    def test_max_size_limits_subsets(self):
        combos = combinations_from_paths([make_path([0, 1, 2])], max_size=2)
        assert max(c.size for c in combos) == 2
        combos3 = combinations_from_paths([make_path([0, 1, 2])], max_size=3)
        assert max(c.size for c in combos3) == 3

    def test_empty_paths(self):
        assert combinations_from_paths([], max_size=2) == []

    def test_deterministic_order(self):
        paths = [make_path([2, 0]), make_path([1])]
        a = combinations_from_paths(paths, 2)
        b = combinations_from_paths(paths, 2)
        assert [c.features for c in a] == [c.features for c in b]


class TestRankCombinations:
    def test_informative_combo_ranks_first(self, rng):
        X = rng.normal(size=(2000, 4))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(float)  # pure XOR
        combos = [
            Combination(features=(0, 1), split_values=((0.0,), (0.0,))),
            Combination(features=(2, 3), split_values=((0.0,), (0.0,))),
            Combination(features=(2,), split_values=((0.0,),)),
        ]
        ranked = rank_combinations(X, y, combos, gamma=3)
        assert ranked[0].combination.features == (0, 1)
        assert ranked[0].gain_ratio > ranked[1].gain_ratio

    def test_gamma_truncates(self, rng):
        X = rng.normal(size=(200, 5))
        y = (X[:, 0] > 0).astype(float)
        combos = [
            Combination(features=(i,), split_values=((0.0,),)) for i in range(5)
        ]
        ranked = rank_combinations(X, y, combos, gamma=2)
        assert len(ranked) == 2

    def test_empty_input(self, rng):
        X = rng.normal(size=(10, 2))
        y = (X[:, 0] > 0).astype(float)
        assert rank_combinations(X, y, [], gamma=5) == []


class TestGenerateFeatures:
    def _ranked_pair(self):
        from repro.core.generation import RankedCombination

        return [
            RankedCombination(
                combination=Combination(features=(0, 1), split_values=((), ())),
                gain_ratio=1.0,
            )
        ]

    def test_commutative_ops_generate_once(self, rng):
        X = rng.normal(size=(50, 3))
        base = [Var(i) for i in range(3)]
        out = generate_features(self._ranked_pair(), ("add",), base, X, set())
        assert len(out) == 1
        assert out[0].key == "(x0 + x1)"

    def test_noncommutative_ops_generate_both_orders(self, rng):
        X = rng.normal(size=(50, 3))
        base = [Var(i) for i in range(3)]
        out = generate_features(self._ranked_pair(), ("div",), base, X, set())
        keys = {e.key for e in out}
        assert keys == {"(x0 / x1)", "(x1 / x0)"}

    def test_paper_set_generates_six_per_pair(self, rng):
        X = rng.normal(size=(50, 3))
        base = [Var(i) for i in range(3)]
        out = generate_features(
            self._ranked_pair(), ("add", "sub", "mul", "div"), base, X, set()
        )
        assert len(out) == 6  # add, mul, 2×sub, 2×div

    def test_quarantine_keeps_zero_row_columns(self):
        """A zero-row column holds no non-finite value either: it is kept."""
        quarantine = []
        out = generate_features(
            self._ranked_pair(),
            ("add",),
            [Var(0), Var(1)],
            np.empty((0, 2)),
            set(),
            quarantine=quarantine,
        )
        assert [e.key for e in out] == ["(x0 + x1)"] and quarantine == []

    def test_existing_keys_deduped(self, rng):
        X = rng.normal(size=(50, 3))
        base = [Var(i) for i in range(3)]
        out = generate_features(
            self._ranked_pair(), ("add",), base, X, existing_keys={"(x0 + x1)"}
        )
        assert out == []

    def test_unary_ops_on_singletons(self, rng):
        from repro.core.generation import RankedCombination

        X = rng.normal(size=(50, 2))
        base = [Var(i) for i in range(2)]
        ranked = [
            RankedCombination(
                combination=Combination(features=(1,), split_values=((),)),
                gain_ratio=0.5,
            )
        ]
        out = generate_features(ranked, ("log", "square"), base, X, set())
        assert {e.key for e in out} == {"log(x1)", "square(x1)"}

    def test_composes_over_prior_expressions(self, rng):
        # Iteration >= 2: base expressions are themselves generated features.
        from repro.core.generation import RankedCombination
        from repro.operators import Applied

        X = rng.normal(size=(50, 3))
        base = [Applied("mul", (Var(0), Var(1))), Var(2)]
        ranked = [
            RankedCombination(
                combination=Combination(features=(0, 1), split_values=((), ())),
                gain_ratio=1.0,
            )
        ]
        out = generate_features(ranked, ("add",), base, X, set())
        assert out[0].key == "((x0 * x1) + x2)"
        assert out[0].original_indices() == frozenset({0, 1, 2})


class TestSearchSpaceFormulas:
    def test_eq3_pairwise(self):
        # A^2_M * |O2| = M(M-1) * 4
        assert search_space_size(10, {2: 4}) == 10 * 9 * 4

    def test_eq3_arity_exceeding_features(self):
        assert search_space_size(1, {2: 4}) == 0

    def test_eq5_sums_over_paths(self):
        paths = [make_path([0, 1]), make_path([2, 3, 4])]
        expected = (2 * 1 * 4) + (3 * 2 * 4)
        assert mined_search_space_size(paths, {2: 4}) == expected

    def test_mined_much_smaller_on_wide_data(self, rng):
        # T* << T when M is large relative to tree usage (Eq. 13's point).
        X = rng.normal(size=(1500, 60))
        y = ((X[:, 0] * X[:, 1]) > 0).astype(float)
        model = fit_mining_model(X, y, n_estimators=5, max_depth=3,
                                 learning_rate=0.3, random_state=0)
        t = search_space_size(60, {2: 4})
        combos = combinations_from_paths(model.paths(), 2)
        realized = 4 * sum(1 for c in combos if c.size == 2)
        assert realized < t / 5


class TestMiningModel:
    def test_mines_interacting_features_on_same_path(self, rng):
        X = rng.normal(size=(3000, 6))
        y = ((X[:, 2] * X[:, 4]) > 0).astype(float)
        model = fit_mining_model(X, y, n_estimators=10, max_depth=3,
                                 learning_rate=0.3, random_state=0)
        combos = combinations_from_paths(model.paths(), 2)
        assert any(c.features == (2, 4) for c in combos)
