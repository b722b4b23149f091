"""Tests for the CSE-cached forest-evaluation engine.

The engine (``repro.operators.engine``) must be *bit-identical* to the
audited scalar reference (``Expression.evaluate`` /
``evaluate_expressions``) — these tests assert exact equality, not
closeness — while computing every distinct subtree once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.generation import Combination, RankedCombination, generate_features
from repro.exceptions import SchemaError
from repro.operators import (
    Applied,
    EvalCache,
    Operator,
    Var,
    evaluate_expressions,
    evaluate_forest,
    fit_applied,
    get_operator,
    register_operator,
)
from repro.operators.base import _REGISTRY


def identical(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a, b, equal_nan=True)


@pytest.fixture
def X(rng):
    X = rng.normal(size=(120, 6))
    X[3, 1] = np.nan
    X[5, 2] = np.inf
    X[9, 3] = -np.inf
    return X


def build_forest(X):
    """A forest mixing stateless, stateful, learned, and domain operators
    with heavily shared subtrees."""
    shared = Applied("mul", (Var(0), Var(1)))
    logx2 = Applied("log", (Var(2),))
    forest = [
        Var(0),
        shared,
        Applied("add", (shared, logx2)),
        Applied("div", (shared, Var(3))),
        Applied("div", (Var(3), shared)),
        Applied("max3", (shared, logx2, Var(4))),
        Applied("cond", (Var(5), shared, logx2)),
        fit_applied("zscore", (shared,), X),
        fit_applied("minmax", (logx2,), X),
        fit_applied("disc_eqfreq", (Var(4),), X),
        fit_applied("groupby_avg", (Var(0), Var(1)), X),
        fit_applied("groupby_std", (shared, Var(2)), X),
        fit_applied("groupby_count", (Var(3), shared), X),
        fit_applied("ridge", (Var(0), Var(4)), X),
        fit_applied("ridge_residual", (shared, Var(4)), X),
        fit_applied("kernel_ridge", (Var(1), Var(5)), X),
        fit_applied("lag1", (shared,), X),
        fit_applied("diff1", (logx2,), X),
        fit_applied("rolling_mean5", (Var(2),), X),
        fit_applied("ewm", (shared,), X),
    ]
    return forest


class TestForestEquivalence:
    def test_bit_identical_to_scalar_reference(self, X):
        forest = build_forest(X)
        assert identical(evaluate_forest(forest, X), evaluate_expressions(forest, X))

    def test_fresh_matrix_with_nans(self, X, rng):
        forest = build_forest(X)
        X_new = rng.normal(size=(40, 6))
        X_new[0, 0] = np.nan
        assert identical(
            evaluate_forest(forest, X_new), evaluate_expressions(forest, X_new)
        )

    def test_single_row_serving(self, X):
        forest = build_forest(X)
        row = X[7]
        out = evaluate_forest(forest, row)
        assert out.shape == (1, len(forest))
        assert identical(out, evaluate_expressions(forest, row))

    def test_empty_forest(self, X):
        assert evaluate_forest([], X).shape == (X.shape[0], 0)

    def test_schema_error_on_missing_column(self, X):
        with pytest.raises(SchemaError):
            evaluate_forest([Var(99)], X)

    def test_requires_matrix_or_cache(self):
        with pytest.raises(ValueError):
            evaluate_forest([Var(0)])


class TestEvalCache:
    def test_duplicate_subtrees_computed_once(self, X):
        shared = Applied("mul", (Var(0), Var(1)))
        forest = [
            Applied("add", (shared, Var(2))),
            Applied("sub", (shared, Var(3))),
            Applied("log", (shared,)),
            Applied("div", (shared, Applied("mul", (Var(0), Var(1))))),
        ]
        cache = EvalCache(X)
        evaluate_forest(forest, cache=cache)
        # Distinct keys: shared, x0..x3, and the 4 roots — nothing more,
        # even though `shared` appears five times (once as a fresh object).
        assert len(cache) == 1 + 4 + 4

    def test_float64_cast_done_once(self):
        X32 = np.arange(12, dtype=np.float32).reshape(4, 3)
        cache = EvalCache(X32)
        assert cache.X.dtype == np.float64
        assert identical(cache.column(Var(2)), X32[:, 2].astype(np.float64))

    def test_state_mismatch_recomputes(self, rng):
        X_a = rng.normal(size=(50, 2))
        X_b = X_a + 10.0
        e_a = fit_applied("zscore", (Var(0),), X_a)
        e_b = fit_applied("zscore", (Var(0),), X_b)
        assert e_a.key == e_b.key and e_a.state != e_b.state
        cache = EvalCache(X_a)
        col_a = cache.column(e_a).copy()
        col_b = cache.column(e_b)
        assert identical(col_a, e_a.evaluate(X_a))
        assert identical(col_b, e_b.evaluate(X_a))
        assert not identical(col_a, col_b)

    def test_descendant_state_mismatch_recomputes(self, rng):
        # The guard must cover fitted state anywhere in the tree, not
        # just at the root: these two trees share key and root state.
        X_a = rng.normal(size=(50, 2))
        X_b = X_a + 10.0
        e_a = Applied("add", (fit_applied("zscore", (Var(0),), X_a), Var(1)))
        e_b = Applied("add", (fit_applied("zscore", (Var(0),), X_b), Var(1)))
        assert e_a.key == e_b.key and e_a.state == e_b.state
        cache = EvalCache(X_a)
        block = evaluate_forest([e_a, e_b], cache=cache)
        assert identical(block[:, 0], e_a.evaluate(X_a))
        assert identical(block[:, 1], e_b.evaluate(X_a))
        assert not identical(block[:, 0], block[:, 1])

    def test_rejects_matrix_and_cache_together(self, X):
        with pytest.raises(ValueError):
            evaluate_forest([Var(0)], X, cache=EvalCache(X))

    def test_retain_prunes_unreachable(self, X):
        keep = Applied("add", (Var(0), Var(1)))
        drop = Applied("mul", (Var(2), Var(3)))
        cache = EvalCache(X)
        evaluate_forest([keep, drop], cache=cache)
        cache.retain([keep])
        assert keep in cache and drop not in cache
        assert Var(0) in cache and Var(2) not in cache

    def test_third_party_expression_subclass_falls_back(self, X):
        from repro.operators import Expression

        class Constant(Expression):  # minimal exotic node: ignores the matrix
            def evaluate(self, M):
                M = np.asarray(M, dtype=np.float64)
                if M.ndim == 1:
                    M = M.reshape(1, -1)
                return np.full(M.shape[0], 7.0)

            def name(self, column_names=None):
                return "const7"

            def to_dict(self):
                return {"type": "const7"}

            def original_indices(self):
                return frozenset()

            def depth(self):
                return 0

        forest = [Applied("add", (Constant(), Var(1)))]
        assert identical(
            evaluate_forest(forest, X), evaluate_expressions(forest, X)
        )


class TestKeyCaching:
    def test_key_precomputed_at_construction(self):
        expr = Applied("div", (Var(0), Applied("log", (Var(1),))))
        assert expr.__dict__["_key"] == "(x0 / log(x1))"
        assert expr.key == "(x0 / log(x1))"

    def test_key_matches_name_rendering(self, X):
        expr = fit_applied("groupby_avg", (Var(0), Var(1)), X)
        assert expr.key == expr.name(None)

    def test_roundtrip_preserves_key(self):
        from repro.operators import expression_from_dict

        expr = Applied("sub", (Applied("sqrt", (Var(3),)), Var(0)))
        assert expression_from_dict(expr.to_dict()).key == expr.key


def _ranked(*feature_tuples):
    return [
        RankedCombination(
            combination=Combination(
                features=f, split_values=tuple(() for _ in f)
            ),
            gain_ratio=1.0 - 0.01 * i,
        )
        for i, f in enumerate(feature_tuples)
    ]


OPS = ("add", "sub", "mul", "div", "log", "zscore", "groupby_avg", "ridge")


def scalar_generate(ranked, operator_names, base, X, existing):
    """The seed's per-arrangement fit_applied loop, kept as the oracle."""
    from repro.core.generation import _arrangements
    from repro.operators import resolve_operators

    by_arity: dict[int, list] = {}
    for op in resolve_operators(operator_names):
        by_arity.setdefault(op.arity, []).append(op)
    seen = set(existing)
    out = []
    for item in ranked:
        combo = item.combination
        for op in by_arity.get(combo.size, []):
            for arrangement in _arrangements(combo.features, op):
                children = tuple(base[f] for f in arrangement)
                expr = fit_applied(op, children, X)
                if expr.key in seen:
                    continue
                seen.add(expr.key)
                out.append(expr)
    return out


class TestBatchedGeneration:
    def test_matches_scalar_reference_exactly(self, X):
        base = [Var(i) for i in range(6)]
        ranked = _ranked((0, 1), (2,), (2, 3), (4, 5), (1,))
        expected = scalar_generate(ranked, OPS, base, X, set())
        cache = EvalCache(X)
        got = generate_features(ranked, OPS, base, X, set(), cache=cache)
        assert [e.key for e in got] == [e.key for e in expected]
        assert [e.state for e in got] == [e.state for e in expected]
        assert identical(
            evaluate_forest(got, cache=cache), evaluate_expressions(expected, X)
        )

    def test_deep_base_expressions(self, X):
        # Iteration >= 1: bases are composed trees sharing subtrees.
        shared = Applied("mul", (Var(0), Var(1)))
        base = [
            Applied("add", (shared, Var(2))),
            Applied("log", (shared,)),
            fit_applied("zscore", (Var(3),), X),
            Var(4),
        ]
        ranked = _ranked((0, 1), (1, 2), (3,))
        expected = scalar_generate(ranked, OPS, base, X, set())
        got = generate_features(ranked, OPS, base, X, set())
        assert [e.key for e in got] == [e.key for e in expected]
        assert [e.state for e in got] == [e.state for e in expected]
        assert identical(
            evaluate_forest(got, X), evaluate_expressions(expected, X)
        )

    def test_dedup_against_existing_keys(self, X):
        base = [Var(i) for i in range(6)]
        ranked = _ranked((0, 1))
        got = generate_features(
            ranked, ("add", "mul"), base, X, existing_keys={"(x0 + x1)"}
        )
        assert [e.key for e in got] == ["(x0 * x1)"]

    def test_generated_columns_land_in_cache(self, X):
        base = [Var(i) for i in range(6)]
        cache = EvalCache(X)
        got = generate_features(_ranked((0, 1)), ("add", "div"), base, X, set(),
                                cache=cache)
        for expr in got:
            assert expr in cache
            assert identical(cache.column(expr), expr.evaluate(X))

    def test_non_batchable_stateless_operator_falls_back(self, X):
        class ShareOfTotalOp(Operator):
            """Row-aggregating stateless op: NOT columnwise-batchable.

            Relies on the conservative ``batchable = False`` default —
            an extension that never heard of batching must stay correct.
            """

            name = "share_of_total_test"
            arity = 1
            symbol = "share_of_total_test"

            def apply(self, state, x):
                total = np.nansum(np.abs(x))
                return x / total if total else np.zeros_like(x)

        try:
            register_operator(ShareOfTotalOp())
            base = [Var(i) for i in range(6)]
            ranked = _ranked((0,), (4,))
            ops = ("share_of_total_test", "log")
            expected = scalar_generate(ranked, ops, base, X, set())
            got = generate_features(ranked, ops, base, X, set())
            assert [e.key for e in got] == [e.key for e in expected]
            assert identical(
                evaluate_forest(got, X), evaluate_expressions(expected, X)
            )
        finally:
            _REGISTRY.pop("share_of_total_test", None)


class TestOperatorIntrospection:
    def test_is_stateful_flags(self):
        assert not get_operator("add").is_stateful
        assert not get_operator("cond").is_stateful
        assert get_operator("zscore").is_stateful
        assert get_operator("groupby_avg").is_stateful
        assert get_operator("ridge").is_stateful
        assert get_operator("lag1").is_stateful

    def test_builtin_stateless_ops_are_2d_safe(self, X):
        # The batchable=True contract: apply on an (n, m) block equals m
        # independent 1-D applies, for every registered stateless op.
        from repro.operators import available_operators

        n = X.shape[0]
        for name in available_operators():
            op = get_operator(name)
            if op.is_stateful or not op.batchable:
                continue
            cols = [np.ascontiguousarray(X[:, a % 6]) for a in range(op.arity)]
            blocks = [np.stack([c, c[::-1]], axis=1) for c in cols]
            batch = np.asarray(op.apply(None, *blocks), dtype=np.float64)
            assert batch.shape == (n, 2), name
            one = np.asarray(op.apply(None, *cols), dtype=np.float64)
            rev = np.asarray(
                op.apply(None, *[c[::-1] for c in cols]), dtype=np.float64
            )
            assert identical(batch[:, 0], one), name
            assert identical(batch[:, 1], rev), name
