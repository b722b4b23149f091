"""Feature generation stage (§IV-B): mine, rank, and apply.

Three steps, mirroring the paper exactly:

1. **Mine feature combination relations** — train the small XGBoost-style
   model, read off every root→leaf-parent path, and form candidate
   combinations from the distinct split features on each path (subsets of
   size 1..``max_combination_size``). Combinations recurring on several
   paths are merged, pooling their split values.
2. **Sort feature combinations** (Algorithm 2) — partition training rows
   by each combination's split values and rank combinations by the
   information gain ratio of the induced partition; keep the top γ.
3. **Generate features** — apply each operator of matching arity to each
   surviving combination. Non-commutative operators are applied to every
   ordered arrangement (the paper treats ``÷`` as multiple operators).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations as iter_combinations
from itertools import permutations as iter_permutations

import numpy as np

from ..boosting.gbm import GradientBoostingClassifier
from ..boosting.tree import GAIN_TIE_RTOL, TreePath
from ..operators.base import Operator, resolve_operators
from ..operators.engine import EvalCache, batch_populate_cache
from ..operators.expressions import Applied, Expression
from ..runtime.failpoints import failpoint
from ..runtime.report import QuarantineRecord
from .scoring import score_combinations


@dataclass(frozen=True)
class Combination:
    """A candidate feature combination with pooled split values.

    ``features`` holds *current-iteration* column indices (sorted);
    ``split_values[f]`` pools every split value observed for feature ``f``
    across all paths that contained this combination.
    """

    features: tuple[int, ...]
    split_values: tuple[tuple[float, ...], ...]

    @property
    def size(self) -> int:
        return len(self.features)


@dataclass(frozen=True)
class RankedCombination:
    """A combination together with its Algorithm 2 score."""

    combination: Combination
    gain_ratio: float


def mining_model(
    n_estimators: int,
    max_depth: int,
    learning_rate: float,
    random_state: "int | None",
) -> GradientBoostingClassifier:
    """The unfitted path-mining GBM (Algorithm 1 line 3)."""
    return GradientBoostingClassifier(
        n_estimators=n_estimators,
        max_depth=max_depth,
        learning_rate=learning_rate,
        random_state=random_state,
        tie_rtol=GAIN_TIE_RTOL,
    )


def fit_mining_model(
    X: np.ndarray,
    y: np.ndarray,
    n_estimators: int,
    max_depth: int,
    learning_rate: float,
    random_state: "int | None",
) -> GradientBoostingClassifier:
    """Train the path-mining GBM (Algorithm 1 line 3)."""
    model = mining_model(n_estimators, max_depth, learning_rate, random_state)
    model.fit(X, y)
    return model


def combinations_from_paths(
    paths: "list[TreePath]",
    max_size: int = 2,
) -> list[Combination]:
    """Form merged candidate combinations from tree paths (line 4).

    Every subset (size 1..``max_size``) of each path's distinct split
    features is a candidate; identical subsets from different paths are
    merged by pooling split values, which is why the realized search space
    is far below the worst case of Eq. (5).
    """
    pooled: dict[tuple[int, ...], dict[int, set[float]]] = {}
    for path in paths:
        feats = path.features
        for size in range(1, min(max_size, len(feats)) + 1):
            for subset in iter_combinations(sorted(feats), size):
                store = pooled.setdefault(subset, {f: set() for f in subset})
                for f in subset:
                    store[f].update(path.split_values.get(f, ()))
    out = []
    for subset, values in sorted(pooled.items()):
        out.append(
            Combination(
                features=subset,
                split_values=tuple(
                    tuple(sorted(values[f])) for f in subset
                ),
            )
        )
    return out


def rank_combinations(
    X: np.ndarray,
    y: np.ndarray,
    combos: "list[Combination]",
    gamma: int,
) -> list[RankedCombination]:
    """Algorithm 2: score each combination by information gain ratio.

    Rows are partitioned into ``prod_f (|V_f| + 1)`` cells by the pooled
    split values; the top-γ combinations by gain ratio survive.

    Scoring runs on the batched engine (``core.scoring``): each feature's
    pooled split values are quantized once and shared by every
    combination containing it, and entropy/gain come from vectorized
    histogram kernels. Results are identical to the scalar
    ``cells_from_split_values`` + ``information_gain_ratio`` reference.
    """
    kept = [c for c in combos if c.features]
    if not kept:
        return []
    return rank_from_scores(kept, score_combinations(X, y, kept), gamma)


def rank_from_scores(
    combos: "list[Combination]",
    ratios: np.ndarray,
    gamma: int,
) -> list[RankedCombination]:
    """Order scored combinations and keep the top γ (Algorithm 2's tail).

    Shared by :func:`rank_combinations` and the streaming fit (whose
    ratios come from merged chunk partials): descending gain ratio, ties
    broken by the feature tuple for determinism.
    """
    scored = [
        RankedCombination(combination=combo, gain_ratio=float(ratio))
        for combo, ratio in zip(combos, ratios)
    ]
    scored.sort(key=lambda r: (-r.gain_ratio, r.combination.features))
    return scored[:gamma]


def _arrangements(features: tuple[int, ...], op: Operator) -> "list[tuple[int, ...]]":
    """Argument orders to try: one for commutative ops, all otherwise."""
    if op.commutative or len(features) == 1:
        return [features]
    return [p for p in iter_permutations(features)]


def plan_features(
    ranked: "list[RankedCombination]",
    operator_names: "tuple[str, ...]",
    base_expressions: "list[Expression]",
    existing_keys: "set[str]",
) -> "list[tuple[Operator, tuple[Expression, ...]]]":
    """Enumerate the (operator, children) slots generation will fill.

    Pass 1 of :func:`generate_features`, exposed on its own because the
    streaming fit needs the plan *before* any column exists: slots come
    out in the exact nested order of the scalar reference (combination →
    operator → arrangement), deduplicated by canonical key against
    ``existing_keys`` (which is copied, never mutated) and against
    earlier slots. Evaluation and quarantine screening happen elsewhere.
    """
    operators = resolve_operators(operator_names)
    by_arity: dict[int, list[Operator]] = {}
    for op in operators:
        by_arity.setdefault(op.arity, []).append(op)
    seen = set(existing_keys)
    plan: list[tuple[Operator, tuple[Expression, ...]]] = []
    for item in ranked:
        combo = item.combination
        for op in by_arity.get(combo.size, []):
            for arrangement in _arrangements(combo.features, op):
                children = tuple(base_expressions[f] for f in arrangement)
                key = op.format(*(c.key for c in children))
                if key in seen:
                    continue
                seen.add(key)
                plan.append((op, children))
    return plan


def generate_features(
    ranked: "list[RankedCombination]",
    operator_names: "tuple[str, ...]",
    base_expressions: "list[Expression]",
    X_original: np.ndarray,
    existing_keys: "set[str]",
    cache: "EvalCache | None" = None,
    quarantine: "list[QuarantineRecord] | None" = None,
) -> list[Expression]:
    """Apply operators to ranked combinations (line 6).

    ``base_expressions[i]`` is the expression behind current column ``i``
    (a bare :class:`Var` in iteration 0), so chained iterations compose
    expressions over *original* columns, keeping Ψ serving-ready.
    Stateful operators are fitted on ``X_original`` here. Duplicate
    expressions (same canonical key, including anything already in
    ``existing_keys``) are skipped.

    Evaluation runs on the cached engine: child columns come from
    ``cache`` (an :class:`~repro.operators.engine.EvalCache` over
    ``X_original``; created here if not supplied, pass the pipeline's to
    reuse the columns downstream), and every stateless expression's
    column is computed once, by its operator's kernel on the 1-D child
    columns, and stored in the cache. Stateful operators keep their
    audited per-expression ``fit`` but draw child columns from the cache.
    Output expressions and columns are bit-identical to the scalar
    ``fit_applied`` reference path.

    ``quarantine``: pass a list to enable expression quarantine — an
    operator that raises, or whose column comes back with *no* finite
    value, is dropped from the output (one
    :class:`~repro.runtime.QuarantineRecord` appended per casualty) and
    generation continues, instead of the fault aborting the whole fit.
    With ``quarantine=None`` (the default, and the baselines' path)
    operator faults propagate exactly as before. On a fault-free run
    both modes return identical expressions with identical cached
    columns.
    """
    if cache is None:
        cache = EvalCache(X_original)

    # Pass 1: enumerate output slots in the exact nested order of the
    # scalar reference (combo -> operator -> arrangement), deduping by
    # canonical key before any evaluation happens.
    plan = plan_features(ranked, operator_names, base_expressions, existing_keys)

    if quarantine is not None:
        return _generate_with_quarantine(plan, cache, quarantine)

    # Chaos hook: in strict mode (quarantine=None) a planned expression's
    # fault aborts the fit. Fires once per planned expression so nth:K
    # targets the same expression in either mode.
    for _ in plan:
        failpoint("generation.operator")

    # Pass 2: every stateless expression's column, one kernel call each
    # on its cached child columns, stored in the cache.
    exprs: "list[Expression | None]" = [
        None if op.is_stateful else Applied(op.name, children, None)
        for op, children in plan
    ]
    batch_populate_cache(cache, [e for e in exprs if e is not None])

    # Pass 3: stateful operators — audited per-expression fit, child
    # columns drawn from the cache instead of re-evaluating the trees.
    for i, (op, children) in enumerate(plan):
        if exprs[i] is None:
            state = op.fit(*(cache.column(c) for c in children))
            exprs[i] = Applied(op.name, children, state)
    return [e for e in exprs if e is not None]


def _generate_with_quarantine(
    plan: "list[tuple[Operator, tuple[Expression, ...]]]",
    cache: EvalCache,
    quarantine: "list[QuarantineRecord]",
) -> list[Expression]:
    """Fault-isolating variant of generation passes 2 and 3.

    The stateless expressions' columns are populated first, as in the
    strict path; if one raises, population stops there and the
    per-expression loop below identifies and quarantines the *individual*
    failing expressions (and still produces the healthy ones). Every
    planned expression is then materialized once through the cache — the
    same columns the populate pass stored, so a fault-free run is
    bit-identical to the non-quarantine path — and screened: a raise or
    an all-non-finite column removes the expression from this iteration
    instead of aborting the fit. The ``generation.operator`` failpoint
    fires once per planned expression.
    """
    stateless = [
        Applied(op.name, children, None)
        for op, children in plan
        if not op.is_stateful
    ]
    try:
        batch_populate_cache(cache, stateless)
    except Exception:  # repro: ignore[except-swallow] failures re-surface per-expression below
        pass

    out: "list[Expression]" = []
    for op, children in plan:
        key = op.format(*(c.key for c in children))
        try:
            failpoint("generation.operator")
            if op.is_stateful:
                state = op.fit(*(cache.column(c) for c in children))
                expr: Expression = Applied(op.name, children, state)
            else:
                expr = Applied(op.name, children, None)
            column = cache.column(expr)
        except Exception as exc:
            quarantine.append(
                QuarantineRecord(key=key, operator=op.name, reason=repr(exc))
            )
            continue
        if column.size and not np.isfinite(column).any():
            quarantine.append(
                QuarantineRecord(
                    key=key,
                    operator=op.name,
                    reason="column is entirely non-finite",
                )
            )
            continue
        out.append(expr)
    return out


def search_space_size(n_features: int, operator_counts: "dict[int, int]") -> float:
    """Exhaustive search-space size T of Eq. (3) (ordered subsets × ops)."""
    total = 0.0
    for arity, n_ops in operator_counts.items():
        if arity > n_features:
            continue
        arrangements = 1.0
        for k in range(arity):
            arrangements *= n_features - k
        total += arrangements * n_ops
    return total


def mined_search_space_size(
    paths: "list[TreePath]",
    operator_counts: "dict[int, int]",
) -> float:
    """Path-restricted search-space bound T* of Eq. (5)."""
    total = 0.0
    for path in paths:
        p = len(path)
        for arity, n_ops in operator_counts.items():
            if arity > p:
                continue
            arrangements = 1.0
            for k in range(arity):
                arrangements *= p - k
            total += arrangements * n_ops
    return total
