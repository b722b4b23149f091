"""Shared machinery for the comparison methods of Section V.

RAND and IMP "follow the same feature selection process as SAFE"
(§V-A.1), so the selection pass lives here; the methods differ only in
*which* feature combinations they feed to the operators.
"""

from __future__ import annotations

from itertools import combinations as iter_combinations

import numpy as np

from ..core.generation import Combination, RankedCombination, generate_features
from ..core.selection import select_features
from ..core.transform import FeatureTransformer
from ..exceptions import DataError
from ..operators.engine import EvalCache, evaluate_forest
from ..operators.expressions import Expression, Var
from ..tabular.dataset import Dataset
from ..tabular.preprocess import clean_matrix


def pairs_to_combinations(pairs: "list[tuple[int, ...]]") -> list[RankedCombination]:
    """Wrap raw index tuples as unranked combinations (no split values)."""
    out = []
    for features in pairs:
        features = tuple(sorted(features))
        out.append(
            RankedCombination(
                combination=Combination(
                    features=features,
                    split_values=tuple(() for _ in features),
                ),
                gain_ratio=0.0,
            )
        )
    return out


def sample_combinations(
    feature_pool: "list[int]",
    size: int,
    gamma: int,
    rng: np.random.Generator,
) -> list[tuple[int, ...]]:
    """Draw up to ``gamma`` distinct size-``size`` combinations uniformly."""
    if len(feature_pool) < size:
        raise DataError(
            f"cannot form size-{size} combinations from {len(feature_pool)} features"
        )
    all_combos = list(iter_combinations(sorted(feature_pool), size))
    if gamma >= len(all_combos):
        return all_combos
    picks = rng.choice(len(all_combos), size=gamma, replace=False)
    return [all_combos[i] for i in picks]


def run_generation_and_selection(
    ranked: "list[RankedCombination]",
    operator_names: tuple[str, ...],
    train: Dataset,
    max_output: "int | None",
    iv_threshold: float,
    iv_bins: int,
    pearson_threshold: float,
    ranking_n_estimators: int,
    ranking_max_depth: int,
    random_state: "int | None",
    method_name: str,
) -> FeatureTransformer:
    """Apply operators to ``ranked`` combos, then SAFE's selection pass."""
    y = train.require_labels()
    base = [Var(i) for i in range(train.n_cols)]
    train_cache = EvalCache(train.X)
    new_exprs = generate_features(
        ranked,
        operator_names,
        base,
        train.X,
        existing_keys={e.key for e in base},
        cache=train_cache,
    )
    candidates: list[Expression] = base + new_exprs
    # The evaluate_forest block is freshly allocated (cache columns are
    # copied into it), so clean_matrix may sanitize in place.
    X_cand = clean_matrix(evaluate_forest(candidates, cache=train_cache), copy=False)
    if max_output is None:
        max_output = 2 * train.n_cols
    report = select_features(
        X_cand,
        y,
        alpha=iv_threshold,
        iv_bins=iv_bins,
        theta=pearson_threshold,
        ranking_n_estimators=ranking_n_estimators,
        ranking_max_depth=ranking_max_depth,
        max_output=max_output,
        random_state=random_state,
    )
    chosen = [candidates[i] for i in report.final_order]
    if not chosen:
        chosen = base
    return FeatureTransformer(
        expressions=tuple(chosen),
        original_names=train.names,
        metadata={"method": method_name, "n_generated": len(new_exprs)},
    )
