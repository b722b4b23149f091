"""Shared machinery for the comparison methods of Section V.

RAND and IMP "follow the same feature selection process as SAFE"
(§V-A.1): :func:`run_generation_and_selection` runs one Algorithm-1
iteration through SAFE's own in-memory row source, with the methods'
sampled combinations standing in for the mined and ranked ones. The
methods differ only in *which* feature combinations they feed to the
operators.
"""

from __future__ import annotations

from itertools import combinations as iter_combinations

import numpy as np

from ..core.config import SAFEConfig
from ..core.generation import Combination, RankedCombination
from ..core.pipeline import MatrixSource
from ..core.transform import FeatureTransformer
from ..exceptions import DataError
from ..operators.expressions import Var
from ..tabular.dataset import Dataset


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
    cfg: SAFEConfig,
    train: Dataset,
    method_name: str,
) -> FeatureTransformer:
    """One Algorithm-1 iteration on ``ranked`` instead of mined combinations.

    Runs SAFE's in-memory row source (:class:`~repro.core.pipeline.MatrixSource`)
    once: strict operator application to ``ranked`` (a faulting operator
    raises), then the three selection stages over the original and the
    generated features, with ``cfg``'s thresholds and output budget.
    """
    y = train.require_labels()
    base = [Var(i) for i in range(train.n_cols)]
    source = MatrixSource(train.X, y, cfg)
    new_exprs = source.generate(ranked, base, {e.key for e in base}, None)
    candidates = base + new_exprs
    max_output = cfg.max_output_features
    if max_output is None:
        max_output = 2 * train.n_cols
    report = source.select(candidates, max_output)
    chosen = [candidates[i] for i in report.final_order] or base
    return FeatureTransformer(
        expressions=tuple(chosen),
        original_names=train.names,
        metadata={"method": method_name, "n_generated": len(new_exprs)},
    )
