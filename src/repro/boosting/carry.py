"""Carry a fitted SAFE miner's trees over to a refit on a column subset.

Algorithm 1 fits iteration t+1's mining GBM on the top-M survivors of
iteration t's ranking GBM: the same rows, the same labels and, at the
:class:`~repro.core.SAFEConfig` defaults, the same hyperparameters. No
column's codes, histogram or split gains depend on which other columns
sit in the matrix: edges and codes are computed per column, the
histogram kernel runs one row-ordered ``bincount`` per column, the split
search is elementwise per (node, column, bin), child sums come from the
split column's own bins, and bins past a column's own edges are masked,
so a different histogram stride changes nothing. A refit on the
survivors therefore grows the same trees again whenever every split node

(a) splits on a surviving column, and
(b) has its near-tie set — every (feature, bin) within ``tie_rtol`` of
    the node's best gain — inside that one column,

because then neither dropping columns nor reordering the survivors
changes the pick of :func:`~repro.boosting.tree.level_split_search`.
:func:`carried_paths` checks both conditions on the per-node flags the
growers record (:attr:`~repro.boosting.tree.Tree.tie_in_feature`) and
returns the re-indexed :meth:`~repro.boosting.gbm.GradientBoostingClassifier.paths`.
This is a cache, not a second grower: fitting stays the only way to
produce paths, and a fitted model's paths are reused only when they are
provably the refit's.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .gbm import GradientBoostingClassifier
from .tree import TreePath


def hyperparameters(model: GradientBoostingClassifier) -> dict:
    """A GBM's constructor settings: every field without a trailing ``_``
    (the trailing-underscore fields hold fitted state)."""
    return {
        f.name: getattr(model, f.name)
        for f in fields(model)
        if not f.name.endswith("_")
    }


def carried_paths(
    model: GradientBoostingClassifier, survivors
) -> "list[TreePath] | None":
    """The paths a refit of ``model`` on its columns ``survivors`` would give.

    ``survivors[i]`` is the position, among ``model``'s columns, of the
    refit's column ``i``; the returned paths use the refit's indices.
    The refit must use ``model``'s hyperparameters (compare them with
    :func:`hyperparameters`), the same rows and labels, and the same
    column values and edges. Returns ``None`` unless every split node of
    every tree certifies conditions (a) and (b) of the module docstring.
    Also ``None`` for any model whose trees could change with the column
    set for another reason: ``tie_rtol == 0`` (no tie flags), row or
    column subsampling (the column draws depend on the column count),
    early stopping, ``min_samples_leaf < 1`` (a split search may then
    pick an empty-child split the grower rejects, which no flag
    records), and trees restored from snapshots without flags.
    """
    if (
        model.tie_rtol <= 0.0
        or model.subsample != 1.0  # repro: ignore[float-eq] config sentinels: 1.0 is stored verbatim, not computed
        or model.colsample != 1.0  # repro: ignore[float-eq] config sentinels: 1.0 is stored verbatim, not computed
        or model.early_stopping_rounds is not None
        or model.min_samples_leaf < 1
        or not model.trees_
    ):
        return None
    survivors = [int(s) for s in survivors]
    position = {old: new for new, old in enumerate(survivors)}
    if len(position) != len(survivors) or not all(
        0 <= s < model.n_features_ for s in survivors
    ):
        return None
    for tree in model.trees_:
        if tree.tie_in_feature is None:
            return None
        split = tree.feature >= 0
        if not tree.tie_in_feature[split].all():
            return None
        if not all(int(f) in position for f in np.unique(tree.feature[split])):
            return None
    return [
        TreePath(
            features=tuple(position[f] for f in path.features),
            split_values={position[f]: v for f, v in path.split_values.items()},
        )
        for path in model.paths()
    ]
