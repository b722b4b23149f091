"""Feature selection stage (§IV-C): IV filter, redundancy removal, ranking.

Three computationally-cheap stages, applied in order:

1. :func:`filter_by_information_value` — Algorithm 3. Features whose IV
   (Eq. 6, β equal-frequency bins) does not exceed α are dropped; the
   default α = 0.1 keeps "medium" predictors and above (Table I). One
   batched matrix kernel scores every column at once
   (:func:`repro.metrics.batched.information_values_matrix`).
2. :func:`remove_redundant_features` — Algorithm 4 with the intended
   semantics (see DESIGN.md): process features in decreasing IV order and
   keep a feature iff its |Pearson| with every already-kept feature is
   below θ = 0.8, so the higher-IV member of each correlated pair wins.
   Runs on the blocked incremental Gram kernel
   (:mod:`repro.core.redundancy`): candidate columns are standardized
   once, visited in decreasing-IV blocks, and correlated only against the
   growing kept panel via BLAS matmuls — O(k * |kept| * n) time and
   O((block + |kept|) * n) memory instead of the full-matrix greedy's
   O(k^2 * n) time and O(k^2) memory, with identical kept indices.
3. :func:`rank_by_importance` — order survivors by the ranking GBM's
   average split gain and truncate to the output budget.

The report also hands the driver what it needs of the fitted ranking
GBM to skip the next iteration's mining GBM: its hyperparameters, and the
paths a refit on the survivors would give
(:func:`repro.boosting.carry.carried_paths`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..boosting.carry import carried_paths, hyperparameters
from ..boosting.gbm import GradientBoostingClassifier
from ..boosting.tree import GAIN_TIE_RTOL, TreePath
from ..exceptions import DataError
from ..metrics.information import information_values
from ..runtime.failpoints import failpoint
from .redundancy import DEFAULT_BLOCK_SIZE, remove_redundant_features_blocked


@dataclass(frozen=True)
class SelectionReport:
    """Bookkeeping of one pass through the three selection stages.

    ``ranking_hyperparameters`` are the fitted stage-3 GBM's settings
    (:func:`~repro.boosting.carry.hyperparameters`), and
    ``carried_paths`` is :func:`~repro.boosting.carry.carried_paths` of
    that GBM on ``final_order``: the paths a GBM with those settings,
    refit on the survivors in ``final_order``, would give, or ``None``
    when the refit could grow other trees. The report keeps these rather
    than the model, so traces do not hold every iteration's tree arrays.
    Neither takes part in equality.
    """

    n_candidates: int
    kept_after_iv: tuple[int, ...]
    kept_after_redundancy: tuple[int, ...]
    final_order: tuple[int, ...]
    information_values: tuple[float, ...]
    ranking_hyperparameters: "dict | None" = field(
        default=None, repr=False, compare=False
    )
    carried_paths: "list[TreePath] | None" = field(
        default=None, repr=False, compare=False
    )


def information_values_safe(X: np.ndarray, y: np.ndarray, n_bins: int) -> np.ndarray:
    """Per-column IV; columns that cannot be scored (constant) get 0.

    Alias of :func:`repro.metrics.information_values`, which is the one
    guarded implementation (batched matrix kernel) shared by the metrics
    API and this selection stage.
    """
    return information_values(X, y, n_bins=n_bins)


def filter_by_information_value(
    X: np.ndarray,
    y: np.ndarray,
    alpha: float,
    n_bins: int,
    min_keep: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 3: keep columns with ``IV > alpha``.

    Returns ``(kept_indices, ivs_of_all_columns)``. If the threshold would
    empty the pool the top ``min_keep`` columns by IV are retained instead
    (the deployed system must always emit *some* features).
    """
    if X.ndim != 2 or X.shape[1] == 0:
        raise DataError("filter_by_information_value expects a non-empty matrix")
    ivs = information_values_safe(X, y, n_bins)
    kept = np.flatnonzero(ivs > alpha)
    if kept.size < min_keep:
        kept = np.argsort(-ivs)[:min_keep]
        kept.sort()
    return kept, ivs


def remove_redundant_features(
    X: np.ndarray,
    ivs: np.ndarray,
    theta: float,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> np.ndarray:
    """Algorithm 4 (intended semantics): greedy de-correlation by IV.

    Features are visited in decreasing IV order; a feature is kept iff its
    absolute Pearson correlation with every feature kept so far is at most
    ``theta``. Ties in IV break by column order for determinism.

    Runs on the blocked incremental kernel
    (:func:`repro.core.redundancy.remove_redundant_features_blocked`),
    which never materializes the k x k correlation matrix but returns the
    exact kept set the full-matrix greedy would.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != np.asarray(ivs).ravel().size:
        raise DataError("ivs length must match number of columns")
    return remove_redundant_features_blocked(X, ivs, theta, block_size=block_size)


def rank_by_importance(
    X: np.ndarray,
    y: np.ndarray,
    n_estimators: int,
    max_depth: int,
    top_k: "int | None",
    random_state: "int | None",
) -> "tuple[np.ndarray, GradientBoostingClassifier]":
    """Stage 3: order columns by GBM average split gain, truncate to top_k.

    Columns the model never split on inherit importance 0 and sort last;
    ties break by column order. Returns ``(order, model)``: column
    indices, best first, and the fitted ranking GBM.
    """
    model = GradientBoostingClassifier(
        n_estimators=n_estimators,
        max_depth=max_depth,
        random_state=random_state,
        tie_rtol=GAIN_TIE_RTOL,
    )
    model.fit(X, y)
    importance = model.feature_importances_
    order = np.lexsort((np.arange(importance.size), -importance))
    if top_k is not None:
        order = order[:top_k]
    return order, model


def select_features(
    X: np.ndarray,
    y: np.ndarray,
    alpha: float,
    iv_bins: int,
    theta: float,
    ranking_n_estimators: int,
    ranking_max_depth: int,
    max_output: "int | None",
    random_state: "int | None",
) -> SelectionReport:
    """Run the full three-stage pipeline; returns indices into ``X``."""
    # Chaos hook: lets tests kill a fit inside the selection stage.
    failpoint("selection.select")
    kept_iv, ivs = filter_by_information_value(X, y, alpha, iv_bins)
    # The blocked kernel gathers candidate columns straight from X one
    # block at a time, so the IV survivors are never fancy-index copied
    # as a whole; the only full gather left is the (much smaller)
    # redundancy-survivor matrix the ranking GBM actually fits on.
    kept_red = remove_redundant_features_blocked(
        X, ivs[kept_iv], theta, columns=kept_iv
    )
    order_local, ranking = rank_by_importance(
        X[:, kept_red],
        y,
        n_estimators=ranking_n_estimators,
        max_depth=ranking_max_depth,
        top_k=max_output,
        random_state=random_state,
    )
    final = kept_red[order_local]
    return SelectionReport(
        n_candidates=X.shape[1],
        kept_after_iv=tuple(int(i) for i in kept_iv),
        kept_after_redundancy=tuple(int(i) for i in kept_red),
        final_order=tuple(int(i) for i in final),
        information_values=tuple(float(v) for v in ivs),
        ranking_hyperparameters=hyperparameters(ranking),
        carried_paths=carried_paths(ranking, order_local),
    )
