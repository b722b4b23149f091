"""CART-style classification tree (histogram split search).

Serves three of the nine evaluation models directly (DT) or as the base
learner (RF, ET, AdaBoost). Unlike the boosting regression tree it splits
on class-impurity decrease (gini or entropy), supports sample weights
(AdaBoost), feature subsampling per split (forests), and the
random-threshold splitter (ExtraTrees).

Growth is level-order on the shared histogram substrate
(:class:`repro.boosting.histogram.NodeHistogramBuilder`): all smaller
children of one level are accumulated in a single batched pass over the
(total weight, positive weight, count) channels, and every larger
sibling's histogram comes from parent-minus-sibling subtraction. Raw
descent routes non-finite values right, matching the binning that maps
them to the per-column missing code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..boosting.histogram import (
    NodeHistogramBuilder,
    SubtractionScheduler,
    histogram_stride,
)
from ..exceptions import ConfigurationError
from ..tabular.binning import quantile_codes_matrix
from ..utils import check_random_state
from .base import (
    check_n_features,
    ensure_fitted,
    prepare_features,
    prepare_training,
    proba_from_positive,
    predict_from_proba,
)

_EPS = 1e-12


def _resolve_max_features(max_features: "int | float | str | None", n_cols: int) -> int:
    if max_features is None:
        return n_cols
    if isinstance(max_features, str):
        if max_features == "sqrt":
            return max(1, int(np.sqrt(n_cols)))
        if max_features == "log2":
            return max(1, int(np.log2(max(n_cols, 2))))
        raise ConfigurationError(f"unknown max_features {max_features!r}")
    if isinstance(max_features, float):
        if not 0 < max_features <= 1:
            raise ConfigurationError("fractional max_features must be in (0, 1]")
        return max(1, int(round(max_features * n_cols)))
    return max(1, min(int(max_features), n_cols))


def _impurity(pos: np.ndarray, tot: np.ndarray, criterion: str) -> np.ndarray:
    """Vectorized impurity of nodes given weighted positive/total mass."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(tot > 0, pos / np.maximum(tot, _EPS), 0.0)
    if criterion == "gini":
        return 2.0 * p * (1.0 - p)
    # entropy
    q = 1.0 - p
    out = np.zeros_like(p)
    nz = (p > 0) & (p < 1)
    out[nz] = -(p[nz] * np.log2(p[nz]) + q[nz] * np.log2(q[nz]))
    return out


@dataclass
class ClassificationTree:
    """Binary classification tree grown on quantile-binned columns.

    Parameters
    ----------
    criterion:
        ``"gini"`` (default, sklearn's) or ``"entropy"``.
    splitter:
        ``"best"`` scans all bin boundaries; ``"random"`` draws one random
        boundary per candidate feature (the ExtraTrees strategy).
    max_features:
        Per-split feature subsample: ``None`` (all), ``"sqrt"``,
        ``"log2"``, an int, or a float fraction.
    """

    criterion: str = "gini"
    splitter: str = "best"
    max_depth: "int | None" = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    max_features: "int | float | str | None" = None
    max_bins: int = 64
    random_state: "int | np.random.Generator | None" = 0

    feature_: np.ndarray = field(default=None, repr=False)
    threshold_: np.ndarray = field(default=None, repr=False)
    left_: np.ndarray = field(default=None, repr=False)
    right_: np.ndarray = field(default=None, repr=False)
    proba_: np.ndarray = field(default=None, repr=False)
    n_features_: int = field(default=0, repr=False)
    importance_gain_: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.criterion not in ("gini", "entropy"):
            raise ConfigurationError(f"unknown criterion {self.criterion!r}")
        if self.splitter not in ("best", "random"):
            raise ConfigurationError(f"unknown splitter {self.splitter!r}")

    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: "np.ndarray | None" = None,
    ) -> "ClassificationTree":
        X, y = prepare_training(X, y)
        n_rows, n_cols = X.shape
        if sample_weight is None:
            w = np.ones(n_rows)
        else:
            w = np.asarray(sample_weight, dtype=np.float64).ravel()
            if w.size != n_rows:
                raise ConfigurationError("sample_weight length mismatch")
            w = np.maximum(w, 0.0)
        rng = check_random_state(self.random_state)
        self.n_features_ = n_cols
        codes, edges = quantile_codes_matrix(X, max_bins=self.max_bins)
        n_sub = _resolve_max_features(self.max_features, n_cols)
        max_depth = self.max_depth if self.max_depth is not None else 10**9
        # Fixed-width histogram layout; the shared builder accumulates the
        # (total weight, positive weight, count) channels of all smaller
        # children of a level in one batched pass, and larger siblings
        # come from parent-minus-sibling subtraction.
        stride = histogram_stride(edges)
        n_edges = np.array([len(e) for e in edges], dtype=np.int64)
        boundary_ok = np.arange(stride - 1)[None, :] <= n_edges[:, None]

        wy = w * y  # weighted positive indicator
        builder = NodeHistogramBuilder(codes, stride, w, wy)
        codes_f = builder.codes
        nodes: list[dict] = []
        self.importance_gain_ = np.zeros(n_cols)

        def new_node(depth: int, idx: np.ndarray) -> int:
            w_total = float(w[idx].sum())
            pos_total = float(wy[idx].sum())
            nodes.append(
                {"feature": -1, "threshold": np.nan, "left": -1, "right": -1,
                 "proba": pos_total / w_total if w_total > 0 else 0.5,
                 "_depth": depth, "_idx": idx,
                 "_wtot": w_total, "_pos": pos_total}
            )
            return len(nodes) - 1

        def searchable(node_id: int) -> bool:
            node = nodes[node_id]
            return not (
                node["_depth"] >= max_depth
                or node["_idx"].size < self.min_samples_split
                or node["_idx"].size < 2 * self.min_samples_leaf
                or node["_pos"] <= _EPS
                or node["_pos"] >= node["_wtot"] - _EPS
            )

        root = new_node(0, np.arange(n_rows))
        all_cols = np.arange(n_cols)
        # Level state mirrors the boosting tree: up to two position-aligned
        # (node ids, histogram block) groups per level — directly-built
        # smaller children (a leading view of the build block) and
        # subtracted larger children.
        groups: "list[tuple[list[int], np.ndarray]]" = []
        if searchable(root):
            # The root holds every row: ``None`` lets the builder read the
            # column slices without a gather.
            groups = [([root], builder.build_level([None]))]
        scheduler = SubtractionScheduler(builder)
        while groups:
            scheduler.begin_level()
            for group_i, (ids, block) in enumerate(groups):
                for pos, nid in enumerate(ids):
                    node = nodes[nid]
                    idx = node["_idx"]
                    w_total = node["_wtot"]
                    pos_total = node["_pos"]
                    parent_imp = float(
                        _impurity(
                            np.array([pos_total]), np.array([w_total]), self.criterion
                        )[0]
                    )
                    hist = block[:, pos]
                    tot_l = np.cumsum(hist[0], axis=1)[:, :-1]
                    pos_l = np.cumsum(hist[1], axis=1)[:, :-1]
                    cnt_l = np.cumsum(hist[2], axis=1)[:, :-1]
                    tot_r = w_total - tot_l
                    pos_r = pos_total - pos_l
                    cnt_r = idx.size - cnt_l
                    valid = (
                        (cnt_l >= self.min_samples_leaf)
                        & (cnt_r >= self.min_samples_leaf)
                        & (tot_l > 0)
                        & (tot_r > 0)
                        & boundary_ok
                    )
                    if n_sub < n_cols:
                        keep_cols = rng.choice(all_cols, size=n_sub, replace=False)
                        col_mask = np.zeros(n_cols, dtype=bool)
                        col_mask[keep_cols] = True
                        valid &= col_mask[:, None]
                    if self.splitter == "random":
                        # ExtraTrees: one uniformly-random valid boundary
                        # per feature; the best feature still wins by gain.
                        counts = valid.sum(axis=1)
                        has = counts > 0
                        picks = np.zeros(n_cols, dtype=np.int64)
                        if has.any():
                            draw = (rng.random(n_cols) * counts).astype(np.int64)
                            draw = np.minimum(draw, np.maximum(counts - 1, 0))
                            cum = np.cumsum(valid, axis=1)
                            picks = (cum == (draw + 1)[:, None]).argmax(axis=1)
                        chosen = np.zeros_like(valid)
                        chosen[np.flatnonzero(has), picks[has]] = True
                        valid = valid & chosen
                    imp_l = _impurity(pos_l, tot_l, self.criterion)
                    imp_r = _impurity(pos_r, tot_r, self.criterion)
                    child = (tot_l * imp_l + tot_r * imp_r) / w_total
                    gains = np.where(valid, parent_imp - child, -np.inf)
                    best_flat = int(np.argmax(gains))
                    best_feat, best_bin = divmod(best_flat, stride - 1)
                    best_gain = float(gains[best_feat, best_bin])
                    if not np.isfinite(best_gain) or best_gain <= _EPS:
                        continue
                    col_edges = edges[best_feat]
                    threshold = (
                        float(col_edges[best_bin])
                        if best_bin < len(col_edges)
                        else np.inf
                    )
                    go_left = codes_f[:, best_feat].take(idx) <= best_bin
                    left_idx = idx[go_left]
                    right_idx = idx[~go_left]
                    if left_idx.size == 0 or right_idx.size == 0:
                        continue
                    node["feature"] = best_feat
                    node["threshold"] = threshold
                    self.importance_gain_[best_feat] += best_gain * w_total
                    lid = new_node(node["_depth"] + 1, left_idx)
                    rid = new_node(node["_depth"] + 1, right_idx)
                    node["left"], node["right"] = lid, rid
                    scheduler.add_split(
                        group_i,
                        pos,
                        (lid, left_idx.size, left_idx, searchable(lid)),
                        (rid, right_idx.size, right_idx, searchable(rid)),
                    )
            groups = scheduler.finish_level(groups)

        self.feature_ = np.array([n["feature"] for n in nodes], dtype=np.int64)
        self.threshold_ = np.array([n["threshold"] for n in nodes], dtype=np.float64)
        self.left_ = np.array([n["left"] for n in nodes], dtype=np.int64)
        self.right_ = np.array([n["right"] for n in nodes], dtype=np.int64)
        self.proba_ = np.array([n["proba"] for n in nodes], dtype=np.float64)
        total = self.importance_gain_.sum()
        if total > 0:
            self.importance_gain_ = self.importance_gain_ / total
        return self

    # ------------------------------------------------------------------
    def _leaf_ids(self, X: np.ndarray) -> np.ndarray:
        node_ids = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature_[node_ids] >= 0
        while active.any():
            rows = np.flatnonzero(active)
            nid = node_ids[rows]
            xv = X[rows, self.feature_[nid]]
            # Non-finite values (NaN and ±inf) take the right branch, the
            # same default direction training gave the missing-value code.
            go_left = np.isfinite(xv) & (xv <= self.threshold_[nid])
            node_ids[rows] = np.where(go_left, self.left_[nid], self.right_[nid])
            active[rows] = self.feature_[node_ids[rows]] >= 0
        return node_ids

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        ensure_fitted(self.feature_, "ClassificationTree")
        X = prepare_features(X)
        check_n_features(X, self.n_features_, "ClassificationTree")
        return proba_from_positive(self.proba_[self._leaf_ids(X)])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return predict_from_proba(self.predict_proba(X))

    @property
    def n_leaves(self) -> int:
        ensure_fitted(self.feature_, "ClassificationTree")
        return int((self.feature_ == -1).sum())

    @property
    def feature_importances_(self) -> np.ndarray:
        ensure_fitted(self.importance_gain_, "ClassificationTree")
        return self.importance_gain_


@dataclass
class DecisionTreeClassifier(ClassificationTree):
    """Public alias with sklearn-flavoured defaults (unbounded depth)."""
