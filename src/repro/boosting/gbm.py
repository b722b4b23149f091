"""Gradient boosting machine (the XGBoost stand-in).

SAFE uses this model three ways:

1. to *mine feature combinations* — the distinct split features along each
   root→leaf path of every tree (:meth:`GradientBoostingClassifier.paths`);
2. to *rank features* by average split gain
   (:attr:`GradientBoostingClassifier.feature_importances_`);
3. as one of the nine downstream evaluation classifiers (``"xgb"``).

The implementation is histogram-based second-order boosting with the
regularized split objective of Chen & Guestrin (2016): shrinkage, row
subsampling, column subsampling, and optional early stopping on a
validation set.

There is one boosting loop, :meth:`GradientBoostingClassifier._boost`,
and it runs entirely on binned codes. :meth:`~GradientBoostingClassifier.fit`
bins the matrix and the eval set and runs it over an in-memory
:class:`~repro.boosting.tree.RowStore`; the out-of-core fit
(:func:`repro.boosting.stream.fit_gbm_streaming`) supplies streamed
edges, memmapped codes, a memmap-backed store and tree snapshots and
runs the same rounds:

* the training matrix is quantile-binned once; each round's tree grows
  with histogram subtraction (only the smaller child of every split is
  accumulated — see ``boosting.tree``) and returns its fit-time leaf
  assignments, so the margin update is an indexed gather instead of a
  fresh descent over raw ``X``;
* row subsampling passes the kept row indices into the tree, so dropped
  rows are excluded from every node partition (they no longer count
  toward ``min_samples_leaf`` or histogram bins); their margin
  contribution comes from a binned descent over the pre-binned codes;
* the early-stopping eval set is binned once per fit with the training
  edges (``codes_from_edges_matrix``) and descended on integer codes each
  round — bit-identical to descending the raw floats;
* when early stopping triggers, ``trees_`` is truncated to
  ``best_iteration_ + 1``, so predictions come from the best validated
  model rather than one including the trailing ``early_stopping_rounds``
  worse rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ConfigurationError, DataError, NotFittedError
from ..tabular.binning import codes_from_edges_matrix, quantile_codes_matrix
from .histogram import compact_codes, histogram_stride
from ..utils import as_float_matrix, as_label_vector, check_random_state
from .losses import get_loss
from .tree import RowStore, Tree, TreePath


@dataclass
class GradientBoostingClassifier:
    """Binary gradient-boosted trees with logistic loss.

    Parameters mirror the common XGBoost names. Defaults are sized for the
    paper's benchmark-scale datasets; SAFE's combination-mining model uses
    a smaller configuration (see :class:`repro.core.SAFEConfig`).
    """

    n_estimators: int = 50
    learning_rate: float = 0.3
    max_depth: int = 4
    min_samples_leaf: int = 5
    min_child_weight: float = 1e-3
    reg_lambda: float = 1.0
    gamma: float = 0.0
    subsample: float = 1.0
    colsample: float = 1.0
    #: Near-tie split rule; 0 = historical strict argmax. The SAFE miners
    #: pass ``repro.boosting.tree.GAIN_TIE_RTOL``, whose per-node tie flags
    #: certify the mining-GBM carry (``repro.boosting.carry``).
    tie_rtol: float = 0.0
    max_bins: int = 64
    early_stopping_rounds: "int | None" = None
    random_state: "int | None" = 0

    trees_: list = field(default_factory=list, repr=False)
    base_score_: float = field(default=0.0, repr=False)
    n_features_: int = field(default=0, repr=False)
    best_iteration_: "int | None" = field(default=None, repr=False)
    loss_name: str = "logistic"

    def __post_init__(self) -> None:
        if self.n_estimators < 1:
            raise ConfigurationError("n_estimators must be >= 1")
        if not 0 < self.learning_rate <= 1:
            raise ConfigurationError("learning_rate must be in (0, 1]")
        if not 0 < self.subsample <= 1 or not 0 < self.colsample <= 1:
            raise ConfigurationError("subsample/colsample must be in (0, 1]")
        if self.max_bins < 2:
            raise ConfigurationError("max_bins must be >= 2")

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        eval_set: "tuple[np.ndarray, np.ndarray] | None" = None,
    ) -> "GradientBoostingClassifier":
        """Fit on ``(X, y)``; optionally early-stop on ``eval_set``.

        ``X`` is quantile-coded once and ``eval_set`` is coded once with
        the training edges; the rounds are :meth:`_boost` over one
        in-memory :class:`~repro.boosting.tree.RowStore`. With
        ``early_stopping_rounds`` set, ``trees_`` is truncated to
        ``best_iteration_ + 1`` so predictions come from the best
        validated model.
        """
        X = as_float_matrix(X)
        if self.loss_name == "logistic":
            y = as_label_vector(y, X.shape[0])
        else:
            y = np.asarray(y, dtype=np.float64).ravel()
            if y.size != X.shape[0]:
                raise DataError("X and y row mismatch")
        self.n_features_ = X.shape[1]
        codes, edges = quantile_codes_matrix(X, max_bins=self.max_bins)
        # One narrow copy for the whole fit (instead of one per tree
        # inside the histogram builder).
        stride = histogram_stride(edges)
        codes = compact_codes(codes, stride)
        if eval_set is not None:
            X_eval = as_float_matrix(eval_set[0])
            if X_eval.shape[1] != self.n_features_:
                raise DataError("eval_set feature count mismatch")
            eval_set = (
                compact_codes(codes_from_edges_matrix(X_eval, edges), stride),
                np.asarray(eval_set[1], dtype=np.float64).ravel(),
            )
        return self._boost(codes, edges, y, RowStore(X.shape[0]), eval_set=eval_set)

    def _boost(
        self,
        codes: np.ndarray,
        edges: "list[np.ndarray]",
        y: np.ndarray,
        store: RowStore,
        *,
        trees: "list[Tree] | tuple" = (),
        on_tree=None,
        eval_set: "tuple[np.ndarray, np.ndarray] | None" = None,
    ) -> "GradientBoostingClassifier":
        """The boosting rounds on ``y``'s rows binned with ``edges``.

        ``store`` (a :class:`~repro.boosting.tree.RowStore` for those
        rows) holds the margin, gradient and hessian next to the grower's
        buffers, and every pass over rows walks its pieces. ``trees`` are
        already-grown first rounds (a resumed fit): they are replayed over
        ``codes`` in round order, so the margin has the bits of an
        uninterrupted fit. ``on_tree(round, tree)`` is called once per
        newly grown tree. ``eval_set`` is ``(codes, labels)`` binned with
        ``edges``.
        """
        loss = get_loss(self.loss_name)
        rng = check_random_state(self.random_state)
        n_rows = store.n_rows
        pieces = list(store.pieces(0, n_rows))
        margin, grad, hess = (
            store.buffer(name, np.float64) for name in ("margin", "grad", "hess")
        )
        self.base_score_ = loss.base_score(y)
        self.best_iteration_ = None
        self.trees_ = list(trees)
        for lo, hi in pieces:
            margin[lo:hi] = self.base_score_
            for tree in self.trees_:
                margin[lo:hi] += self.learning_rate * tree.predict_codes(codes[lo:hi])
        if eval_set is not None:
            eval_codes, y_eval = eval_set
            eval_margin = np.full(eval_codes.shape[0], self.base_score_)
        best_eval = np.inf
        rounds_since_best = 0
        for it in range(len(self.trees_), self.n_estimators):
            for lo, hi in pieces:
                grad[lo:hi], hess[lo:hi] = loss.grad_hess(y[lo:hi], margin[lo:hi])
            rows = None
            if self.subsample < 1.0:
                keep = rng.random(n_rows) < self.subsample
                if not keep.any():
                    keep[rng.integers(0, n_rows)] = True
                rows = np.flatnonzero(keep)
            tree = self.new_tree().fit(
                codes, edges, grad, hess, rng=rng, rows=rows, store=store
            )
            self.trees_.append(tree)
            if on_tree is not None:
                on_tree(it, tree)
            # Margin update: rows in the fit partition gather their leaf;
            # rows dropped by subsampling (leaf id -1) descend the codes.
            for lo, hi in pieces:
                leaf_ids = tree.fit_leaf_ids_[lo:hi]
                if rows is not None:
                    dropped = leaf_ids < 0
                    if dropped.any():
                        leaf_ids = leaf_ids.copy()
                        leaf_ids[dropped] = tree._descend_codes(codes[lo:hi][dropped])
                margin[lo:hi] += self.learning_rate * tree.value[leaf_ids]
            tree.fit_leaf_ids_ = None
            if eval_set is not None:
                eval_margin += self.learning_rate * tree.predict_codes(eval_codes)
                eval_loss = loss.loss(y_eval, eval_margin)
                if eval_loss < best_eval - 1e-9:
                    best_eval = eval_loss
                    self.best_iteration_ = it
                    rounds_since_best = 0
                else:
                    rounds_since_best += 1
                    if (
                        self.early_stopping_rounds is not None
                        and rounds_since_best >= self.early_stopping_rounds
                    ):
                        break
        if self.early_stopping_rounds is not None and self.best_iteration_ is not None:
            # Early stopping means *stopping at the best round*: drop the
            # trailing rounds grown while validation loss was worsening.
            del self.trees_[self.best_iteration_ + 1 :]
        return self

    def new_tree(self) -> Tree:
        """An unfitted tree with this model's growth hyperparameters."""
        return Tree(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            min_child_weight=self.min_child_weight,
            reg_lambda=self.reg_lambda,
            gamma=self.gamma,
            colsample=self.colsample,
            tie_rtol=self.tie_rtol,
        )

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if not self.trees_:
            raise NotFittedError("GradientBoostingClassifier not fitted")

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw margin (log-odds for the logistic loss)."""
        self._check_fitted()
        X = as_float_matrix(X)
        if X.shape[1] != self.n_features_:
            raise DataError(
                f"X has {X.shape[1]} features, model was fit with {self.n_features_}"
            )
        margin = np.full(X.shape[0], self.base_score_)
        for tree in self.trees_:
            margin += self.learning_rate * tree.predict(X)
        return margin

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """``(n, 2)`` class probabilities."""
        loss = get_loss(self.loss_name)
        p1 = loss.transform(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(np.float64)

    # ------------------------------------------------------------------
    # Structure export (what SAFE consumes)
    # ------------------------------------------------------------------
    def paths(self) -> list[TreePath]:
        """All root→leaf-parent paths across all trees (paper's ``P``)."""
        self._check_fitted()
        out: list[TreePath] = []
        for tree in self.trees_:
            out.extend(tree.paths())
        return out

    def split_features(self) -> set[int]:
        """Union of features used as split features in any tree."""
        self._check_fitted()
        out: set[int] = set()
        for tree in self.trees_:
            out |= tree.split_features()
        return out

    def staged_decision_function(self, X: np.ndarray) -> "list[np.ndarray]":
        """Margins after each boosting round (for learning-curve plots)."""
        self._check_fitted()
        X = as_float_matrix(X)
        margin = np.full(X.shape[0], self.base_score_)
        out = []
        for tree in self.trees_:
            margin = margin + self.learning_rate * tree.predict(X)
            out.append(margin.copy())
        return out

    def dump_trees(self, feature_names: "tuple[str, ...] | None" = None) -> str:
        """Readable text dump of every tree (the interpretability view).

        Each internal node prints ``feature <= threshold`` with its gain;
        leaves print their weight contribution.
        """
        self._check_fitted()

        def name(f: int) -> str:
            if feature_names is not None and 0 <= f < len(feature_names):
                return str(feature_names[f])
            return f"x{f}"

        lines: list[str] = []
        for t_idx, tree in enumerate(self.trees_):
            lines.append(f"tree {t_idx}:")
            stack = [(0, 1)]
            while stack:
                node, depth = stack.pop()
                pad = "  " * depth
                f = int(tree.feature[node])
                if f < 0:
                    lines.append(f"{pad}leaf value={tree.value[node]:+.4f} "
                                 f"n={int(tree.n_samples[node])}")
                else:
                    lines.append(
                        f"{pad}{name(f)} <= {tree.threshold[node]:.6g} "
                        f"(gain={tree.gain[node]:.4f})"
                    )
                    stack.append((int(tree.right[node]), depth + 1))
                    stack.append((int(tree.left[node]), depth + 1))
        return "\n".join(lines)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Average gain per feature across all splits (XGBoost ``gain``)."""
        self._check_fitted()
        total = np.zeros(self.n_features_)
        count = np.zeros(self.n_features_)
        for tree in self.trees_:
            for f, (g, c) in tree.feature_gains().items():
                total[f] += g
                count[f] += c
        with np.errstate(invalid="ignore", divide="ignore"):
            avg = np.where(count > 0, total / np.maximum(count, 1), 0.0)
        return avg


@dataclass
class GradientBoostingRegressor(GradientBoostingClassifier):
    """Squared-loss variant sharing the whole training machinery."""

    loss_name: str = "squared"

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.decision_function(X)
