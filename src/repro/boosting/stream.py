"""Out-of-core gradient boosting: fit on row chunks at O(chunk + state) memory.

The in-memory :class:`~repro.boosting.gbm.GradientBoostingClassifier`
holds the full matrix and its binned codes. Neither fits when the
training rows only exist as a chunk stream, so the streaming fit keeps
the same algorithm on *mergeable sufficient statistics* plus a handful
of flat memory-mapped scratch arrays:

* **edges** come from per-column :class:`~repro.tabular.binning.QuantileSketch`
  partials (``sketch="exact"`` is bit-identical to the in-memory
  ``quantile_codes_matrix`` edges; ``sketch="merge"`` is the
  bounded-memory approximation);
* **codes** are written once into a Fortran-ordered uint8 memmap, so
  every later pass is a cheap page-in of O(chunk) bytes — the raw
  feature chunks are never revisited after the two up-front passes;
* **trees** grow through :meth:`~repro.boosting.tree.Tree.fit` itself,
  the in-memory grower, on plain views of the code, gradient and
  hessian memmaps. Its per-row buffers (level row segments, gathered
  child sums, partition mask, leaf ids) come from a
  :class:`~repro.boosting.tree.RowStore` over scratch memmaps, and it
  walks every one in pieces of ``_SCRATCH_ROWS`` rows, carrying each
  histogram from one piece into the next. A streamed tree therefore
  equals the in-memory tree on the same rows and edges in every field,
  at any row count and ``chunk_rows``;
* per-row state (margin, gradient/hessian) lives in flat memmaps,
  worked on through plain-ndarray views and updated by chunked passes;
  the margin update gathers each row's leaf value through the tree's
  ``fit_leaf_ids_``.

Unsupported in v1 (rejected with ``ConfigurationError``): row/column
subsampling, early stopping / eval sets, and layouts needing more than
256 codes per column (the uint8 scratch).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile

import numpy as np

from ..exceptions import ConfigurationError, DataError
from ..runtime.checkpoint import MISSING
from ..tabular.binning import (
    DEFAULT_SKETCH_CAPACITY,
    codes_from_edges_matrix,
    streamed_quantile_edges,
)
from ..utils import as_label_vector
from .gbm import GradientBoostingClassifier
from .histogram import histogram_stride

# Unused here: ``perfbench/spans.py`` binds its ``boosting.stream.hist``
# span to this module attribute, so the name must stay importable.
from .histogram import level_histogram_partial  # noqa: F401
from .losses import get_loss
from .tree import RowStore, Tree

#: Rows per piece of every pass over the scratch memmaps, tree growth
#: included (codes are uint8, so a piece holds ~``_SCRATCH_ROWS * n_cols``
#: bytes of codes plus O(piece) index and float vectors). Read at call
#: time.
_SCRATCH_ROWS = 1 << 18


#: Persisted per-tree array attributes; together they define a fitted tree.
#: Snapshots also carry ``Tree.tie_in_feature``, which the mining-GBM
#: carry reads; see :func:`_tree_from_state` for snapshots without it.
_TREE_FIELDS = (
    "feature",
    "threshold",
    "threshold_bin",
    "left",
    "right",
    "value",
    "gain",
    "n_samples",
)


def _file_digest(path) -> str:
    """Content digest of a scratch file (binds snapshots to their memmaps)."""
    digest = hashlib.blake2b(digest_size=20)
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 22), b""):
            digest.update(block)
    return digest.hexdigest()


def _tree_state(tree: Tree) -> dict:
    state = {name: getattr(tree, name) for name in _TREE_FIELDS}
    state["tie_in_feature"] = tree.tie_in_feature
    return state


def _tree_from_state(model: GradientBoostingClassifier, state: dict) -> Tree:
    """A snapshotted tree, tie flags included.

    A snapshot written before the flags were persisted has no
    ``tie_in_feature``: the tree restores with ``None``, is never carried
    over, and the next iteration refits its mining GBM (same Ψ, two more
    passes), so such snapshots stay valid under the same ``STATS_FORMAT``.
    """
    tree = model.new_tree()
    for name in _TREE_FIELDS:
        setattr(tree, name, np.asarray(state[name]))
    ties = state.get("tie_in_feature")
    tree.tie_in_feature = None if ties is None else np.asarray(ties, dtype=bool)
    tree.fit_leaf_ids_ = None
    return tree


def _check_streamable(model: GradientBoostingClassifier) -> None:
    if model.subsample != 1.0 or model.colsample != 1.0:  # repro: ignore[float-eq] config sentinels: 1.0 is stored verbatim, not computed
        raise ConfigurationError(
            "streaming fit supports subsample=1.0 and colsample=1.0 only"
        )
    if model.early_stopping_rounds is not None:
        raise ConfigurationError(
            "streaming fit does not support early stopping / eval sets"
        )


def fit_gbm_streaming(
    model: GradientBoostingClassifier,
    chunk_iter,
    n_rows: int,
    n_cols: int,
    *,
    edges: "list[np.ndarray] | None" = None,
    sketch: str = "merge",
    sketch_capacity: int = DEFAULT_SKETCH_CAPACITY,
    scratch_dir: "str | None" = None,
    stats=None,
) -> GradientBoostingClassifier:
    """Fit ``model`` from a restartable chunk stream, out of core.

    ``chunk_iter`` is a zero-argument callable returning a fresh iterator
    of ``(rows, X_chunk, y_chunk)`` triples covering rows ``0..n_rows``
    in order, with ``rows`` a contiguous ``range``
    (``ChunkedDataset.iter_chunks`` fits directly). The stream is
    consumed twice (edges + code writing), or once when ``edges`` is
    given — as the streaming SAFE fit's ranking GBM does, whose edges
    come from the selection stage's ``sel-edges`` sketches; every later
    pass runs over the uint8 code memmap instead.

    ``scratch_dir`` hosts the memory-mapped scratch arrays (a private
    temporary directory, removed afterwards, when ``None``). Scratch disk
    is ~``n_rows * (n_cols + 73)`` bytes (uint8 codes; labels, margin,
    gradient, hessian and the grower's five per-row buffers); resident
    memory stays O(piece + histogram state) regardless of ``n_rows``.

    ``stats`` (a :class:`~repro.runtime.StatsCheckpointStore` or scoped
    view) makes the fit crash-resumable: the sketch edges, the binned
    code/label memmaps (digest-bound to a ``codes-ready`` snapshot so a
    torn scratch file is detected, not trusted), and every grown tree
    checkpoint as sufficient statistics. A resumed call restores the
    completed trees, rebuilds the margin by replaying them over the code
    memmap (the same per-element add order, hence bit-identical), and
    continues growing from the first missing tree.
    """
    _check_streamable(model)
    if n_rows < 1 or n_cols < 1:
        raise DataError("streaming fit needs n_rows >= 1 and n_cols >= 1")
    loss = get_loss(model.loss_name)
    if edges is None:
        def compute_edges():
            return streamed_quantile_edges(
                chunk_iter,
                n_cols,
                model.max_bins,
                sketch=sketch,
                capacity=sketch_capacity,
            )

        if stats is None:
            edges_state = compute_edges()
        else:
            edges_state = stats.run("edges", compute_edges)
        edges = edges_state[0]
    stride = histogram_stride(edges)
    if stride > 256:
        raise ConfigurationError(
            f"streaming fit needs <= 256 codes per column, got stride {stride}"
        )

    if scratch_dir is not None:
        scratch = scratch_dir
        own_scratch = False
    elif stats is not None:
        scratch = stats.scratch_dir("scratch")
        own_scratch = False  # lives until the store is cleared
    else:
        scratch = tempfile.mkdtemp(prefix="repro-gbm-stream-")
        own_scratch = True
    try:
        open_memmap = np.lib.format.open_memmap
        codes_path = f"{scratch}/codes.npy"
        y_path = f"{scratch}/y.npy"

        # A codes-ready snapshot says the binning pass completed; trust it
        # only if the scratch files still match their recorded digests
        # (a crash mid-write leaves a mismatch, which costs one re-bin).
        ready = MISSING
        if stats is not None:
            snapshot = stats.load("codes-ready")
            if snapshot is not MISSING:
                if (
                    int(snapshot["n_rows"]) == n_rows
                    and int(snapshot["n_cols"]) == n_cols
                    and os.path.exists(codes_path)
                    and os.path.exists(y_path)
                    and _file_digest(codes_path) == snapshot["codes_digest"]
                    and _file_digest(y_path) == snapshot["y_digest"]
                ):
                    ready = snapshot
                else:
                    stats.note_skip(
                        "codes-ready: scratch files missing or digest "
                        "mismatch; re-binning"
                    )
        if ready is not MISSING:
            codes = open_memmap(codes_path, mode="r+")
            y = open_memmap(y_path, mode="r+")
        else:
            codes = open_memmap(
                codes_path,
                mode="w+",
                dtype=np.uint8,
                shape=(n_rows, n_cols),
                fortran_order=True,
            )
            y = open_memmap(y_path, mode="w+", dtype=np.float64, shape=(n_rows,))
        margin = open_memmap(
            f"{scratch}/margin.npy", mode="w+", dtype=np.float64, shape=(n_rows,)
        )
        grad = open_memmap(
            f"{scratch}/grad.npy", mode="w+", dtype=np.float64, shape=(n_rows,)
        )
        hess = open_memmap(
            f"{scratch}/hess.npy", mode="w+", dtype=np.float64, shape=(n_rows,)
        )
        # The grower's per-row buffers, as plain views of scratch memmaps.
        store = RowStore(n_rows, _SCRATCH_ROWS, lambda name, dtype, n: np.asarray(
            open_memmap(f"{scratch}/{name}.npy", mode="w+", dtype=dtype, shape=(n,))
        ))

        if ready is not MISSING:
            y_total = float(ready["y_total"])
        else:
            # One pass: bin each chunk against the fitted edges, validate
            # and stash the labels, and accumulate the exact label sum
            # (sums of 0/1 floats are exact integers in any association
            # order, so the streamed base score is bit-identical to the
            # in-memory one).
            y_total = 0.0
            seen = 0
            for rows, X_chunk, y_chunk in chunk_iter():
                if y_chunk is None:
                    raise DataError("streaming fit needs labeled chunks")
                if rows.start != seen:
                    raise DataError("chunk stream must cover rows in order")
                if model.loss_name == "logistic":
                    y_chunk = as_label_vector(y_chunk, len(rows))
                else:
                    y_chunk = np.asarray(y_chunk, dtype=np.float64).ravel()
                codes[rows.start : rows.stop] = codes_from_edges_matrix(
                    np.asarray(X_chunk, dtype=np.float64), edges
                ).astype(np.uint8)
                y[rows.start : rows.stop] = y_chunk
                y_total += float(y_chunk.sum())
                seen = rows.stop
            if seen != n_rows:
                raise DataError(
                    f"chunk stream covered {seen} rows, expected {n_rows}"
                )
            if stats is not None:
                codes.flush()
                y.flush()
                stats.save(
                    "codes-ready",
                    {
                        "n_rows": n_rows,
                        "n_cols": n_cols,
                        "y_total": y_total,
                        "codes_digest": _file_digest(codes_path),
                        "y_digest": _file_digest(y_path),
                    },
                )
        # Plain-ndarray views of the memmaps: the same pages, without the
        # memmap subclass's wrapping of every slice and gather.
        codes, y, margin, grad, hess = (
            np.asarray(a) for a in (codes, y, margin, grad, hess)
        )

        model.n_features_ = n_cols
        # base_score is a function of mean(y) for both losses; feeding the
        # streamed mean back through the loss reuses its exact clipping.
        model.base_score_ = loss.base_score(np.asarray([y_total / n_rows]))
        model.best_iteration_ = None
        pieces = list(store.pieces(0, n_rows))
        for lo, hi in pieces:
            margin[lo:hi] = model.base_score_

        model.trees_ = []
        start_tree = 0
        if stats is not None:
            while start_tree < model.n_estimators:
                state = stats.load(f"tree-{start_tree:04d}")
                if state is MISSING:
                    break
                model.trees_.append(_tree_from_state(model, state))
                start_tree += 1
            # Replay the restored trees over the code memmap: the margin
            # accumulates the same learning_rate * leaf_value terms in
            # the same per-element order the uninterrupted fit used, so
            # the resumed margin is bit-identical.
            for tree in model.trees_:
                for lo, hi in pieces:
                    leaf_ids = tree._descend_codes(codes[lo:hi])
                    margin[lo:hi] += model.learning_rate * tree.value[leaf_ids]
        for t in range(start_tree, model.n_estimators):
            for lo, hi in pieces:
                g, h = loss.grad_hess(y[lo:hi], margin[lo:hi])
                grad[lo:hi] = g
                hess[lo:hi] = h
            tree = model.new_tree().fit(codes, edges, grad, hess, store=store)
            model.trees_.append(tree)
            if stats is not None:
                stats.save(f"tree-{t:04d}", _tree_state(tree))
            # Every row's fit-time leaf id is in the store: one gather
            # per piece updates the margin.
            for lo, hi in pieces:
                margin[lo:hi] += (
                    model.learning_rate * tree.value[tree.fit_leaf_ids_[lo:hi]]
                )
            tree.fit_leaf_ids_ = None
        return model
    finally:
        if own_scratch:
            shutil.rmtree(scratch, ignore_errors=True)
