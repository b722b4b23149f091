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
* **trees** grow in :meth:`~repro.boosting.gbm.GradientBoostingClassifier._boost`,
  the in-memory fit's boosting loop, on plain views of the code and
  label memmaps. Its per-row state (margin, gradient, hessian) and the
  grower's per-row buffers (level row segments, gathered child sums,
  partition mask, leaf ids) come from a
  :class:`~repro.boosting.tree.RowStore` over scratch memmaps, and
  every pass over rows walks pieces of ``_SCRATCH_ROWS`` rows, carrying
  each histogram from one piece into the next. A streamed tree
  therefore equals the in-memory tree on the same rows and edges in
  every field, at any row count and ``chunk_rows``;
* a callback snapshots every grown tree, and a resumed fit hands the
  restored trees to the loop, which replays them instead of regrowing.

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


def _restored_trees(model: GradientBoostingClassifier, stats) -> "list[Tree]":
    """The first rounds' trees a killed fit snapshotted, up to the first gap."""
    trees: "list[Tree]" = []
    while stats is not None and len(trees) < model.n_estimators:
        state = stats.load(f"tree-{len(trees):04d}")
        if state is MISSING:
            break
        trees.append(_tree_from_state(model, state))
    return trees


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

    The memory-mapped scratch arrays live in the ``stats`` store's
    scratch directory, or in a private temporary directory, removed
    afterwards, when ``stats`` is ``None``. Scratch disk is
    ~``n_rows * (n_cols + 73)`` bytes (uint8 codes; labels, margin,
    gradient, hessian and the grower's five per-row buffers); resident
    memory stays O(piece + histogram state) regardless of ``n_rows``.

    The rounds are the in-memory fit's boosting loop
    (:meth:`~repro.boosting.gbm.GradientBoostingClassifier._boost`); this
    function supplies its edges, the binned codes and labels, and a
    :class:`~repro.boosting.tree.RowStore` over scratch memmaps whose
    pieces are ``_SCRATCH_ROWS`` rows.

    ``stats`` (a :class:`~repro.runtime.StatsCheckpointStore` or scoped
    view) makes the fit crash-resumable: the sketch edges, the binned
    code/label memmaps (digest-bound to a ``codes-ready`` snapshot so a
    torn scratch file is detected, not trusted), and every grown tree
    (a ``tree-NNNN`` snapshot) checkpoint as sufficient statistics. A
    resumed call restores the snapshotted trees and the loop replays
    them over the codes (the same per-element add order, hence a
    bit-identical margin) before growing the first missing tree.
    """
    _check_streamable(model)
    if n_rows < 1 or n_cols < 1:
        raise DataError("streaming fit needs n_rows >= 1 and n_cols >= 1")
    if edges is None:
        def compute_edges():
            return streamed_quantile_edges(
                chunk_iter,
                n_cols,
                model.max_bins,
                sketch=sketch,
                capacity=DEFAULT_SKETCH_CAPACITY,
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

    own_scratch = stats is None  # a store's scratch lives until it is cleared
    scratch = (
        tempfile.mkdtemp(prefix="repro-gbm-stream-")
        if own_scratch
        else stats.scratch_dir("scratch")
    )
    try:
        open_memmap = np.lib.format.open_memmap
        codes_path = f"{scratch}/codes.npy"
        y_path = f"{scratch}/y.npy"

        # A codes-ready snapshot says the binning pass completed; trust it
        # only if the scratch files still match their recorded digests
        # (a crash mid-write leaves a mismatch, which costs one re-bin).
        ready = False
        if stats is not None:
            snapshot = stats.load("codes-ready")
            if snapshot is not MISSING:
                ready = (
                    int(snapshot["n_rows"]) == n_rows
                    and int(snapshot["n_cols"]) == n_cols
                    and os.path.exists(codes_path)
                    and os.path.exists(y_path)
                    and _file_digest(codes_path) == snapshot["codes_digest"]
                    and _file_digest(y_path) == snapshot["y_digest"]
                )
                if not ready:
                    stats.note_skip(
                        "codes-ready: scratch files missing or digest "
                        "mismatch; re-binning"
                    )
        if ready:
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
            # One pass: bin each chunk against the fitted edges, validate
            # and stash the labels.
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
                        "codes_digest": _file_digest(codes_path),
                        "y_digest": _file_digest(y_path),
                    },
                )
        # The boosting loop's per-row buffers (margin, gradient, hessian
        # and the grower's), as plain views of scratch memmaps.
        store = RowStore(n_rows, _SCRATCH_ROWS, lambda name, dtype, n: np.asarray(
            open_memmap(f"{scratch}/{name}.npy", mode="w+", dtype=dtype, shape=(n,))
        ))

        def on_tree(t: int, tree: Tree) -> None:
            if stats is not None:
                stats.save(f"tree-{t:04d}", _tree_state(tree))

        model.n_features_ = n_cols
        # Plain-ndarray views of the memmaps: the same pages, without the
        # memmap subclass's wrapping of every slice and gather.
        return model._boost(
            np.asarray(codes),
            edges,
            np.asarray(y),
            store,
            trees=_restored_trees(model, stats),
            on_tree=on_tree,
        )
    finally:
        if own_scratch:
            shutil.rmtree(scratch, ignore_errors=True)
