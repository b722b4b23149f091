"""Out-of-core gradient boosting: fit on row chunks at O(chunk + state) memory.

The in-memory :class:`~repro.boosting.gbm.GradientBoostingClassifier`
holds the full matrix, its binned codes, and per-node row-index arrays.
None of those fit when the training rows only exist as a chunk stream, so
the streaming grower restructures the same algorithm around *mergeable
sufficient statistics* plus a handful of flat memory-mapped scratch
arrays:

* **edges** come from per-column :class:`~repro.tabular.binning.QuantileSketch`
  partials (``sketch="exact"`` is bit-identical to the in-memory
  ``quantile_codes_matrix`` edges; ``sketch="merge"`` is the
  bounded-memory approximation);
* **codes** are written once into a Fortran-ordered uint8 memmap, so
  every later pass is a cheap page-in of O(chunk) bytes — the raw
  feature chunks are never revisited after the two up-front passes;
* growth uses the in-memory grower's histogram subtraction, driven by
  the same :class:`~repro.boosting.histogram.SubtractionScheduler`: per
  split only the smaller child's histogram is built — one chunked pass
  gathers just that child's rows into
  :func:`~repro.boosting.histogram.level_histogram_partial` (the kernel
  the in-memory builder is a one-chunk caller of) and merges the chunk
  partials with :func:`~repro.boosting.histogram.merge_histograms` —
  and the larger child's is parent minus sibling. While
  ``n_rows <= _SCRATCH_ROWS`` a built node's histogram is the same
  single row-ordered bincount the in-memory builder computes. Split
  selection is the shared :func:`~repro.boosting.tree.level_split_search`;
* per-row state (margin, gradient/hessian, current node id) lives in
  flat memmaps, worked on through plain-ndarray views and updated by
  chunked lookup-table passes; the per-node ``_idx`` arrays of the
  in-memory grower never exist.

Node numbering replicates the in-memory grower's exactly (children are
created in level split order; the shared scheduler puts the smaller,
directly-built children first in the next level, then the
subtraction-derived larger ones — decided by exact integer row counts),
so fixed-seed workloads yield structurally identical trees.
Gradient/hessian sums travel through histogram bins rather than per-row
``sum()`` calls, so leaf values and gains match the in-memory fit to
float re-association (≤1e-9 relative), not bit-for-bit.

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

from ..analysis.registry import inplace_mutator
from ..exceptions import ConfigurationError, DataError
from ..runtime.checkpoint import MISSING
from ..tabular.binning import (
    DEFAULT_SKETCH_CAPACITY,
    codes_from_edges_matrix,
    streamed_quantile_edges,
)
from ..utils import as_label_vector
from .gbm import GradientBoostingClassifier
from .histogram import (
    SubtractionScheduler,
    histogram_stride,
    level_histogram_partial,
    merge_histograms,
)
from .losses import get_loss
from .tree import Tree, level_split_search

#: Row-chunk size of the scratch-memmap passes (codes are uint8, so a
#: pass holds ~``_SCRATCH_ROWS * n_cols`` bytes of codes plus O(chunk)
#: float vectors).
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
    tree = Tree(
        max_depth=model.max_depth,
        min_samples_leaf=model.min_samples_leaf,
        min_child_weight=model.min_child_weight,
        reg_lambda=model.reg_lambda,
        gamma=model.gamma,
        colsample=model.colsample,
        tie_rtol=model.tie_rtol,
    )
    for name in _TREE_FIELDS:
        setattr(tree, name, np.asarray(state[name]))
    ties = state.get("tie_in_feature")
    tree.tie_in_feature = None if ties is None else np.asarray(ties, dtype=bool)
    tree.fit_leaf_ids_ = None
    return tree


def _tree_leaf_ids(tree: Tree, codes_block: np.ndarray) -> np.ndarray:
    """Leaf id per row of a code block, by vectorized level descent.

    Uses the same ``code <= threshold_bin`` comparison the streaming
    partition pass uses, so a replayed tree routes every row to exactly
    the leaf ``node_of_row`` held when the tree was grown.
    """
    nid = np.zeros(codes_block.shape[0], dtype=np.int64)
    pending = np.flatnonzero(tree.feature[nid] >= 0)
    while pending.size:
        cur = nid[pending]
        features = tree.feature[cur]
        go_left = (
            codes_block[pending, features] <= tree.threshold_bin[cur]
        )
        nid[pending] = np.where(go_left, tree.left[cur], tree.right[cur])
        pending = pending[tree.feature[nid[pending]] >= 0]
    return nid


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
    is ~``n_rows * (n_cols + 29)`` bytes; resident memory stays
    O(chunk + histogram state) regardless of ``n_rows``.

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
        node_of_row = open_memmap(
            f"{scratch}/node.npy", mode="w+", dtype=np.int32, shape=(n_rows,)
        )

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
        codes, y, margin, grad, hess, node_of_row = (
            np.asarray(a) for a in (codes, y, margin, grad, hess, node_of_row)
        )

        model.n_features_ = n_cols
        # base_score is a function of mean(y) for both losses; feeding the
        # streamed mean back through the loss reuses its exact clipping.
        model.base_score_ = loss.base_score(np.asarray([y_total / n_rows]))
        model.best_iteration_ = None
        for lo in range(0, n_rows, _SCRATCH_ROWS):
            margin[lo : lo + _SCRATCH_ROWS] = model.base_score_
            node_of_row[lo : lo + _SCRATCH_ROWS] = 0

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
                values = tree.value
                for lo in range(0, n_rows, _SCRATCH_ROWS):
                    hi = min(lo + _SCRATCH_ROWS, n_rows)
                    leaf_ids = _tree_leaf_ids(tree, codes[lo:hi])
                    margin[lo:hi] += model.learning_rate * values[leaf_ids]
        for t in range(start_tree, model.n_estimators):
            for lo in range(0, n_rows, _SCRATCH_ROWS):
                hi = min(lo + _SCRATCH_ROWS, n_rows)
                g, h = loss.grad_hess(y[lo:hi], margin[lo:hi])
                grad[lo:hi] = g
                hess[lo:hi] = h
            tree = _grow_tree_streaming(
                model, codes, grad, hess, node_of_row, edges, stride, n_rows
            )
            model.trees_.append(tree)
            if stats is not None:
                stats.save(f"tree-{t:04d}", _tree_state(tree))
            # After growth every row's node id is its leaf: one gather
            # updates the margin, then the ids reset for the next round.
            values = tree.value
            for lo in range(0, n_rows, _SCRATCH_ROWS):
                hi = min(lo + _SCRATCH_ROWS, n_rows)
                margin[lo:hi] += model.learning_rate * values[node_of_row[lo:hi]]
                node_of_row[lo:hi] = 0
        return model
    finally:
        if own_scratch:
            shutil.rmtree(scratch, ignore_errors=True)


class _ScratchHistogramBuilder:
    """The out-of-core :class:`~repro.boosting.histogram.NodeHistogramBuilder`
    that :class:`~repro.boosting.histogram.SubtractionScheduler` drives
    when the rows live in the scratch memmaps.

    A build handle is a node id. :meth:`build_level` makes one chunked
    pass that gathers, in row order, just the rows whose ``node_of_row``
    entry is a requested node into :func:`level_histogram_partial` and
    merges the chunk partials. The count channel is always accumulated:
    child row counts come from it.
    """

    n_channels = 3

    def __init__(self, codes, grad, hess, node_of_row, stride: int, nodes: list):
        self.codes = codes
        self.grad = grad
        self.hess = hess
        self.node_of_row = node_of_row
        self.stride = stride
        self.n_cols = codes.shape[1]
        self._nodes = nodes  # the grower's node list, for the slot table size

    def build_level(self, node_ids: "list[int]") -> np.ndarray:
        m = len(node_ids)
        if m == 0:
            return np.zeros((self.n_channels, 0, self.n_cols, self.stride))
        slot_of_node = np.full(len(self._nodes), -1, dtype=np.int64)
        slot_of_node[node_ids] = np.arange(m, dtype=np.int64) * self.stride
        n_rows = self.codes.shape[0]
        block = None  # every requested node owns rows, so some chunk adds
        for lo in range(0, n_rows, _SCRATCH_ROWS):
            hi = min(lo + _SCRATCH_ROWS, n_rows)
            slots = slot_of_node[self.node_of_row[lo:hi]]
            rows = np.flatnonzero(slots >= 0)
            if rows.size == 0:
                continue
            if rows.size == hi - lo:
                rows = None  # the whole chunk is built (the root)
            pick = slice(None) if rows is None else rows
            part = level_histogram_partial(
                self.codes[lo:hi],
                None if m == 1 else slots[pick],
                self.grad[lo:hi][pick],
                self.hess[lo:hi][pick],
                m,
                self.stride,
                with_counts=True,
                rows=rows,
            )
            block = part if block is None else merge_histograms(block, part)
        return block


@inplace_mutator
def _grow_tree_streaming(
    model: GradientBoostingClassifier,
    codes: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    node_of_row: np.ndarray,
    edges: "list[np.ndarray]",
    stride: int,
    n_rows: int,
) -> Tree:
    """Grow one tree level-order with histogram subtraction, out of core.

    In-place contract: ``node_of_row`` is the caller-owned per-row node
    assignment (a plain view of the scratch memmap); each split level
    rewrites it chunk-at-a-time (that *is* the partition pass), and the
    caller resets it between trees.

    Mirrors :meth:`Tree.fit` decision for decision — same boundary masks,
    same shared :func:`level_split_search`, and the same
    :class:`~repro.boosting.histogram.SubtractionScheduler`, so child
    numbering and next-level order (built smaller children first, then
    the subtraction-derived larger ones, decided by exact row counts)
    are the in-memory grower's. Per split only the smaller child is
    built from rows, by one chunked gather pass of
    :class:`_ScratchHistogramBuilder` after the level's partition pass;
    the larger child is parent minus sibling. While
    ``n_rows <= _SCRATCH_ROWS`` a built node's histogram is the same
    single row-ordered bincount the in-memory builder computes; child
    gradient/hessian sums and row counts come from the parent's
    histogram instead of per-row ``sum()`` calls.
    """
    lam = model.reg_lambda
    n_edges = np.array([len(e) for e in edges], dtype=np.int64)
    boundary_ok = np.arange(stride)[None, :] <= n_edges[:, None]
    # Counts are always accumulated (child sizes drive numbering parity
    # and the empty-child guard), but the split search only consults them
    # under the same condition the in-memory grower does.
    with_counts_search = model.min_samples_leaf > 0
    nodes: "list[dict]" = []

    def new_node(depth: int, g_sum: float, h_sum: float, n_samples: int) -> int:
        nodes.append(
            {
                "feature": -1,
                "threshold": np.nan,
                "threshold_bin": -1,
                "left": -1,
                "right": -1,
                "value": -g_sum / (h_sum + lam),  # repro: ignore[div-guard] h_sum >= 0 and reg_lambda > 0
                "gain": 0.0,
                "n_samples": n_samples,
                "tie_in_feature": False,
                "_depth": depth,
                "_gsum": g_sum,
                "_hsum": h_sum,
            }
        )
        return len(nodes) - 1

    def searchable(node_id: int) -> bool:
        node = nodes[node_id]
        return not (
            node["_depth"] >= model.max_depth
            or node["n_samples"] < 2 * model.min_samples_leaf
            or node["_hsum"] < 2 * model.min_child_weight
        )

    g_root = 0.0
    h_root = 0.0
    for lo in range(0, n_rows, _SCRATCH_ROWS):
        hi = min(lo + _SCRATCH_ROWS, n_rows)
        g_root += float(grad[lo:hi].sum())
        h_root += float(hess[lo:hi].sum())
    root = new_node(0, g_root, h_root, n_rows)
    builder = _ScratchHistogramBuilder(codes, grad, hess, node_of_row, stride, nodes)
    groups: "list[tuple[list[int], np.ndarray]]" = []
    if searchable(root):
        groups = [([root], builder.build_level([root]))]
    scheduler = SubtractionScheduler(builder)
    while groups:
        scheduler.begin_level()
        split_parents: "list[int]" = []
        for group_i, (ids, block) in enumerate(groups):
            best_flat, best_gains, tie_flags = level_split_search(
                block,
                np.array([nodes[i]["_gsum"] for i in ids]),
                np.array([nodes[i]["_hsum"] for i in ids]),
                np.array([float(nodes[i]["n_samples"]) for i in ids]),
                boundary_ok,
                model.min_child_weight,
                model.min_samples_leaf,
                lam,
                model.gamma,
                with_counts_search,
                tie_rtol=model.tie_rtol,
            )
            for pos, nid in enumerate(ids):
                best_gain = float(best_gains[pos])
                if not np.isfinite(best_gain) or best_gain <= 0:
                    continue
                node = nodes[nid]
                j, b = divmod(int(best_flat[pos]), stride)
                gl = float(block[0, pos, j, : b + 1].sum())
                hl = float(block[1, pos, j, : b + 1].sum())
                n_left = int(block[2, pos, j, : b + 1].sum())
                n_right = node["n_samples"] - n_left
                if n_left == 0 or n_right == 0:
                    continue
                col_edges = edges[j]
                node["feature"] = j
                node["threshold"] = (
                    float(col_edges[b]) if b < len(col_edges) else np.inf
                )
                node["threshold_bin"] = b
                node["gain"] = best_gain
                node["tie_in_feature"] = bool(tie_flags[pos])
                left_id = new_node(node["_depth"] + 1, gl, hl, n_left)
                right_id = new_node(
                    node["_depth"] + 1, node["_gsum"] - gl, node["_hsum"] - hl, n_right
                )
                node["left"] = left_id
                node["right"] = right_id
                split_parents.append(nid)
                scheduler.add_split(
                    group_i,
                    pos,
                    (left_id, n_left, left_id, searchable(left_id)),
                    (right_id, n_right, right_id, searchable(right_id)),
                )

        if split_parents:
            is_split = np.zeros(len(nodes), dtype=bool)
            feat_lut = np.zeros(len(nodes), dtype=np.int64)
            bin_lut = np.zeros(len(nodes), dtype=np.int64)
            left_lut = np.zeros(len(nodes), dtype=np.int32)
            right_lut = np.zeros(len(nodes), dtype=np.int32)
            for nid in split_parents:
                is_split[nid] = True
                feat_lut[nid] = nodes[nid]["feature"]
                bin_lut[nid] = nodes[nid]["threshold_bin"]
                left_lut[nid] = nodes[nid]["left"]
                right_lut[nid] = nodes[nid]["right"]
            for lo in range(0, n_rows, _SCRATCH_ROWS):
                hi = min(lo + _SCRATCH_ROWS, n_rows)
                nid_chunk = node_of_row[lo:hi]
                moving = np.flatnonzero(is_split[nid_chunk])
                if moving.size == 0:
                    continue
                nids = nid_chunk[moving]
                go_left = codes[lo:hi][moving, feat_lut[nids]] <= bin_lut[nids]
                nid_chunk[moving] = np.where(go_left, left_lut[nids], right_lut[nids])
        groups = scheduler.finish_level(groups)

    tree = Tree(
        max_depth=model.max_depth,
        min_samples_leaf=model.min_samples_leaf,
        min_child_weight=model.min_child_weight,
        reg_lambda=lam,
        gamma=model.gamma,
        colsample=model.colsample,
        tie_rtol=model.tie_rtol,
    )
    tree.feature = np.array([n["feature"] for n in nodes], dtype=np.int64)
    tree.threshold = np.array([n["threshold"] for n in nodes], dtype=np.float64)
    tree.threshold_bin = np.array([n["threshold_bin"] for n in nodes], dtype=np.int64)
    tree.left = np.array([n["left"] for n in nodes], dtype=np.int64)
    tree.right = np.array([n["right"] for n in nodes], dtype=np.int64)
    tree.value = np.array([n["value"] for n in nodes], dtype=np.float64)
    tree.gain = np.array([n["gain"] for n in nodes], dtype=np.float64)
    tree.n_samples = np.array([n["n_samples"] for n in nodes], dtype=np.int64)
    tree.tie_in_feature = np.array([n["tie_in_feature"] for n in nodes], dtype=bool)
    tree.fit_leaf_ids_ = None
    return tree
