"""Regression tree for gradient boosting, with root-to-leaf path export.

The tree is grown level-order (breadth-first) on pre-binned codes and
stored in flat arrays. Split search is histogram-based with the two
LightGBM-style fast paths:

* **histogram subtraction** — per split only the *smaller* child's
  histogram is accumulated from rows; the sibling's is derived as
  ``parent - smaller``. All smaller children of one level are built in a
  single batched ``bincount`` pass per column through
  :class:`~repro.boosting.histogram.NodeHistogramBuilder` (no per-node
  ``np.repeat`` weight temporaries);
* **binned fit/predict contract** — training runs entirely on integer
  codes. :meth:`Tree.fit` records the fit-time leaf assignment of every
  partitioned row (``fit_leaf_ids_``), so boosting margin updates are an
  indexed gather, and :meth:`Tree.predict_codes` descends a matrix binned
  with the *training* edges (``codes_from_edges_matrix``) by comparing
  codes against ``threshold_bin`` — bit-identical to raw-float descent.

Raw-float descent (:meth:`Tree.predict`) routes every non-finite value to
the right child, matching the binning convention that maps NaN/±inf to
the per-column missing code.

Besides prediction the tree exposes the two pieces of structure SAFE
consumes:

* :meth:`Tree.paths` — for every parent-of-leaf node ``l_j``, the distinct
  split features on the root→``l_j`` path together with each feature's set
  of split values (the paper's ``p_j`` and ``V_i``);
* :meth:`Tree.feature_gains` — per-feature total gain and split count, the
  ingredients of XGBoost's average-gain importance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ConfigurationError, DataError, NotFittedError
from .histogram import NodeHistogramBuilder, SubtractionScheduler, histogram_stride

#: The ``tie_rtol`` the SAFE fit-time miners pass to their forests (the
#: ranking/mining/importance models built in ``core.generation``,
#: ``core.selection`` and ``core.stream``). It certifies the mining-GBM
#: carry: a node whose near-tie set (see :func:`level_split_search`) lies
#: inside its split feature picks the same split in a refit on any column
#: subset that keeps the feature, and with ``tie_rtol=0`` no node is
#: certified, so :func:`repro.boosting.carry.carried_paths` always
#: refuses. Narrow enough that gains of merely *correlated* (not
#: duplicated) columns keep resolving by magnitude. Models outside the
#: SAFE fit keep the default ``tie_rtol=0``: the historical strict argmax.
GAIN_TIE_RTOL = 1e-10


@dataclass(frozen=True)
class TreePath:
    """Distinct split features along one root→leaf-parent path.

    Attributes
    ----------
    features:
        Column indices in order of first appearance on the path.
    split_values:
        Mapping from column index to the tuple of raw threshold values the
        feature splits on along this path (a feature can appear several
        times, hence a set of values — the paper's ``V_i``).
    """

    features: tuple[int, ...]
    split_values: dict[int, tuple[float, ...]]

    def __len__(self) -> int:
        return len(self.features)

    def to_dict(self) -> dict:
        """JSON form. Split values are ``float.hex()`` strings, so the
        round trip is bit-exact, ``+inf`` thresholds included."""
        return {
            "features": list(self.features),
            "split_values": [
                [f, [float(v).hex() for v in values]]
                for f, values in self.split_values.items()
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TreePath":
        """Inverse of :meth:`to_dict`."""
        return cls(
            features=tuple(int(f) for f in payload["features"]),
            split_values={
                int(f): tuple(float.fromhex(v) for v in values)
                for f, values in payload["split_values"]
            },
        )


def level_split_search(
    block: np.ndarray,
    g_sums: np.ndarray,
    h_sums: np.ndarray,
    sizes: np.ndarray,
    boundary_ok: np.ndarray,
    min_child_weight: float,
    min_samples_leaf: int,
    reg_lambda: float,
    gamma: float,
    with_counts: bool,
    col_mask: "np.ndarray | None" = None,
    tie_rtol: float = 0.0,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Best split per node from one level's histogram block.

    ``block`` is the ``(n_channels, m, n_cols, stride)`` histogram block of
    ``m`` nodes; ``g_sums``/``h_sums``/``sizes`` their per-node totals. One
    cumsum scans all candidate boundaries of all (node, feature) pairs; the
    gain arithmetic cycles the scratch prefix buffers in place
    (elementwise-identical to the per-node form) and leaves the block
    intact — it may be the subtraction parent for the next level.
    ``col_mask`` (``(m, n_cols)`` bool) optionally restricts each node's
    searchable columns (colsample).

    Returns ``(best_flat, best_gains, tie_in_feature)``: per node the
    flat ``j * stride + b`` index of the best boundary, its gain
    (``-inf`` when no boundary is valid), and whether the node's near-tie
    set lies inside the winning feature ``j`` (always ``False`` with
    ``tie_rtol=0`` and for nodes that cannot split). With the default
    ``tie_rtol=0`` the winner is the bare argmax — the historical
    behavior every model outside the SAFE fit keeps. With
    ``tie_rtol > 0`` (the SAFE miners pass :data:`GAIN_TIE_RTOL`), a
    splittable node's winner is instead the *last* flat index (in
    (feature, bin) order) whose gain is within ``tie_rtol`` relative of
    the maximum — the node's *near-tie set*. SAFE candidate pools
    routinely contain equal or near-equal columns under different
    expressions, and among them the pick is then a function of (feature,
    bin) order rather than of the last ulp.

    When the near-tie set lies inside one feature, the pick is the same
    for any column subset that keeps the feature and in any column order
    (every gain is elementwise per (node, column, bin)). That is what
    lets :func:`repro.boosting.carry.carried_paths` reuse a fitted
    model's trees for a refit on its surviving columns.
    """
    m = block.shape[1]
    prefix = np.cumsum(block, axis=-1)
    gl, hl = prefix[0], prefix[1]
    hr = h_sums[:, None, None] - hl
    valid = (hl >= min_child_weight) & (hr >= min_child_weight) & boundary_ok
    if with_counts:
        cl = prefix[2]
        valid &= cl >= min_samples_leaf
        valid &= cl <= (sizes - min_samples_leaf)[:, None, None]
    if col_mask is not None:
        valid &= col_mask[:, :, None]
    gr = g_sums[:, None, None] - gl
    np.add(hl, reg_lambda, out=hl)
    np.multiply(gl, gl, out=gl)
    np.divide(gl, hl, out=gl)
    np.add(hr, reg_lambda, out=hr)
    np.multiply(gr, gr, out=gr)
    np.divide(gr, hr, out=gr)
    gains = np.add(gl, gr, out=gl)
    np.subtract(
        gains, (g_sums * g_sums / (h_sums + reg_lambda))[:, None, None], out=gains  # repro: ignore[div-guard] hessian sums >= 0 and reg_lambda > 0
    )
    np.multiply(gains, 0.5, out=gains)
    np.subtract(gains, gamma, out=gains)
    np.logical_not(valid, out=valid)
    np.copyto(gains, -np.inf, where=valid)
    # gains is (m, n_cols, stride) contiguous, so the per-node flat argmax
    # (and any last-index tie-breaking in (feature, bin) order) costs no
    # transpose copy.
    flat_gains = gains.reshape(m, -1)
    best_flat = np.argmax(flat_gains, axis=1)
    best_gains = flat_gains[np.arange(m), best_flat]
    tie_in_feature = np.zeros(m, dtype=bool)
    if tie_rtol > 0.0:
        # Deterministic near-tie break: among boundaries within tie_rtol
        # relative of the node's max gain, take the highest flat index.
        # Only positive maxima matter (non-positive ones never split).
        splittable = best_gains > 0.0
        if np.any(splittable):
            thresholds = np.where(splittable, best_gains, np.inf) * (
                1.0 - tie_rtol
            )
            mask = flat_gains >= thresholds[:, None]
            tied_last = mask.shape[1] - 1 - np.argmax(mask[:, ::-1], axis=1)
            tied_first = np.argmax(mask, axis=1)
            stride = block.shape[-1]
            tie_in_feature = splittable & (
                tied_first // stride == tied_last // stride
            )
            best_flat = np.where(splittable, tied_last, best_flat)
            best_gains = flat_gains[np.arange(m), best_flat]
    return best_flat, best_gains, tie_in_feature


class RowStore:
    """The per-row buffers of :meth:`Tree.fit` and the piece size of its
    passes over rows.

    ``Tree.fit`` asks for every O(n_rows) buffer it uses by name — the
    two row-index buffers whose segments are a level's nodes, the buffer
    child sums are gathered into, the partition mask and the leaf ids —
    and walks each one in pieces of at most ``piece_rows`` rows, so the
    rest of its memory is O(piece). ``allocate(name, dtype, n_rows)``
    makes a buffer, once per name; by default a fresh array, and the
    whole fit is one piece. A GBM fit keeps one store for all its trees,
    with its margin, gradient and hessian; the streamed fit's
    (``boosting.stream``) maps scratch files and has bounded pieces.
    """

    def __init__(self, n_rows: int, piece_rows: "int | None" = None, allocate=None):
        self.n_rows = int(n_rows)
        self.piece_rows = max(1, self.n_rows if piece_rows is None else int(piece_rows))
        self._allocate = allocate or (lambda name, dtype, n: np.empty(n, dtype=dtype))
        self._buffers: "dict[str, np.ndarray]" = {}

    def buffer(self, name: str, dtype) -> np.ndarray:
        """The 1-D ``n_rows`` buffer called ``name``, made on first use."""
        if name not in self._buffers:
            self._buffers[name] = self._allocate(name, np.dtype(dtype), self.n_rows)
        return self._buffers[name]

    def pieces(self, start: int, stop: int):
        """``(lo, hi)`` bounds of the pieces that cover ``[start, stop)``."""
        step = self.piece_rows
        return ((lo, min(lo + step, stop)) for lo in range(start, stop, step))


@dataclass
class Tree:
    """A fitted regression tree in flat-array form.

    Internal nodes satisfy ``feature[i] >= 0``; leaves have
    ``feature[i] == -1`` and carry ``value[i]``. The split condition is
    ``x[feature] <= threshold`` → left child; missing (non-finite) values
    go right (fixed default direction).
    """

    max_depth: int = 6
    min_samples_leaf: int = 5
    min_child_weight: float = 1e-3
    reg_lambda: float = 1.0
    gamma: float = 0.0
    colsample: float = 1.0
    #: 0 keeps the historical strict argmax; the SAFE miners pass
    #: :data:`GAIN_TIE_RTOL` (see :func:`level_split_search`).
    tie_rtol: float = 0.0

    feature: np.ndarray = field(default=None, repr=False)
    threshold: np.ndarray = field(default=None, repr=False)
    threshold_bin: np.ndarray = field(default=None, repr=False)
    left: np.ndarray = field(default=None, repr=False)
    right: np.ndarray = field(default=None, repr=False)
    value: np.ndarray = field(default=None, repr=False)
    gain: np.ndarray = field(default=None, repr=False)
    n_samples: np.ndarray = field(default=None, repr=False)
    #: Per node: ``True`` when the node splits and its near-tie set lay
    #: inside the split feature (see :func:`level_split_search`);
    #: ``False`` for leaves and for every node of a ``tie_rtol == 0``
    #: tree. ``None`` on a tree restored from a stats snapshot written
    #: before snapshots persisted it, so such a tree is never carried
    #: over to a refit (:func:`repro.boosting.carry.carried_paths`).
    tie_in_feature: np.ndarray = field(default=None, repr=False)
    # Fit-time leaf assignment: ``fit_leaf_ids_[row]`` is the leaf node id
    # of every row that was in the training partition, -1 for rows the
    # caller excluded via ``rows=`` (subsampling). Consumed by the
    # boosting margin update; callers may clear it to free memory.
    fit_leaf_ids_: np.ndarray = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Growing
    # ------------------------------------------------------------------
    def fit(
        self,
        codes: np.ndarray,
        edges: "list[np.ndarray]",
        grad: np.ndarray,
        hess: np.ndarray,
        rng: "np.random.Generator | None" = None,
        rows: "np.ndarray | None" = None,
        store: "RowStore | None" = None,
    ) -> "Tree":
        """Grow the tree on binned ``codes`` against ``grad``/``hess``.

        ``edges[j]`` holds the interior quantile edges of column ``j`` so
        that bin index ``b`` maps back to the raw threshold ``edges[j][b]``.
        ``rows``, when given, restricts training to that subset of row
        indices (boosting row subsampling): excluded rows are simply not
        part of any node partition, so they count toward *nothing* — not
        ``min_samples_leaf``, not histogram bins, not ``n_samples``.

        Growth is level-order. A level's nodes are contiguous segments,
        each in row order, of one row-index buffer; a split partitions
        its segment stably into its children's segments of the other
        buffer. All histograms of one level are built in a single batched
        pass (see ``NodeHistogramBuilder``), and per split only the
        smaller child is accumulated from rows — its sibling's histogram
        is ``parent - smaller``. A node's gradient/hessian sums are one
        ``.sum()`` over its rows gathered in row order. After growth,
        ``fit_leaf_ids_`` holds each partitioned row's leaf node id (and
        -1 for rows excluded via ``rows``), which is what lets the caller
        turn the margin update into a gather instead of a fresh descent.

        ``store`` (a :class:`RowStore` for ``codes.shape[0]`` rows) holds
        every per-row buffer and sets the piece size of every pass over
        rows; by default the buffers are fresh arrays and every pass is
        one piece. ``fit_leaf_ids_`` is the store's leaf buffer.
        """
        if self.max_depth < 1:
            raise ConfigurationError("max_depth must be >= 1")
        n_rows, n_cols = codes.shape
        grad = np.asarray(grad, dtype=np.float64)
        hess = np.asarray(hess, dtype=np.float64)
        if store is None:
            store = RowStore(n_rows)
        elif store.n_rows != n_rows:
            raise DataError("row store and codes differ in row count")
        pieces = store.pieces
        # Fixed-width histogram layout: every feature gets a slot of
        # `stride` bins, so one level's histograms are a dense
        # (n_channels, n_nodes, n_cols, stride) block.
        stride = histogram_stride(edges)
        n_edges = np.array([len(e) for e in edges], dtype=np.int64)
        # Boundaries at or past a feature's missing code are vacuous
        # (n_edges <= stride - 2, so the trailing slot is always masked).
        boundary_ok = np.arange(stride)[None, :] <= n_edges[:, None]
        # With XGBoost-style stopping (min_samples_leaf == 0, only
        # min_child_weight binds) the per-bin count channel is never
        # consulted, so skip accumulating it entirely.
        with_counts = self.min_samples_leaf > 0
        builder = NodeHistogramBuilder(
            codes, stride, grad, hess, with_counts, piece_rows=store.piece_rows
        )
        codes_f = builder.codes
        # Level d's node segments live in segments[d % 2].
        segments = (store.buffer("rows0", np.intp), store.buffer("rows1", np.intp))
        gathered = store.buffer("gathered", np.float64)
        go_left = store.buffer("go_left", np.bool_)
        leaf_of_row = store.buffer("leaf", np.int64)
        nodes: list[dict] = []

        def row_sums(w: np.ndarray, seg: np.ndarray, bounds: "list[int]") -> list:
            # Per segment seg[bounds[i]:bounds[i + 1]], what ``w[idx].sum()``
            # sums, the same way: the rows' values gathered contiguously in
            # row order, then one ``.sum()``.
            for lo, hi in pieces(bounds[0], bounds[-1]):
                w.take(seg[lo:hi], out=gathered[lo:hi], mode="clip")
            return [float(gathered[a:b].sum()) for a, b in zip(bounds, bounds[1:])]

        def new_node(depth: int, start: int, stop: int, g_sum: float, h_sum: float) -> int:
            nodes.append(dict(
                feature=-1, threshold=np.nan, threshold_bin=-1, left=-1, right=-1,
                value=-g_sum / (h_sum + self.reg_lambda),  # repro: ignore[div-guard] h_sum >= 0 and reg_lambda > 0
                gain=0.0, n_samples=stop - start, tie_in_feature=False,
                _depth=depth, _start=start, _stop=stop, _gsum=g_sum, _hsum=h_sum,
            ))
            return len(nodes) - 1

        def searchable(node_id: int) -> bool:
            node = nodes[node_id]
            return not (
                node["_depth"] >= self.max_depth
                or node["n_samples"] < 2 * self.min_samples_leaf
                or node["_hsum"] < 2 * self.min_child_weight
            )

        def make_leaf(node_id: int) -> None:
            node = nodes[node_id]
            seg = segments[node["_depth"] % 2]
            for lo, hi in pieces(node["_start"], node["_stop"]):
                leaf_of_row[seg[lo:hi]] = node_id

        root_seg = segments[0]
        if rows is None:
            n_root = n_rows
            for lo, hi in pieces(0, n_rows):
                root_seg[lo:hi] = np.arange(lo, hi)
            root = new_node(0, 0, n_root, float(grad.sum()), float(hess.sum()))
        else:
            rows = np.asarray(rows, dtype=np.int64)
            n_root = rows.size
            root_seg[:n_root] = rows
            for lo, hi in pieces(0, n_rows):
                leaf_of_row[lo:hi] = -1
            (g_sum,), (h_sum,) = (row_sums(w, root_seg, [0, n_root]) for w in (grad, hess))
            root = new_node(0, 0, n_root, g_sum, h_sum)
        all_cols = np.arange(n_cols)
        n_sub = max(1, int(round(self.colsample * n_cols)))
        lam = self.reg_lambda
        # Level state: up to two position-aligned (node ids, histogram
        # block) groups — the directly-built smaller children (a zero-copy
        # leading view of the level's build block) and the subtracted
        # larger children. Subtraction happens bin-wise in histogram
        # domain (not on prefix sums, whose larger magnitudes would
        # amplify cancellation error in the gains).
        groups: "list[tuple[list[int], np.ndarray]]" = []
        if searchable(root):
            # Without ``rows`` the root holds every row: the builder reads
            # the column slices as they are instead of gathering them.
            handle = None if rows is None else root_seg[:n_root]
            groups = [([root], builder.build_level([handle]))]
        else:
            make_leaf(root)
        scheduler = SubtractionScheduler(builder)
        depth = 0
        while groups:
            cur, nxt = segments[depth % 2], segments[(depth + 1) % 2]
            scheduler.begin_level()
            for group_i, (ids, block) in enumerate(groups):
                m = len(ids)
                g_sums = np.array([nodes[i]["_gsum"] for i in ids])
                h_sums = np.array([nodes[i]["_hsum"] for i in ids])
                sizes = np.array([float(nodes[i]["n_samples"]) for i in ids])
                # Batched split search over the whole group (see
                # level_split_search): one cumsum scans all candidate
                # boundaries of all (node, feature) pairs and the block
                # stays intact — it is the subtraction parent for the
                # next level.
                if n_sub < n_cols and rng is not None:
                    col_mask = np.zeros((m, n_cols), dtype=bool)
                    for pos in range(m):
                        keep_cols = rng.choice(all_cols, size=n_sub, replace=False)
                        col_mask[pos, keep_cols] = True
                else:
                    col_mask = None
                best_flat, best_gains, tie_flags = level_split_search(
                    block,
                    g_sums,
                    h_sums,
                    sizes,
                    boundary_ok,
                    self.min_child_weight,
                    self.min_samples_leaf,
                    lam,
                    self.gamma,
                    with_counts,
                    col_mask=col_mask,
                    tie_rtol=self.tie_rtol,
                )
                for pos, node_id in enumerate(ids):
                    best_gain = float(best_gains[pos])
                    node = nodes[node_id]
                    start, stop = node["_start"], node["_stop"]
                    j, b = divmod(int(best_flat[pos]), stride)
                    # Partition in two passes: mark the rows going left
                    # (x <= edges[b], i.e. code <= b) and count them, then
                    # write each child's segment in row order.
                    n_lefts = []
                    if np.isfinite(best_gain) and best_gain > 0:
                        col = codes_f[:, j]
                        for lo, hi in pieces(start, stop):
                            np.less_equal(col.take(cur[lo:hi]), b, out=go_left[lo:hi])
                            n_lefts.append(int(np.count_nonzero(go_left[lo:hi])))
                    mid = start + sum(n_lefts)
                    if mid in (start, stop):
                        make_leaf(node_id)
                        continue
                    left_at, right_at = start, mid
                    for (lo, hi), n_left in zip(pieces(start, stop), n_lefts):
                        # compress, not seg[mask]: the same rows in order, and
                        # several times faster on an irregular mask.
                        seg, mask = cur[lo:hi], go_left[lo:hi]
                        np.compress(mask, seg, out=nxt[left_at : left_at + n_left])
                        left_at += n_left
                        np.logical_not(mask, out=mask)
                        n_right = hi - lo - n_left
                        np.compress(mask, seg, out=nxt[right_at : right_at + n_right])
                        right_at += n_right
                    # bin b is the last bin that goes left. If b exceeds
                    # the interior edges (can only happen when the "real
                    # value vs missing" boundary is chosen), the threshold
                    # is +inf: every real value goes left, missing goes
                    # right.
                    col_edges = edges[j]
                    node["feature"] = j
                    node["threshold"] = (
                        float(col_edges[b]) if b < len(col_edges) else np.inf
                    )
                    node["threshold_bin"] = b
                    node["gain"] = best_gain
                    node["tie_in_feature"] = bool(tie_flags[pos])
                    child_g = row_sums(grad, nxt, [start, mid, stop])
                    child_h = row_sums(hess, nxt, [start, mid, stop])
                    children = []
                    for lo, hi, g_sum, h_sum in zip((start, mid), (mid, stop), child_g, child_h):
                        child = new_node(depth + 1, lo, hi, g_sum, h_sum)
                        search = searchable(child)
                        children.append((child, hi - lo, nxt[lo:hi], search))
                        if not search:
                            make_leaf(child)
                    node["left"], node["right"] = children[0][0], children[1][0]
                    scheduler.add_split(group_i, pos, children[0], children[1])
            groups = scheduler.finish_level(groups)
            depth += 1

        for name in ("feature", "threshold_bin", "left", "right", "n_samples"):
            setattr(self, name, np.array([n[name] for n in nodes], dtype=np.int64))
        for name in ("threshold", "value", "gain"):
            setattr(self, name, np.array([n[name] for n in nodes], dtype=np.float64))
        self.tie_in_feature = np.array([n["tie_in_feature"] for n in nodes], dtype=bool)
        self.fit_leaf_ids_ = leaf_of_row
        return self

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        self._check_fitted()
        return int(self.feature.size)

    @property
    def n_leaves(self) -> int:
        self._check_fitted()
        return int((self.feature == -1).sum())

    def _check_fitted(self) -> None:
        if self.feature is None:
            raise NotFittedError("Tree not fitted")

    def _descend(self, X: np.ndarray) -> np.ndarray:
        """Route every row from the root to its leaf; returns node ids.

        The single traversal loop behind both :meth:`predict` and
        :meth:`apply`. Non-finite values (NaN and ±inf) are routed to the
        right branch explicitly — the fixed default direction, matching
        the training-time binning that maps every non-finite value to the
        per-column missing code. (NaN comparisons are already False, but
        ``-inf <= t`` and ``+inf <= +inf`` are True, so relying on the
        comparison alone would send infinities down the left branch the
        training partition never put them in.)
        """
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        node_ids = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature[node_ids] >= 0
        while active.any():
            rows = np.flatnonzero(active)
            nid = node_ids[rows]
            xv = X[rows, self.feature[nid]]
            go_left = np.isfinite(xv) & (xv <= self.threshold[nid])
            node_ids[rows] = np.where(go_left, self.left[nid], self.right[nid])
            active[rows] = self.feature[node_ids[rows]] >= 0
        return node_ids

    def _descend_codes(self, codes: np.ndarray) -> np.ndarray:
        """Binned descent: route pre-binned rows to leaves via bin codes.

        ``codes`` must be binned with the *training* edges
        (``codes_from_edges_matrix(X, edges)``); a row goes left when its
        code is ``<= threshold_bin``. Missing codes exceed every valid
        boundary, so missing values fall right automatically. Bit-identical
        to :meth:`_descend` on the unbinned matrix.
        """
        self._check_fitted()
        node_ids = np.zeros(codes.shape[0], dtype=np.int64)
        active = self.feature[node_ids] >= 0
        while active.any():
            rows = np.flatnonzero(active)
            nid = node_ids[rows]
            go_left = codes[rows, self.feature[nid]] <= self.threshold_bin[nid]
            node_ids[rows] = np.where(go_left, self.left[nid], self.right[nid])
            active[rows] = self.feature[node_ids[rows]] >= 0
        return node_ids

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf values for raw (unbinned) input rows, vectorized."""
        return self.value[self._descend(X)]

    def predict_codes(self, codes: np.ndarray) -> np.ndarray:
        """Leaf values for rows pre-binned with the training edges."""
        return self.value[self._descend_codes(codes)]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id per row (for diagnostics)."""
        return self._descend(X)

    # ------------------------------------------------------------------
    # Structure export (what SAFE consumes)
    # ------------------------------------------------------------------
    def paths(self) -> list[TreePath]:
        """Root→leaf-parent paths as the paper defines them.

        For every internal node that is the parent of at least one leaf,
        emit the distinct split features encountered from the root down to
        and including that node, along with each feature's collected split
        values.
        """
        self._check_fitted()
        out: list[TreePath] = []
        if self.feature[0] == -1:  # single-leaf tree
            return out

        def is_leaf(i: int) -> bool:
            return self.feature[i] == -1

        # DFS carrying the (ordered distinct features, values) state.
        stack: list[tuple[int, tuple[int, ...], dict[int, tuple[float, ...]]]] = [
            (0, (), {})
        ]
        while stack:
            node, feats, values = stack.pop()
            f = int(self.feature[node])
            thr = float(self.threshold[node])
            if f in values:
                new_feats = feats
                new_values = dict(values)
                new_values[f] = values[f] + (thr,)
            else:
                new_feats = feats + (f,)
                new_values = dict(values)
                new_values[f] = (thr,)
            l, r = int(self.left[node]), int(self.right[node])
            if is_leaf(l) or is_leaf(r):
                out.append(TreePath(features=new_feats, split_values=new_values))
            for child in (l, r):
                if not is_leaf(child):
                    stack.append((child, new_feats, new_values))
        return out

    def feature_gains(self) -> dict[int, tuple[float, int]]:
        """Per-feature ``(total_gain, split_count)`` over internal nodes."""
        self._check_fitted()
        out: dict[int, tuple[float, int]] = {}
        for f, g in zip(self.feature, self.gain):
            if f < 0:
                continue
            total, count = out.get(int(f), (0.0, 0))
            out[int(f)] = (total + float(g), count + 1)
        return out

    def split_features(self) -> set[int]:
        """The set of features used anywhere in the tree."""
        self._check_fitted()
        return {int(f) for f in self.feature if f >= 0}
